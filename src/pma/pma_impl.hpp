// Method definitions for PackedMemoryArray: the spread/redistribute
// primitive, resizing, and the parallel batch-update algorithm of Section 4
// (batch merge -> work-efficient counting -> parallel redistribution).
// Included at the bottom of pma/pma.hpp; do not include directly.
#pragma once

#include <atomic>

#include "pma/pma.hpp"

namespace cpma::pma {

// ---------------------------------------------------------------------------
// spread: write keys into [lo, hi) equalizing byte densities.
// ---------------------------------------------------------------------------

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::key_cost(key_type prev, key_type key,
                                           bool first) {
  if constexpr (Leaf::compressed) {
    return first ? Leaf::kHeadBytes : Leaf::delta_bytes(prev, key);
  } else {
    return 8;
  }
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::spread(uint64_t lo, uint64_t hi,
                                     const key_type* keys, uint64_t n) {
  const uint64_t m = hi - lo;
  assert(m >= 1);
  if (n == 0) {
    par::parallel_for(lo, hi, [&](uint64_t l) {
      std::memset(leaf_ptr(l), 0, leaf_bytes_);
    }, 8);
    return;
  }
  const uint64_t budget_cap = leaf_bytes_ - kLeafSlack - 18;

  // Serial fast path: point-update redistributes spread a few hundred keys;
  // fork-join setup would dominate.
  if (n < 8192) {
    uint64_t total = 0;
    for (uint64_t i = 0; i < n; ++i) {
      total += key_cost(i > 0 ? keys[i - 1] : 0, keys[i], i == 0);
    }
    uint64_t budget = (total + Leaf::kHeadBytes * m + m - 1) / m + 2;
    budget = std::min(std::max<uint64_t>(budget, 16), budget_cap);
    uint64_t i = 0;
    uint64_t cum = 0;
    for (uint64_t j = 0; j < m; ++j) {
      uint64_t target = (j + 1) * budget;
      uint64_t s = i;
      if (j + 1 == m) {
        i = n;
      } else {
        while (i < n) {
          uint64_t c = key_cost(i > 0 ? keys[i - 1] : 0, keys[i], i == 0);
          if (cum + c > target) break;
          cum += c;
          ++i;
        }
      }
      Leaf::write(leaf_ptr(lo + j), leaf_bytes_, keys + s, i - s);
    }
    return;
  }

  // Parallel path: per-key incremental encoded cost, then prefix sums so
  // leaf boundaries can be found independently (span O(log)) instead of by a
  // serial walk.
  util::uvector<uint64_t> prefix(n);
  par::parallel_for(0, n, [&](uint64_t i) {
    prefix[i] = key_cost(i > 0 ? keys[i - 1] : 0, keys[i], i == 0);
  });
  uint64_t total = par::exclusive_scan_inplace(prefix);
  // Byte budget per leaf: average, plus the per-leaf head allowance (a leaf's
  // first key is stored as a kHeadBytes header rather than a delta).
  uint64_t budget = (total + Leaf::kHeadBytes * m + m - 1) / m + 2;
  budget = std::max<uint64_t>(budget, 16);
  assert(budget <= budget_cap &&
         "region too dense to spread; caller must grow first");
  if (budget > budget_cap) budget = budget_cap;  // defensive in release

  // splits[j] = first key index whose prefix reaches j*budget.
  util::uvector<uint64_t> splits(m + 1);
  par::parallel_for(0, m, [&](uint64_t j) {
    uint64_t target = j * budget;
    splits[j] = static_cast<uint64_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
  }, 64);
  splits[m] = n;
  par::parallel_for(0, m, [&](uint64_t j) {
    uint64_t s = splits[j], e = splits[j + 1];
    Leaf::write(leaf_ptr(lo + j), leaf_bytes_, keys + s, e - s);
  }, 4);
}

// ---------------------------------------------------------------------------
// pack / resize
// ---------------------------------------------------------------------------

template <typename Leaf>
typename PackedMemoryArray<Leaf>::kvec PackedMemoryArray<Leaf>::pack_all()
    const {
  util::uvector<uint64_t> counts(num_leaves_);
  par::parallel_for(0, num_leaves_, [&](uint64_t l) {
    counts[l] = Leaf::element_count(leaf_ptr(l), leaf_bytes_);
  }, 8);
  uint64_t total = par::exclusive_scan_inplace(counts);
  kvec out(total);
  par::parallel_for(0, num_leaves_, [&](uint64_t l) {
    Leaf::decode_to(leaf_ptr(l), leaf_bytes_, out.data() + counts[l]);
  }, 8);
  return out;
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::choose_total_bytes(
    uint64_t stream_bytes) const {
  // Build/rebuild density target: middle of the steady-state range the growth
  // factor induces (the root oscillates in [upper_root/g, upper_root]).
  constexpr double kBuildDensity = 0.65;
  uint64_t t = static_cast<uint64_t>(static_cast<double>(stream_bytes) /
                                     kBuildDensity);
  return std::max<uint64_t>(t, kMinLeaves * kMinLeafBytes);
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::rebuild_into(uint64_t new_total_bytes,
                                           const key_type* keys, uint64_t n) {
  leaf_bytes_ = pick_leaf_bytes(new_total_bytes);
  num_leaves_ = std::max<uint64_t>(
      kMinLeaves, util::div_round_up(new_total_bytes, leaf_bytes_));
  // No zero pass: spread() writes every leaf (including empty ones, whose
  // write() zero-fills), so the buffer is first-touched by parallel writers.
  data_.resize(num_leaves_ * leaf_bytes_);
  data_.shrink_to_fit();
  spread(0, num_leaves_, keys, n);
  rebuild_head_index();
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::resize_rebuild(bool growing) {
  if (resize_spread(growing, nullptr)) return;
  resize_pack_rebuild(growing);
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::resize_pack_rebuild(bool growing) {
  kvec keys = pack_all();
  uint64_t stream = stream_size_parallel(keys.data(), keys.size());
  rebuild_into(resize_target_bytes(stream, growing), keys);
}

// ---------------------------------------------------------------------------
// Sharding hooks: boundary-range extraction and bulk construction, used by
// the keyspace-sharded layer (pma/sharded.hpp) to move content between
// neighbor shards without rebuilding either side from a flat key vector.
// ---------------------------------------------------------------------------

template <typename Leaf>
std::optional<uint64_t> PackedMemoryArray<Leaf>::split_key_for_bytes(
    uint64_t target) const {
  uint64_t cum = 0;
  for (uint64_t l = 0; l < num_leaves_; ++l) {
    const uint8_t* lp = leaf_ptr(l);
    key_type h = Leaf::head(lp);
    if (h == 0) continue;  // empty leaf contributes no content
    if (cum >= target) return h;
    cum += Leaf::used_bytes(lp, leaf_bytes_);
  }
  return std::nullopt;
}

template <typename Leaf>
typename PackedMemoryArray<Leaf>::kvec
PackedMemoryArray<Leaf>::extract_range(key_type lo, key_type hi) {
  kvec out;
  if (lo >= hi) return out;
  if (lo == 0) {
    if (has_zero_) {
      out.push_back(0);
      has_zero_ = false;
    }
    lo = 1;
    if (lo >= hi) return out;
  }
  if (count_ == 0) return out;
  // The extracted span covers a contiguous leaf run: only the first touched
  // leaf can keep a prefix (< lo) and only the last can keep a suffix
  // (>= hi). Each touched leaf is decoded once and rewritten from its kept
  // keys; fully-covered leaves rewrite to empty.
  const uint64_t l0 = find_leaf(lo);
  std::vector<key_type> buf, kept;
  uint64_t removed = 0;
  for (uint64_t l = l0; l < num_leaves_; ++l) {
    const uint8_t* lp = leaf_ptr(l);
    key_type h = Leaf::head(lp);
    if (h == 0) continue;
    if (h >= hi) break;  // leaves are globally sorted: nothing further
    if (Leaf::last(lp, leaf_bytes_) < lo) continue;  // only possible at l0
    buf.clear();
    Leaf::decode_append(lp, leaf_bytes_, buf);
    auto first = std::lower_bound(buf.begin(), buf.end(), lo);
    auto past = std::lower_bound(first, buf.end(), hi);
    if (first != past) {
      out.insert(out.end(), first, past);
      removed += static_cast<uint64_t>(past - first);
      kept.clear();
      kept.insert(kept.end(), buf.begin(), first);
      kept.insert(kept.end(), past, buf.end());
      Leaf::write(leaf_ptr(l), leaf_bytes_, kept.data(), kept.size());
    }
    if (past != buf.end()) break;  // hi fell inside this leaf
  }
  if (removed > 0) {
    count_ -= removed;
    // The emptied span leaves the region far below its lower density
    // bounds; one resize pass (direct spread, shrinking when warranted)
    // restores balance and rebuilds the head index. No key vector is
    // materialized unless the spread's slack guard refuses.
    resize_rebuild(/*growing=*/false);
  }
  return out;
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::build_from_sorted(const key_type* keys,
                                                uint64_t n) {
  uint64_t zeros = 0;
  while (zeros < n && keys[zeros] == 0) ++zeros;
  has_zero_ = zeros > 0;
  keys += zeros;
  n -= zeros;
  count_ = n;
  if (n == 0) {
    init_empty();
    return;
  }
  rebuild_into(choose_total_bytes(stream_size_parallel(keys, n)), keys, n);
}

// ---------------------------------------------------------------------------
// Direct-spread resize: re-spread the existing leaves into a resized array
// without materializing the flat key vector. Per-leaf content byte counts
// and last keys come from one streaming pass (codec sum_run: no key is ever
// stored); a parallel prefix sum turns them into a global content-byte
// coordinate; then every destination leaf independently locates its slice
// [j*budget, (j+1)*budget) of that coordinate and stitches the covered
// source runs in: verbatim byte copies inside a source leaf (a run's delta
// chain stays valid wherever it lands, because the key preceding the run
// becomes the destination head), one re-encoded delta per source-leaf join,
// and plain encoding for content that only exists as flat keys (a batch's
// overflowed leaves).
// ---------------------------------------------------------------------------

template <typename Leaf>
bool PackedMemoryArray<Leaf>::resize_spread(bool growing, BatchContext* ctx) {
  const bool has_ovf = ctx != nullptr && !ctx->overflow_list.empty();
  auto ovf_slot = [&](uint64_t l) -> uint32_t {
    return has_ovf ? overflow_slot_[l] : kNoOverflow;
  };
  ResizeScratch local;
  ResizeScratch& rs = ctx != nullptr ? ctx->resize : local;
  const uint64_t nl = num_leaves_;

  // Pass 1 (cheap, no decoding): per-leaf content bytes via the terminator
  // scan, then a parallel prefix sum building the CONTENT coordinate (every
  // source head counted as Leaf::kHeadBytes).
  rs.prefix.resize(nl + 1);
  rs.last.resize(nl);
  par::parallel_for(0, nl, [&](uint64_t l) {
    uint32_t s = ovf_slot(l);
    rs.prefix[l] = (s != kNoOverflow)
                       ? ctx->overflow_list[s].bytes
                       : Leaf::used_bytes(leaf_ptr(l), leaf_bytes_);
  }, 8);

  // The content total stands in for the exact stream size in the sizing
  // loops below: it differs only at source-leaf joins (a head's 8 bytes
  // versus the join delta's code), at most a few bytes per leaf in either
  // direction, which the sizing margins absorb. join_excess bounds the rare
  // joins whose delta encodes LARGER than the 8-byte head it replaces
  // (keys > 2^49 apart, bounded via head differences without any decoding)
  // — the only way a destination leaf can exceed its content-coordinate
  // span.
  auto src_head = [&](uint64_t l) -> key_type {
    uint32_t s = ovf_slot(l);
    if (s != kNoOverflow) return ctx->overflow_list[s].keys.front();
    return Leaf::head(leaf_ptr(l));
  };
  uint64_t join_excess = 0;
  if constexpr (Leaf::compressed) {
    // The join delta (head - previous nonempty leaf's last key) is bounded
    // by the head difference, and code size is monotone. Chunks accumulate
    // their interior terms in parallel and publish their first/last
    // nonempty heads; the cross-chunk boundary terms are added serially
    // (heads are >= 1, so 0 marks "no nonempty leaf in this chunk").
    const uint64_t chunk = 4096;
    const uint64_t num_chunks = util::div_round_up(nl, chunk);
    struct ChunkHeads {
      key_type first = 0;
      key_type last = 0;
      uint64_t excess = 0;
    };
    std::vector<ChunkHeads> heads(num_chunks);
    par::parallel_for(0, num_chunks, [&](uint64_t c) {
      uint64_t lo = c * chunk, hi = std::min(nl, lo + chunk);
      ChunkHeads out;
      key_type prev = 0;
      for (uint64_t l = lo; l < hi; ++l) {
        if (rs.prefix[l] == 0) continue;  // still raw bytes at this point
        key_type h = src_head(l);
        if (prev != 0) {
          uint64_t cost = Leaf::delta_bytes(prev, h);
          if (cost > Leaf::kHeadBytes) out.excess += cost - Leaf::kHeadBytes;
        } else {
          out.first = h;
        }
        prev = h;
      }
      out.last = prev;
      heads[c] = out;
    }, 1);
    key_type prev = 0;
    for (uint64_t c = 0; c < num_chunks; ++c) {
      if (heads[c].first == 0) continue;  // chunk entirely empty
      if (prev != 0) {
        uint64_t cost = Leaf::delta_bytes(prev, heads[c].first);
        if (cost > Leaf::kHeadBytes) join_excess += cost - Leaf::kHeadBytes;
      }
      join_excess += heads[c].excess;
      prev = heads[c].last;
    }
  }
  const uint64_t total = par::exclusive_scan_inplace(rs.prefix.data(), nl);
  rs.prefix[nl] = total;

  // Target total bytes: the same growth/shrink policy as the pack path.
  const uint64_t nt = resize_target_bytes(total, growing);

  // New geometry and per-destination-leaf byte budget, in the content
  // coordinate, so the partition covers the whole coordinate with no spill
  // onto the last leaf. A destination leaf's actual bytes exceed its
  // consumed content by at most the head-for-code swap (<= 7), one max code
  // of split overshoot, and the global join excess; refuse (caller packs
  // and rebuilds) if that cannot be guaranteed under the slack bound.
  const size_t nlb = pick_leaf_bytes(nt);
  const uint64_t nn = std::max<uint64_t>(
      kMinLeaves, util::div_round_up(nt, nlb));
  uint64_t budget = (total + nn - 1) / nn + 2;
  budget = std::max<uint64_t>(budget, 16);
  const uint64_t budget_cap = nlb - kLeafSlack - 18;
  if (budget + 24 + join_excess > budget_cap) return false;

  // Pass 2 (the ONE decoding pass): every source leaf streams forward once,
  // skip-summing to each destination boundary that lands inside it (targets
  // j*budget in [prefix[l], prefix[l+1])), then draining to its last key.
  // Boundaries that fall in the sliver past a leaf's last key are marked
  // and resolved to the next nonempty head at write time.
  rs.splits.resize(nn + 1);
  const SpreadSplit kEnd{nl, 0, 0, 0, 0};
  par::parallel_for(0, nn + 1, [&](uint64_t j) { rs.splits[j] = kEnd; }, 512);
  par::parallel_for(0, nl, [&](uint64_t l) {
    const uint64_t lbytes = rs.prefix[l + 1] - rs.prefix[l];
    if (lbytes == 0) return;
    uint64_t j = (rs.prefix[l] + budget - 1) / budget;  // first target >= lo
    const uint64_t jhi_t = rs.prefix[l + 1];            // targets stay below
    uint32_t s = ovf_slot(l);
    if (s != kNoOverflow) {
      const auto& keys = ctx->overflow_list[s].keys;
      rs.last[l] = keys.back();
      size_t off = Leaf::kHeadBytes;  // content offset of keys[1]
      uint64_t i = 1;
      for (; j <= nn && j * budget < jhi_t; ++j) {
        size_t target = j * budget - rs.prefix[l];
        if (target == 0) {
          rs.splits[j] = SpreadSplit{l, 0, Leaf::kHeadBytes, keys[0], 0};
          continue;
        }
        while (i < keys.size() && off < target) {
          off += key_cost(keys[i - 1], keys[i], false);
          ++i;
        }
        if (i >= keys.size()) {
          rs.splits[j] = SpreadSplit{l, kSliverOff, 0, 0, 0};
          continue;
        }
        size_t len = key_cost(keys[i - 1], keys[i], false);
        rs.splits[j] = SpreadSplit{l, off, off + len, keys[i], i};
      }
      return;
    }
    typename Leaf::SpreadSeeker seek(leaf_ptr(l), leaf_bytes_);
    rs.last[l] = seek.split_targets(
        rs.prefix[l], budget, j, jhi_t,
        [&](uint64_t jj, typename Leaf::SpreadPoint sp, bool sliver) {
          rs.splits[jj] = sliver ? SpreadSplit{l, kSliverOff, 0, 0, 0}
                                 : SpreadSplit{l, sp.off, sp.next, sp.key, 0};
        });
  }, 4);

  // Resolve a split for consumption: slivers advance to the next nonempty
  // leaf's head (cheap: empty leaves are rare and heads are O(1) loads).
  auto resolve = [&](SpreadSplit sp) -> SpreadSplit {
    if (sp.off != kSliverOff) return sp;
    uint64_t l = sp.leaf;
    do {
      ++l;
    } while (l < nl && rs.prefix[l + 1] == rs.prefix[l]);
    if (l >= nl) return kEnd;
    return SpreadSplit{l, 0, Leaf::kHeadBytes, src_head(l), 0};
  };

  // Pass 3: stitch every destination leaf from its two boundaries — byte
  // copies inside source leaves, one re-encoded delta per source-leaf join.
  util::huge_uvector<uint8_t> ndata(nn * nlb);
  par::parallel_for(0, nn, [&](uint64_t j) {
    uint8_t* dst = ndata.data() + j * nlb;
    SpreadSplit s0 = resolve(rs.splits[j]);
    SpreadSplit s1 = resolve(rs.splits[j + 1]);
    if (s0.leaf >= nl || (s0.leaf == s1.leaf && s0.off == s1.off)) {
      std::memset(dst, 0, nlb);
      return;
    }
    typename Leaf::SpreadWriter w;
    Leaf::spread_begin(w, dst, nlb, s0.key);
    uint64_t l = s0.leaf;
    {
      // First run: the rest of s0's source leaf (or up to s1 within it).
      uint32_t s = ovf_slot(l);
      if (s != kNoOverflow) {
        const auto& keys = ctx->overflow_list[s].keys;
        uint64_t hi = (s1.leaf == l) ? s1.kidx : keys.size();
        Leaf::spread_append_keys(w, keys.data() + s0.kidx + 1,
                                 hi - s0.kidx - 1);
      } else {
        size_t to = (s1.leaf == l) ? s1.off
                                   : (rs.prefix[l + 1] - rs.prefix[l]);
        Leaf::spread_copy_tail(w, leaf_ptr(l), s0.next, to);
        w.last = rs.last[l];  // only read again if the run covered the leaf
      }
      ++l;
    }
    while (l < nl && l <= s1.leaf) {
      const bool final_leaf = (l == s1.leaf);
      if (final_leaf && s1.off == 0) break;  // s1 is this leaf's head
      const uint64_t lbytes = rs.prefix[l + 1] - rs.prefix[l];
      if (lbytes == 0) {
        ++l;
        continue;
      }
      uint32_t s = ovf_slot(l);
      if (s != kNoOverflow) {
        const auto& keys = ctx->overflow_list[s].keys;
        Leaf::spread_append_keys(w, keys.data(),
                                 final_leaf ? s1.kidx : keys.size());
      } else {
        Leaf::spread_join(w, leaf_ptr(l), Leaf::head(leaf_ptr(l)),
                          final_leaf ? s1.off : lbytes);
        w.last = rs.last[l];
      }
      if (final_leaf) break;
      ++l;
    }
    size_t used = Leaf::spread_finish(w);
    assert(used <= nlb - kLeafSlack);
    (void)used;
  }, 2);

  // Restore the overflow-slot invariant while the geometry still matches,
  // then swap the new array in.
  if (ctx != nullptr) release_overflow_slots(*ctx);
  data_ = std::move(ndata);
  leaf_bytes_ = nlb;
  num_leaves_ = nn;
  rebuild_head_index();
  return true;
}

// ---------------------------------------------------------------------------
// Batch phase 1a: routing, one router for batch updates and batch queries.
// A dense batch is partitioned by a gallop: each chunk walks leaf by leaf —
// the next-head search doubles as the next run's leaf locator — and the
// chunk lists concatenate into a dense work list sorted by leaf by
// construction. A sparse batch (sparse_batch) is split into one chunk per
// worker, and each chunk descends its keys kGroup at a time in lockstep
// through the Eytzinger mirror; batch queries also prefetch every target
// leaf before probing the group's runs.
// ---------------------------------------------------------------------------

// Batch keys per dense routing chunk. Routing a chunk costs O(runs * log)
// after one find_leaf, so chunks only exist to expose parallelism.
constexpr uint64_t kRouteChunkKeys = 2048;

// Run-task grain of dense batch queries: same as the merge phase's
// parallel_for over leaf runs.
constexpr uint64_t kQueryRunGrain = 4;

template <typename Leaf>
std::pair<uint64_t, uint64_t> PackedMemoryArray<Leaf>::run_end(
    uint64_t l, const key_type* batch, uint64_t n, uint64_t i) const {
  const uint64_t nh = next_head(l);
  if (nh >= num_leaves_) return {n, num_leaves_};
  // Runs are typically a handful of keys: gallop from i, then binary-search
  // the last gap (batch[i] < h because batch[i] routes to leaf l).
  const key_type h = head_index_[nh];
  uint64_t lo = i, step = 1;
  while (lo + step < n && batch[lo + step] < h) {
    lo += step;
    step *= 2;
  }
  uint64_t hi = std::min(lo + step, n);
  uint64_t e = static_cast<uint64_t>(
      std::lower_bound(batch + lo, batch + hi, h) - batch);
  return {e, nh};
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::route_chunk(const key_type* batch, uint64_t n,
                                          uint64_t lo, uint64_t hi,
                                          std::vector<LeafRun>& out) const {
  if (lo >= hi) return;
  uint64_t i = lo;
  uint64_t l = find_leaf(batch[i]);
  if (lo > 0) {
    // A run whose first key lies in an earlier chunk belongs to that chunk;
    // skip past it.
    uint64_t g = (l == 0) ? 0
                          : static_cast<uint64_t>(
                                std::lower_bound(batch, batch + n,
                                                 head_index_[l]) -
                                batch);
    if (g < lo) {
      auto [e, next_l] = run_end(l, batch, n, i);
      i = e;
      if (i >= hi) return;
      l = find_leaf_from(next_l, batch[i]);
    }
  }
  while (i < hi) {
    auto [e, next_l] = run_end(l, batch, n, i);
    out.push_back(LeafRun{l, i, e});
    i = e;
    if (i >= hi) break;
    l = find_leaf_from(next_l, batch[i]);
  }
}

template <typename Leaf>
template <bool kProbe, typename Emit>
void PackedMemoryArray<Leaf>::route_sparse(const key_type* batch, uint64_t n,
                                           uint64_t lo, uint64_t hi,
                                           Emit&& emit) const {
  if (lo >= hi) return;
  constexpr uint64_t kG = EytzingerHeadIndex::kGroup;
  constexpr uint64_t kNone = UINT64_MAX;
  // The run holding batch[lo - 1] belongs to the previous chunk, which
  // extends it past its own end; this chunk skips its keys.
  const uint64_t skip = lo > 0 ? find_leaf(batch[lo - 1]) : kNone;
  LeafRun cur{kNone, lo, lo};
  // Software pipeline, one group deep: group k + 1 descends (and its leaves
  // are prefetched) before group k's runs are emitted, so a group's leaf
  // fetches overlap the next group's descent instead of stalling the probe.
  uint64_t leaves[2][kG];
  auto descend = [&](uint64_t i, uint64_t* out) {
    const uint64_t g = std::min(kG, hi - i);
    const key_type* q = batch + i;
    key_type padded[kG];
    if (g < kG) {  // the chunk's last group: pad with its last key
      std::copy(q, q + g, padded);
      std::fill(padded + g, padded + kG, q[g - 1]);
      q = padded;
    }
    eytz_.find_leaves<kG>(q, out);
    if constexpr (kProbe) {
      for (uint64_t j = 0; j < g; ++j) {
        if (j == 0 || out[j] != out[j - 1]) prefetch_leaf(out[j]);
      }
    }
  };
  descend(lo, leaves[0]);
  for (uint64_t i = lo, b = 0; i < hi; i += kG, b ^= 1) {
    if (i + kG < hi) descend(i + kG, leaves[b ^ 1]);
    const uint64_t g = std::min(kG, hi - i);
    for (uint64_t j = 0; j < g; ++j) {
      const uint64_t l = leaves[b][j];
      if (l == cur.leaf) {
        cur.end = i + j + 1;
        continue;
      }
      if (cur.leaf != kNone) emit(cur);
      cur.leaf = kNone;
      if (l != skip) cur = LeafRun{l, i + j, i + j + 1};
    }
  }
  if (cur.leaf == kNone) return;
  if (cur.end == hi && hi < n) {
    cur.end = run_end(cur.leaf, batch, n, hi - 1).first;
  }
  emit(cur);
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::route_runs(
    const key_type* batch, uint64_t n, std::vector<LeafRun>& runs,
    std::vector<std::vector<LeafRun>>& parts) const {
  runs.clear();
  const bool sparse = sparse_batch(n);
  const uint64_t chunks =
      sparse ? sparse_chunks(n)
             : std::min<uint64_t>(
                   util::div_round_up(n, kRouteChunkKeys),
                   uint64_t{8} * par::Scheduler::instance().num_workers());
  auto route = [&](uint64_t lo, uint64_t hi, std::vector<LeafRun>& out) {
    if (sparse) {
      route_sparse<false>(batch, n, lo, hi,
                          [&](const LeafRun& r) { out.push_back(r); });
    } else {
      route_chunk(batch, n, lo, hi, out);
    }
  };
  if (chunks <= 1) {
    route(0, n, runs);
    return;
  }
  parts.resize(chunks);
  par::parallel_for(0, chunks, [&](uint64_t c) {
    parts[c].clear();
    route(c * n / chunks, (c + 1) * n / chunks, parts[c]);
  }, 1);
  par::flatten_parts(parts, runs);
}

template <typename Leaf>
template <typename F>
void PackedMemoryArray<Leaf>::for_each_run(const key_type* batch, uint64_t n,
                                           F&& f) const {
  if (sparse_batch(n)) {
    const uint64_t chunks = sparse_chunks(n);
    par::parallel_for(0, chunks, [&](uint64_t c) {
      route_sparse<true>(batch, n, c * n / chunks, (c + 1) * n / chunks, f);
    }, 1);
    return;
  }
  std::vector<LeafRun> runs;
  std::vector<std::vector<LeafRun>> parts;
  route_runs(batch, n, runs, parts);
  par::parallel_for(0, runs.size(), [&](uint64_t r) { f(runs[r]); },
                    kQueryRunGrain);
}

// ---------------------------------------------------------------------------
// Batch phase 1b: per-leaf merges over the routed work list.
// ---------------------------------------------------------------------------

// Keys per refill of the merge loops' stack block; one kernel call decodes
// a whole block, so the per-key cost is a compare and an append.
constexpr size_t kMergeBlockKeys = 64;

template <typename Leaf>
void PackedMemoryArray<Leaf>::merge_into_leaf(uint64_t leaf,
                                              const key_type* keys,
                                              uint64_t k, uint64_t slot,
                                              BatchContext& ctx) {
  MergeScratch& scratch = ctx.scratch.local();
  const uint64_t max_bytes = leaf_bytes_ - kLeafSlack;
  // Single-key run (the common case for small batches over many leaves):
  // the leaf's point-insert splice needs no scratch and no tail re-encode.
  // Guarded by the worst-case growth so the in-place write cannot overflow.
  if (k == 1) {
    const uint64_t used = Leaf::used_bytes(leaf_ptr(leaf), leaf_bytes_);
    if (used + Leaf::kMaxInsertGrowth <= max_bytes) {
      const bool inserted = Leaf::insert(leaf_ptr(leaf), leaf_bytes_, keys[0]);
      ctx.touched_dense[slot] = TouchedLeaf{
          leaf, inserted ? Leaf::used_bytes(leaf_ptr(leaf), leaf_bytes_)
                         : used};
      ctx.delta_dense[slot] = inserted ? 1 : 0;
      return;
    }
  }
  // Fast path: splice the batch into the leaf's byte suffix in place. A
  // slice larger than the leaf's key capacity cannot fit, so don't bother
  // scanning for its splice point.
  if (k <= leaf_bytes_) {
    size_t need;
    uint64_t added;
    if (Leaf::merge_tail(leaf_ptr(leaf), leaf_bytes_, keys, k, max_bytes,
                         scratch.tail, &need, &added)) {
      ctx.touched_dense[slot] = TouchedLeaf{leaf, need};
      ctx.delta_dense[slot] = added;
      return;
    }
  }
  const uint8_t* lp = leaf_ptr(leaf);
  // Oversized slice (a skewed batch routing a huge run to one leaf): keep
  // the serial per-key loop off the critical path — materialize and merge
  // in parallel. Buffers are task-local here: the nested parallel calls
  // suspend at joins, where a stolen sibling task must not find this task's
  // scratch in use.
  const uint64_t existing_count = Leaf::element_count(lp, leaf_bytes_);
  if (existing_count + k > (1 << 15)) {
    util::uvector<key_type> existing(existing_count);
    Leaf::decode_to(lp, leaf_bytes_, existing.data());
    std::vector<key_type> merged(existing_count + k);
    par::parallel_merge(existing.data(), existing_count, keys, k,
                        merged.data());
    par::dedupe_sorted(merged);
    const uint64_t big_added = merged.size() - existing_count;
    const uint64_t big_need = Leaf::encoded_size(merged.data(), merged.size());
    if (big_need <= max_bytes) {
      Leaf::write(leaf_ptr(leaf), leaf_bytes_, merged.data(), merged.size());
    } else {
      ctx.overflows.local().push_back(
          Overflow{leaf, std::move(merged), big_need});
    }
    ctx.touched_dense[slot] = TouchedLeaf{leaf, big_need};
    ctx.delta_dense[slot] = big_added;
    return;
  }
  // Materializing fallback (empty leaf, batch key below the head, or the
  // tail splice overflowed): block-stream the leaf through the decode
  // kernel, merge into per-worker scratch, and either rewrite the leaf or
  // park the content out-of-place until redistribution (Figure 4).
  // Batch-internal duplicates are dropped via `last` (keys are >= 1, so 0
  // is a safe sentinel).
  std::vector<key_type>& merged = scratch.merged;
  merged.clear();
  typename Leaf::BlockCursor bc{};
  key_type buf[kMergeBlockKeys];
  size_t bn = 0, bi = 0;
  auto refill = [&] {
    bi = 0;
    bn = Leaf::block_next(lp, leaf_bytes_, bc, buf, kMergeBlockKeys);
    return bn != 0;
  };
  uint64_t existing_n = 0;
  uint64_t i = 0;
  key_type last = 0;
  bool have = refill();
  while (have && i < k) {
    key_type e = buf[bi], b = keys[i];
    if (e <= b) {
      merged.push_back(e);
      last = e;
      ++existing_n;
      if (e == b) ++i;
      if (++bi == bn) have = refill();
    } else {
      if (b != last) {
        merged.push_back(b);
        last = b;
      }
      ++i;
    }
  }
  while (have) {
    merged.insert(merged.end(), buf + bi, buf + bn);
    existing_n += bn - bi;
    have = refill();
  }
  for (; i < k; ++i) {
    if (keys[i] != last) {
      merged.push_back(keys[i]);
      last = keys[i];
    }
  }
  const uint64_t added = merged.size() - existing_n;
  const uint64_t need = Leaf::encoded_size(merged.data(), merged.size());
  if (need <= max_bytes) {
    Leaf::write(leaf_ptr(leaf), leaf_bytes_, merged.data(), merged.size());
  } else {
    // Leaf overflow: keep the merged content out-of-place until the
    // redistribution phase cleans it up (Figure 4). Copies out of the
    // scratch (overflow is the rare case).
    ctx.overflows.local().push_back(Overflow{leaf, merged, need});
  }
  ctx.touched_dense[slot] = TouchedLeaf{leaf, need};
  ctx.delta_dense[slot] = added;
}

// ---------------------------------------------------------------------------
// Batch remove: phase 1 (same routing; per-leaf subtraction, never overflows).
// ---------------------------------------------------------------------------

template <typename Leaf>
void PackedMemoryArray<Leaf>::remove_from_leaf(uint64_t leaf,
                                               const key_type* keys,
                                               uint64_t k, uint64_t slot,
                                               BatchContext& ctx) {
  ctx.delta_dense[slot] = 0;
  ctx.touched_dense[slot] = TouchedLeaf{leaf, kUntouched};
  // Suffix-splice subtraction (the remove mirror of merge_tail): the byte
  // prefix below the first removable key is never touched and the leaf is
  // never materialized. A subset re-encodes no larger than what it replaces,
  // so unlike the insert side there is no overflow fallback — the only
  // refusal is an empty leaf, which has nothing to remove anyway.
  size_t need = 0;
  uint64_t removed = 0;
  if (!Leaf::remove_tail(leaf_ptr(leaf), leaf_bytes_, keys, k,
                         ctx.scratch.local().tail, &need, &removed)) {
    return;
  }
  if (removed == 0) return;
  ctx.touched_dense[slot] = TouchedLeaf{leaf, need};
  ctx.delta_dense[slot] = removed;
}

// ---------------------------------------------------------------------------
// Batch phase 2 bookkeeping: flat overflow slots.
// ---------------------------------------------------------------------------

template <typename Leaf>
void PackedMemoryArray<Leaf>::bind_overflow_slots(BatchContext& ctx) {
  if (ctx.overflow_list.empty()) return;
  // Lazily (re)size after rebuilds; between batches every entry is
  // kNoOverflow, so no per-batch clearing pass is needed.
  if (overflow_slot_.size() != num_leaves_) {
    overflow_slot_.assign(num_leaves_, kNoOverflow);
  }
  for (uint32_t i = 0; i < ctx.overflow_list.size(); ++i) {
    overflow_slot_[ctx.overflow_list[i].leaf] = i;
  }
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::release_overflow_slots(BatchContext& ctx) {
  if (ctx.overflow_list.empty()) return;
  // Restore the all-kNoOverflow invariant (skip if a rebuild already
  // invalidated the array wholesale).
  if (overflow_slot_.size() == num_leaves_) {
    for (const Overflow& o : ctx.overflow_list) {
      overflow_slot_[o.leaf] = kNoOverflow;
    }
  }
}


// ---------------------------------------------------------------------------
// Phase 2: work-efficient counting (Lemmas 2 and 3).
// ---------------------------------------------------------------------------

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::leaf_bytes_aware(
    uint64_t leaf, const BatchContext& ctx) const {
  if (!ctx.overflow_list.empty()) {
    uint32_t s = overflow_slot_[leaf];
    if (s != kNoOverflow) return ctx.overflow_list[s].bytes;
  }
  return Leaf::used_bytes(leaf_ptr(leaf), leaf_bytes_);
}

namespace detail {
// Counts a node's bytes, reading previously-cached counts and recording newly
// computed ones in `fresh` (merged into the shared cache between levels so
// every region is counted exactly once — Lemma 2). The cache is a flat
// vector sorted by node_key: lookups are binary searches, and the
// between-level merge is a parallel sort + merge instead of serial hash
// inserts. Below kBulkHeight the recursion switches to a direct scan of the
// node's leaf range: memoizing per-leaf results costs more than rescanning
// <= 2^kBulkHeight small leaves (a bounded constant factor on the work
// bound).
constexpr uint64_t kBulkHeight = 3;

using CountEntry = std::pair<uint64_t, uint64_t>;

inline const uint64_t* cache_find(const util::uvector<CountEntry>& cache,
                                  uint64_t key) {
  auto it = std::lower_bound(
      cache.begin(), cache.end(), key,
      [](const CountEntry& e, uint64_t k) { return e.first < k; });
  if (it != cache.end() && it->first == key) return &it->second;
  return nullptr;
}

template <typename CountLeaf>
uint64_t count_node(const ImplicitTree& tree, NodeId n,
                    const util::uvector<CountEntry>& cache,
                    std::vector<CountEntry>& fresh,
                    const CountLeaf& count_leaf) {
  if (const uint64_t* hit = cache_find(cache, node_key(n))) return *hit;
  uint64_t bytes;
  if (n.height <= kBulkHeight) {
    bytes = 0;
    uint64_t lo = tree.region_begin(n), hi = tree.region_end(n);
    for (uint64_t l = lo; l < hi; ++l) bytes += count_leaf(l);
  } else {
    NodeId left{n.height - 1, n.index * 2};
    NodeId right{n.height - 1, n.index * 2 + 1};
    bytes = count_node(tree, left, cache, fresh, count_leaf);
    if (tree.valid(right)) {
      bytes += count_node(tree, right, cache, fresh, count_leaf);
    }
  }
  // Nodes at or below kBulkHeight are never looked up (their parents scan
  // leaf ranges directly), so memoizing them would only bloat the cache.
  if (n.height > kBulkHeight) fresh.emplace_back(node_key(n), bytes);
  return bytes;
}
}  // namespace detail

template <typename Leaf>
bool PackedMemoryArray<Leaf>::counting_phase(const TouchedLeaf* touched,
                                             uint64_t num_touched,
                                             BatchContext& ctx, bool is_insert,
                                             std::vector<NodeId>* roots) {
  ImplicitTree tree(num_leaves_);
  auto& cache = ctx.count_cache;
  cache.clear();

  auto violates = [&](NodeId n, uint64_t bytes) {
    return is_insert ? bytes > upper_bytes(tree, n)
                     : bytes < lower_bytes(tree, n);
  };

  std::vector<NodeId> found_roots;
  std::vector<uint64_t> to_count;  // node indices at the current level

  // Level 0: seed with the touched leaves. The merge phase recorded every
  // touched leaf's byte count, so no leaf is rescanned here — and the
  // routing phase hands the leaves over sorted, so parents dedupe on the
  // fly without a sort.
  {
    to_count.reserve(num_touched / 4);
    for (uint64_t t = 0; t < num_touched; ++t) {
      if (violates({0, touched[t].leaf}, touched[t].bytes)) {
        uint64_t parent = touched[t].leaf / 2;
        if (to_count.empty() || to_count.back() != parent) {
          to_count.push_back(parent);
        }
      }
    }
    // A single-leaf PMA (height 0) cannot occur (kMinLeaves >= 2), but guard
    // the degenerate case anyway.
    if (tree.height() == 0 && !to_count.empty()) return false;
  }

  // Levels are processed serially; all nodes within a level in parallel.
  bool to_count_sorted = true;  // level-0 seed is sorted and deduped
  for (uint64_t h = 1; h <= tree.height() && !to_count.empty(); ++h) {
    if (!to_count_sorted) {
      par::parallel_sort(to_count);
      to_count.erase(std::unique(to_count.begin(), to_count.end()),
                     to_count.end());
    }

    par::WorkerLocal<std::vector<CountEntry>> fresh;
    par::WorkerLocal<std::vector<uint64_t>> parents;
    par::WorkerLocal<std::vector<NodeId>> level_roots;
    std::atomic<bool> root_violated{false};

    par::parallel_for(0, to_count.size(), [&](uint64_t i) {
      NodeId node{h, to_count[i]};
      if (!tree.valid(node)) return;
      uint64_t bytes = detail::count_node(
          tree, node, cache, fresh.local(),
          [&](uint64_t l) { return leaf_bytes_aware(l, ctx); });
      if (violates(node, bytes)) {
        if (tree.is_root(node)) {
          root_violated.store(true, std::memory_order_relaxed);
        } else {
          parents.local().push_back(node.index / 2);
        }
      } else {
        level_roots.local().push_back(node);
      }
    }, 1);

    if (root_violated.load()) return false;
    // Merge the level's fresh counts into the sorted cache: flatten the
    // worker slots, parallel-sort by node_key (keys are unique — the
    // level's nodes have disjoint subtrees), and one parallel merge with
    // the existing cache into the swap buffer.
    par::flatten_parts(fresh, ctx.fresh_all);
    if (!ctx.fresh_all.empty()) {
      par::parallel_sort(ctx.fresh_all.data(), ctx.fresh_all.size());
      ctx.count_scratch.resize(cache.size() + ctx.fresh_all.size());
      par::parallel_merge(cache.data(), cache.size(), ctx.fresh_all.data(),
                          ctx.fresh_all.size(), ctx.count_scratch.data());
      std::swap(cache, ctx.count_scratch);
    }
    auto lr = level_roots.template combined<std::vector<NodeId>>();
    found_roots.insert(found_roots.end(), lr.begin(), lr.end());
    to_count = parents.template combined<std::vector<uint64_t>>();
    to_count_sorted = false;  // slot concatenation interleaves workers
  }

  // Keep only maximal regions (the redistribution intervals form a laminar
  // family: sort by start, then drop any region contained in the previous
  // kept one).
  ImplicitTree t2(num_leaves_);
  std::sort(found_roots.begin(), found_roots.end(),
            [&](NodeId a, NodeId b) {
              uint64_t ba = t2.region_begin(a), bb = t2.region_begin(b);
              if (ba != bb) return ba < bb;
              return a.height > b.height;
            });
  uint64_t covered_end = 0;
  for (NodeId n : found_roots) {
    if (t2.region_begin(n) >= covered_end) {
      roots->push_back(n);
      covered_end = t2.region_end(n);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Phase 3: parallel redistribution (Lemma 4).
// ---------------------------------------------------------------------------

template <typename Leaf>
void PackedMemoryArray<Leaf>::redistribute_parallel(
    const std::vector<NodeId>& roots, BatchContext& ctx) {
  ImplicitTree tree(num_leaves_);
  const bool has_ovf = !ctx.overflow_list.empty();
  // Regions small enough that every step below (including spread, whose
  // serial fast path starts at 8192 keys) runs serially inside this task can
  // use the per-worker arena: with no suspension point while the arena is
  // live, a stolen sibling task can never observe it mid-use. Larger regions
  // allocate task-locally and keep their internal parallelism.
  const uint64_t arena_max_bytes = 8191;
  par::parallel_for(0, roots.size(), [&](uint64_t r) {
    NodeId node = roots[r];
    uint64_t lo = tree.region_begin(node), hi = tree.region_end(node);
    uint64_t m = hi - lo;
    auto leaf_keys = [&](uint64_t l) -> uint64_t {
      if (has_ovf) {
        uint32_t s = overflow_slot_[l];
        if (s != kNoOverflow) return ctx.overflow_list[s].keys.size();
      }
      return Leaf::element_count(leaf_ptr(l), leaf_bytes_);
    };
    auto leaf_fill = [&](uint64_t l, key_type* dst) {
      if (has_ovf) {
        uint32_t s = overflow_slot_[l];
        if (s != kNoOverflow) {
          const auto& keys = ctx.overflow_list[s].keys;
          std::copy(keys.begin(), keys.end(), dst);
          return;
        }
      }
      Leaf::decode_to(leaf_ptr(l), leaf_bytes_, dst);
    };
    if (m * leaf_bytes_ <= arena_max_bytes) {
      RegionArena& a = ctx.arenas.local();
      a.counts.resize(m);
      uint64_t total = 0;
      for (uint64_t j = 0; j < m; ++j) {
        uint64_t c = leaf_keys(lo + j);
        a.counts[j] = total;
        total += c;
      }
      a.buffer.resize(total);
      for (uint64_t j = 0; j < m; ++j) {
        leaf_fill(lo + j, a.buffer.data() + a.counts[j]);
      }
      spread(lo, hi, a.buffer.data(), total);
      return;
    }
    // Pack: per-leaf counts -> prefix -> decode into slices (two parallel
    // passes; each cell is touched a constant number of times).
    util::uvector<uint64_t> counts(m);
    par::parallel_for(0, m, [&](uint64_t j) {
      counts[j] = leaf_keys(lo + j);
    }, 8);
    uint64_t total = par::exclusive_scan_inplace(counts);
    kvec buffer(total);
    par::parallel_for(0, m, [&](uint64_t j) {
      leaf_fill(lo + j, buffer.data() + counts[j]);
    }, 8);
    spread(lo, hi, buffer.data(), total);
  }, 1);
}

// ---------------------------------------------------------------------------
// Batch entry points.
// ---------------------------------------------------------------------------

// Shared prologue: sort, strip the key-0 sentinel (stored out-of-band), and
// apply sub-threshold batches as point updates.
template <typename Leaf>
template <bool IsInsert>
typename PackedMemoryArray<Leaf>::BatchPrologue
PackedMemoryArray<Leaf>::batch_prologue(key_type* input, uint64_t n,
                                        bool sorted) {
  BatchPrologue p;
  if (n == 0) {
    p.done = true;
    return p;
  }
  if (!sorted) par::parallel_sort(input, n);
  uint64_t zeros = 0;
  while (zeros < n && input[zeros] == 0) ++zeros;
  if (zeros > 0) {
    if constexpr (IsInsert) {
      if (!has_zero_) {
        has_zero_ = true;
        p.delta = 1;
      }
    } else {
      if (has_zero_) {
        has_zero_ = false;
        p.delta = 1;
      }
    }
  }
  p.keys = input + zeros;
  p.n = n - zeros;
  if (p.n == 0 || (!IsInsert && count_ == 0)) {
    p.done = true;
    return p;
  }
  if (p.n < kPointThreshold) {
    for (uint64_t i = 0; i < p.n; ++i) {
      if constexpr (IsInsert) {
        p.delta += insert(p.keys[i]) ? 1 : 0;
      } else {
        p.delta += remove(p.keys[i]) ? 1 : 0;
      }
    }
    p.done = true;
  }
  return p;
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::insert_batch(key_type* input, uint64_t n,
                                               bool sorted) {
  BatchPrologue p = batch_prologue<true>(input, n, sorted);
  if (p.done) return p.delta;
  // No explicit dedupe or copy: both downstream paths deduplicate during
  // their merges (duplicates cost only redundant routing).
  // Strategy crossover (Section 4): huge batches rebuild with a two-finger
  // merge; intermediate batches run the batch-merge algorithm.
  if (count_ == 0 || p.n >= count_ / 10) {
    return p.delta + insert_batch_rebuild(p.keys, p.n);
  }
  return p.delta + insert_batch_merge(p.keys, p.n);
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::insert_batch_rebuild(const key_type* batch,
                                                       uint64_t n) {
  detail::PhaseTimer pt;
  kvec existing = pack_all();
  kvec merged;
  par::merge_unique(existing.data(), existing.size(), batch, n, merged);
  const uint64_t added = merged.size() - existing.size();
  rebuild_into(choose_total_bytes(
                   stream_size_parallel(merged.data(), merged.size())),
               merged);
  count_ = merged.size();
  phase_times_.rebuild_ns += pt.lap();
  ++phase_times_.rebuilds;
  return added;
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::insert_batch_merge(const key_type* batch,
                                                     uint64_t n) {
  BatchContext ctx;
  detail::PhaseTimer pt;

  // Phase 1a: route the batch into per-leaf runs.
  route_runs(batch, n, ctx.runs, ctx.route_parts);
  const uint64_t num_runs = ctx.runs.size();
  ctx.touched_dense.resize(num_runs);
  ctx.delta_dense.resize(num_runs);
  phase_times_.route_ns += pt.lap();

  // Phase 1b: per-leaf merges, one parallel_for over the dense work list.
  par::parallel_for(0, num_runs, [&](uint64_t r) {
    const LeafRun& run = ctx.runs[r];
    merge_into_leaf(run.leaf, batch + run.begin, run.end - run.begin, r, ctx);
  }, 4);
  uint64_t added = par::parallel_sum<uint64_t>(
      0, num_runs, [&](uint64_t r) { return ctx.delta_dense[r]; });
  count_ += added;
  ctx.overflow_list = ctx.overflows.template combined<std::vector<Overflow>>();
  bind_overflow_slots(ctx);
  phase_times_.merge_ns += pt.lap();

  // The routed work list is sorted by leaf, so touched_dense is the sorted
  // touched-leaf list the counting phase wants — no sort, no combine.
  std::vector<NodeId> roots;
  bool root_ok = counting_phase(ctx.touched_dense.data(), num_runs, ctx,
                                /*is_insert=*/true, &roots);
  phase_times_.count_ns += pt.lap();

  if (!root_ok) {
    // Root bound violated: grow by re-spreading the encoded leaf content
    // (overflow-aware) directly into the larger array. The pack+rebuild
    // fallback only triggers for density targets that leave too little
    // slack for verbatim splicing; its time is charged to rebuild_ns so
    // spread_ns/spreads only ever measure actual direct spreads.
    if (resize_spread(/*growing=*/true, &ctx)) {
      phase_times_.spread_ns += pt.lap();
      ++phase_times_.spreads;
    } else {
      util::uvector<uint64_t> counts(num_leaves_);
      const bool has_ovf = !ctx.overflow_list.empty();
      par::parallel_for(0, num_leaves_, [&](uint64_t l) {
        uint32_t s = has_ovf ? overflow_slot_[l] : kNoOverflow;
        counts[l] = (s != kNoOverflow)
                        ? ctx.overflow_list[s].keys.size()
                        : Leaf::element_count(leaf_ptr(l), leaf_bytes_);
      }, 8);
      uint64_t total = par::exclusive_scan_inplace(counts);
      kvec all(total);
      par::parallel_for(0, num_leaves_, [&](uint64_t l) {
        uint64_t off = counts[l];
        uint32_t s = has_ovf ? overflow_slot_[l] : kNoOverflow;
        if (s != kNoOverflow) {
          const auto& keys = ctx.overflow_list[s].keys;
          std::copy(keys.begin(), keys.end(), all.begin() + off);
        } else {
          Leaf::decode_to(leaf_ptr(l), leaf_bytes_, all.data() + off);
        }
      }, 8);
      release_overflow_slots(ctx);
      uint64_t stream = stream_size_parallel(all.data(), all.size());
      rebuild_into(resize_target_bytes(stream, /*growing=*/true), all);
      phase_times_.rebuild_ns += pt.lap();
    }
    ++phase_times_.batches;
    return added;
  }

  redistribute_parallel(roots, ctx);
  update_index_after_batch(ctx.touched_dense.data(), num_runs, roots);
  release_overflow_slots(ctx);
  phase_times_.redistribute_ns += pt.lap();
  ++phase_times_.batches;
  return added;
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::remove_batch(key_type* input, uint64_t n,
                                               bool sorted) {
  BatchPrologue p = batch_prologue<false>(input, n, sorted);
  if (p.done) return p.delta;
  // Duplicates in the batch are harmless: the per-leaf set_differences and
  // the rebuild-path difference match each stored key at most once.
  if (p.n >= count_ / 10) {
    return p.delta + remove_batch_rebuild(p.keys, p.n);
  }
  return p.delta + remove_batch_merge(p.keys, p.n);
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::remove_batch_rebuild(const key_type* batch,
                                                       uint64_t n) {
  detail::PhaseTimer pt;
  kvec existing = pack_all();
  // Pointer-range view of the batch for the templated difference helper.
  struct Span {
    const key_type* d;
    uint64_t n;
    const key_type* begin() const { return d; }
    const key_type* end() const { return d + n; }
    bool empty() const { return n == 0; }
  };
  kvec kept = par::sorted_difference(existing, Span{batch, n});
  const uint64_t removed = existing.size() - kept.size();
  rebuild_into(
      choose_total_bytes(stream_size_parallel(kept.data(), kept.size())),
      kept);
  count_ = kept.size();
  phase_times_.rebuild_ns += pt.lap();
  ++phase_times_.rebuilds;
  return removed;
}

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::remove_batch_merge(const key_type* batch,
                                                     uint64_t n) {
  BatchContext ctx;
  detail::PhaseTimer pt;

  route_runs(batch, n, ctx.runs, ctx.route_parts);
  const uint64_t num_runs = ctx.runs.size();
  ctx.touched_dense.resize(num_runs);
  ctx.delta_dense.resize(num_runs);
  phase_times_.route_ns += pt.lap();

  par::parallel_for(0, num_runs, [&](uint64_t r) {
    const LeafRun& run = ctx.runs[r];
    remove_from_leaf(run.leaf, batch + run.begin, run.end - run.begin, r, ctx);
  }, 4);
  uint64_t removed = par::parallel_sum<uint64_t>(
      0, num_runs, [&](uint64_t r) { return ctx.delta_dense[r]; });
  count_ -= removed;
  phase_times_.merge_ns += pt.lap();
  if (removed == 0) {
    ++phase_times_.batches;
    return 0;
  }

  // Compact away the routed-but-unchanged leaves; order (by leaf) is
  // preserved, which is what the counting phase expects.
  uint64_t num_touched = 0;
  for (uint64_t r = 0; r < num_runs; ++r) {
    if (ctx.touched_dense[r].bytes != kUntouched) {
      ctx.touched_dense[num_touched++] = ctx.touched_dense[r];
    }
  }

  std::vector<NodeId> roots;
  bool root_ok = counting_phase(ctx.touched_dense.data(), num_touched, ctx,
                                /*is_insert=*/false, &roots);
  phase_times_.count_ns += pt.lap();
  if (!root_ok) {
    // Root lower bound violated: shrink by direct spread (reusing the batch
    // arenas; removes never overflow, so ctx carries no out-of-place
    // leaves). Fallback time is charged to rebuild_ns, as on the grow side.
    if (resize_spread(/*growing=*/false, &ctx)) {
      phase_times_.spread_ns += pt.lap();
      ++phase_times_.spreads;
    } else {
      resize_pack_rebuild(false);
      phase_times_.rebuild_ns += pt.lap();
    }
    ++phase_times_.batches;
    return removed;
  }
  redistribute_parallel(roots, ctx);
  update_index_after_batch(ctx.touched_dense.data(), num_touched, roots);
  phase_times_.redistribute_ns += pt.lap();
  ++phase_times_.batches;
  return removed;
}

// ---------------------------------------------------------------------------
// Serial RMA-like batch baseline (Table 4 comparator).
// ---------------------------------------------------------------------------

template <typename Leaf>
uint64_t PackedMemoryArray<Leaf>::insert_batch_serial_baseline(
    key_type* input, uint64_t n, bool sorted) {
  if (n == 0) return 0;
  if (!sorted) std::sort(input, input + n);
  uint64_t zeros = 0;
  while (zeros < n && input[zeros] == 0) ++zeros;
  uint64_t added = 0;
  if (zeros > 0 && !has_zero_) {
    has_zero_ = true;
    added = 1;
  }
  std::vector<key_type> batch(input + zeros, input + n);
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());

  uint64_t i = 0;
  while (i < batch.size()) {
    const uint64_t l = find_leaf(batch[i]);
    // Extent of the batch destined for this leaf under the live index.
    uint64_t j = batch.size();
    const uint64_t nh = next_head(l);
    if (nh < num_leaves_) {
      j = static_cast<uint64_t>(std::lower_bound(batch.begin() + i,
                                                 batch.end(),
                                                 head_index_[nh]) -
                                batch.begin());
    }
    std::vector<key_type> existing;
    Leaf::decode_append(leaf_ptr(l), leaf_bytes_, existing);
    std::vector<key_type> merged(existing.size() + (j - i));
    std::merge(existing.begin(), existing.end(), batch.begin() + i,
               batch.begin() + j, merged.begin());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    uint64_t need = Leaf::encoded_size(merged.data(), merged.size());
    if (need <= leaf_bytes_ - kLeafSlack) {
      Leaf::write(leaf_ptr(l), leaf_bytes_, merged.data(), merged.size());
      added += merged.size() - existing.size();
      count_ += merged.size() - existing.size();
      update_head_index(l, l + 1);
      // Per-leaf walk-up rebalance: re-counts ancestor regions from scratch
      // (the redundant work the paper's counting phase eliminates).
      rebalance_insert(l);
    } else {
      // Slice exceeds the leaf even after a rebalance would run: fall back
      // to point inserts for this slice.
      for (uint64_t q = i; q < j; ++q) added += insert(batch[q]) ? 1 : 0;
    }
    i = j;
  }
  return added;
}

// ---------------------------------------------------------------------------
// Batch queries: the read-side twin of the batch pipeline. The batch
// router (for_each_run) turns the sorted query array into per-leaf runs —
// lockstep descent with leaf prefetch for sparse batches, the gallop for
// dense ones — and each run decodes its leaf AT MOST ONCE with a single
// streaming Leaf::map pass shared by every query in the run. Hit bits go
// through relaxed atomic ORs so runs (and sibling shards writing disjoint
// slices of one bitmap) can share output words.
// ---------------------------------------------------------------------------

namespace detail {
inline void set_query_bit(uint64_t* bits, uint64_t i) {
  std::atomic_ref<uint64_t>(bits[i >> 6])
      .fetch_or(uint64_t{1} << (i & 63), std::memory_order_relaxed);
}
}  // namespace detail

template <typename Leaf>
void PackedMemoryArray<Leaf>::has_batch(const key_type* keys, uint64_t n,
                                        uint64_t* bits,
                                        uint64_t bit_base) const {
  if (n == 0) return;
  // Key 0 is out of band; zero queries are a (sorted) prefix.
  uint64_t start = 0;
  while (start < n && keys[start] == 0) {
    if (has_zero_) detail::set_query_bit(bits, bit_base + start);
    ++start;
  }
  if (start == n) return;
  const key_type* qk = keys + start;
  const uint64_t qn = n - start;
  for_each_run(qk, qn, [&](const LeafRun& run) {
    const uint8_t* lp = leaf_ptr(run.leaf);
    const key_type h = Leaf::head(lp);
    auto hit = [&](uint64_t q) {
      detail::set_query_bit(bits, bit_base + start + q);
    };
    // Single-query run: identical work to has() — head compare, then one
    // leaf search, no merge-join bookkeeping.
    if (run.end - run.begin == 1) {
      const key_type k = qk[run.begin];
      if (k == h) {
        hit(run.begin);
      } else if (h != 0 && k > h && Leaf::contains(lp, leaf_bytes_, k)) {
        hit(run.begin);
      }
      return;
    }
    uint64_t q = run.begin;
    // Queries below the head (possible only at leaf 0) are misses; an empty
    // leaf (h == 0, also only leaf 0 after routing) answers all-miss.
    while (q < run.end && qk[q] < h) ++q;
    if (h == 0 || q >= run.end) return;
    // One streaming pass; both sides ascend, so this is a merge-join. The
    // head is the first key the pass emits, so exact-head queries resolve
    // before any delta decoding.
    Leaf::map(lp, leaf_bytes_, [&](key_type k) {
      while (q < run.end && qk[q] < k) ++q;
      while (q < run.end && qk[q] == k) {
        hit(q);
        ++q;
      }
      return q < run.end;
    });
  });
}

template <typename Leaf>
void PackedMemoryArray<Leaf>::successor_batch(const key_type* keys, uint64_t n,
                                              key_type* out, uint64_t* found,
                                              uint64_t bit_base) const {
  if (n == 0) return;
  // Zero queries: successor(0) is 0 when the sentinel is set, else the
  // global minimum nonzero key — the first nonzero head-index entry.
  uint64_t start = 0;
  if (keys[0] == 0) {
    std::optional<key_type> zero_succ;
    if (has_zero_) {
      zero_succ = key_type{0};
    } else {
      const uint64_t first = first_head_above(0, key_type{0});
      if (first < num_leaves_) zero_succ = head_index_[first];
    }
    while (start < n && keys[start] == 0) {
      if (zero_succ) {
        out[start] = *zero_succ;
        detail::set_query_bit(found, bit_base + start);
      }
      ++start;
    }
    if (start == n) return;
  }
  const key_type* qk = keys + start;
  const uint64_t qn = n - start;
  for_each_run(qk, qn, [&](const LeafRun& run) {
    const uint8_t* lp = leaf_ptr(run.leaf);
    const key_type h = Leaf::head(lp);
    auto answer = [&](uint64_t q, key_type v) {
      out[start + q] = v;
      detail::set_query_bit(found, bit_base + start + q);
    };
    // Queries past the leaf's last key all share one answer: the next
    // nonempty leaf's head (the next stored key).
    auto spill = [&](uint64_t q) {
      if (q >= run.end) return;
      const uint64_t nh = next_head(run.leaf);
      if (nh >= num_leaves_) return;  // no successor exists
      for (; q < run.end; ++q) answer(q, head_index_[nh]);
    };
    // Single-query run: identical work to successor().
    if (run.end - run.begin == 1) {
      const key_type k = qk[run.begin];
      if (h != 0 && k <= h) {
        answer(run.begin, h);
      } else if (auto v = Leaf::lower_bound(lp, leaf_bytes_, k)) {
        answer(run.begin, *v);
      } else {
        spill(run.begin);
      }
      return;
    }
    uint64_t q = run.begin;
    if (h == 0) {  // empty leaf 0: everything spills to the first real key
      spill(q);
      return;
    }
    Leaf::map(lp, leaf_bytes_, [&](key_type k) {
      while (q < run.end && qk[q] <= k) {
        answer(q, k);
        ++q;
      }
      return q < run.end;
    });
    spill(q);  // queries above the leaf's last key
  });
}

template <typename Leaf>
template <typename F>
void PackedMemoryArray<Leaf>::map_ranges(
    const std::pair<key_type, key_type>* ranges, uint64_t m, F&& f) const {
  if (m == 0) return;
  // Key 0: only the first range can contain it (sorted + disjoint).
  if (ranges[0].first == 0 && ranges[0].second > 0 && has_zero_) {
    f(uint64_t{0}, key_type{0});
  }
  // Serial gallop over the (sorted) range starts: the start leaf of range i
  // is at or after the start leaf of range i - 1.
  util::uvector<uint64_t> sl(m);
  sl[0] = find_leaf(std::max<key_type>(ranges[0].first, 1));
  for (uint64_t i = 1; i < m; ++i) {
    sl[i] = find_leaf_from(sl[i - 1], std::max<key_type>(ranges[i].first, 1));
  }
  // Group consecutive ranges sharing a start leaf; each group walks leaves
  // from its start, decoding each leaf once for all its ranges. (A range
  // tail crossing into another group's start leaf re-decodes that one leaf;
  // disjointness keeps the emitted keys exact.)
  std::vector<std::pair<uint64_t, uint64_t>> groups;  // [begin, end) ranges
  for (uint64_t i = 0; i < m;) {
    uint64_t j = i + 1;
    while (j < m && sl[j] == sl[i]) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  par::parallel_for(0, groups.size(), [&](uint64_t g) {
    auto [gb, ge] = groups[g];
    uint64_t ri = gb;
    uint64_t l = sl[gb];
    while (ri < ge && l < num_leaves_) {
      Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
        while (ri < ge && k >= ranges[ri].second) ++ri;
        if (ri >= ge) return false;
        if (k >= ranges[ri].first) f(ri, k);
        return true;
      });
      if (ri >= ge) break;
      // Jump over leaves that cannot contain the next needed key; mid-range
      // (start already passed) this degenerates to l + 1.
      l = std::max(find_leaf(std::max<key_type>(ranges[ri].first, 1)), l + 1);
    }
  }, 1);
}

// ---------------------------------------------------------------------------
// Invariant checking (tests).
// ---------------------------------------------------------------------------

template <typename Leaf>
bool PackedMemoryArray<Leaf>::check_invariants(std::string* err) const {
  auto fail = [&](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  if (data_.size() != num_leaves_ * leaf_bytes_) {
    return fail("data size mismatch");
  }
  if (head_index_.size() != num_leaves_) return fail("index size mismatch");
  uint64_t total = 0;
  key_type prev = 0;
  key_type inherited = 0;
  for (uint64_t l = 0; l < num_leaves_; ++l) {
    const uint8_t* lp = leaf_ptr(l);
    uint64_t used = Leaf::used_bytes(lp, leaf_bytes_);
    if (used > leaf_bytes_ - kLeafSlack) {
      return fail("leaf " + std::to_string(l) + " exceeds slack bound");
    }
    key_type h = Leaf::head(lp);
    if (h != 0) inherited = h;
    if (head_index_[l] != inherited) {
      return fail("head index wrong at leaf " + std::to_string(l));
    }
    bool ok = true;
    key_type last_in_leaf = prev;
    uint64_t in_leaf = 0;
    Leaf::map(lp, leaf_bytes_, [&](key_type k) {
      if (k == 0 || (total + in_leaf > 0 && k <= last_in_leaf)) ok = false;
      last_in_leaf = k;
      ++in_leaf;
      return true;
    });
    if (!ok) {
      return fail("ordering violated in leaf " + std::to_string(l));
    }
    if (in_leaf > 0) prev = last_in_leaf;
    total += in_leaf;
  }
  if (total != count_) {
    return fail("count mismatch: stored " + std::to_string(total) +
                " vs count_ " + std::to_string(count_));
  }
  // The Eytzinger mirror must agree with the flat index entry-for-entry —
  // both the keys and the folded run-first mapping — so every maintenance
  // path (point repair, batch repair, rebuild) is checked by every test
  // that calls check_invariants.
  if (eytz_.size() != num_leaves_) {
    return fail("eytzinger mirror size mismatch");
  }
  uint64_t run_first = 0;
  for (uint64_t l = 0; l < num_leaves_; ++l) {
    if (l > 0 && head_index_[l] != head_index_[l - 1]) run_first = l;
    if (eytz_.key_at(l) != head_index_[l]) {
      return fail("eytzinger key mismatch at leaf " + std::to_string(l));
    }
    if (eytz_.run_first_at(l) != run_first) {
      return fail("eytzinger run-first mismatch at leaf " + std::to_string(l));
    }
  }
  return true;
}

}  // namespace cpma::pma
