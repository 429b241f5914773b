// DurablePMA<Engine> — the serving layer with a disk underneath it:
// write-ahead logging before every apply, background checkpoints from
// epoch-pinned snapshots, and crash recovery to the last durable point.
//
//   client ops ──► ServingPMA (flat-combining queues, bounded)
//                     │ before_apply (WriteObserver, under the writer lock)
//                     ▼
//                  WalWriter per shard ──► wal-s*-c*-p*.log
//                     │ apply
//                     ▼
//                  ShardedPMA ──► SnapshotView ──► ckpt-<seq>.cpma
//
// WAL-BEFORE-APPLY: the serving layer's WriteObserver hook fires under the
// writer lock before each run of ops touches the store. The hook assigns
// the run a GLOBAL lsn, frames it into the owning shard's WAL segment, and
// applies the fsync policy. If the log cannot take the record (I/O error
// twice, even after rotating to a fresh segment) the apply is VETOED — an
// unlogged write never becomes visible, so recovery can never be missing
// state that readers once saw. LSNs are only consumed by records that
// reached the file: a failed append retries the SAME lsn on a fresh
// segment, keeping the lsn sequence gap-free on disk (a gap is how replay
// detects loss, so the writer must never create one deliberately).
//
// CHECKPOINT CUT (checkpoint()/checkpoint_async()): under flush_with —
// queues drained, snapshot published, writer lock held — the WAL is
// fsynced, cut_lsn = last assigned lsn is recorded, the snapshot is
// pinned, and every shard's WAL rotates to segments tagged with the new
// checkpoint seq. The lock is then released and the checkpoint body
// (delta-varint per shard, crc'd, tmp+rename — see checkpoint.hpp) writes
// out-of-line, possibly on a background thread, while ingest continues.
// On success, segments and checkpoints of older generations are pruned:
// every record in a cseq < N segment has lsn <= cut_lsn(N) (rotation
// happened inside the cut's critical section), so checkpoint N subsumes
// them.
//
// RECOVERY (constructor): delete *.tmp orphans; probe checkpoints newest-
// first until one passes full validation (header crc, body crcs,
// structural decode) — corrupt ones are counted and skipped, falling back
// as far as the empty store. Restore it via build_from_sorted (parallel
// per shard). Scan EVERY surviving WAL segment tolerantly (crc per record,
// magic resync after corruption, torn final records expected), merge the
// records by lsn — duplicates resolve to the newest (cseq, part), which
// wins over stale pre-recovery segments — and replay the longest
// CONTIGUOUS lsn run above cut_lsn through the sharded router. Records
// beyond the first gap are from a future the store never acknowledged;
// they are counted, not applied. Then write a FRESH checkpoint at the
// recovered state and prune, so stale segments cannot leak reused lsns
// into a later recovery. The full accounting lands in RecoveryReport. A
// directory that cannot be created or listed is not treated as empty: the
// error lands in RecoveryReport::dir_error and the store opens read-only.
//
// ACK SEMANTICS: insert()/remove() returning true means ADMITTED, not
// durable. Durability is a watermark: durable_lsn() advances when the
// fsync policy syncs (kAlways: every record; kInterval: by bytes/time;
// explicit sync_wal(): now). After a crash, the recovered state is
// guaranteed to contain every record with lsn <= the durable watermark —
// the chaos suite's core assertion.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durable/checkpoint.hpp"
#include "durable/io.hpp"
#include "durable/wal.hpp"
#include "serve/serving.hpp"

namespace cpma::durable {

inline FsyncPolicy fsync_policy_from_env(FsyncPolicy fallback) {
  const char* v = std::getenv("CPMA_WAL_FSYNC");
  if (v == nullptr) return fallback;
  if (std::strcmp(v, "always") == 0) return FsyncPolicy::kAlways;
  if (std::strcmp(v, "interval") == 0) return FsyncPolicy::kInterval;
  if (std::strcmp(v, "never") == 0) return FsyncPolicy::kNever;
  return fallback;
}

struct DurableSettings {
  serve::ServingSettings serving;
  WalSettings wal = {
      fsync_policy_from_env(FsyncPolicy::kInterval),
      util::env_u64("CPMA_WAL_INTERVAL_BYTES", 1u << 20),
      util::env_u64("CPMA_WAL_INTERVAL_NS", 50'000'000),
  };
};

struct RecoveryReport {
  bool recovered_checkpoint = false;
  uint64_t checkpoint_seq = 0;   // seq of the checkpoint restored (0 = none)
  uint64_t checkpoint_keys = 0;  // keys loaded from it
  uint64_t checkpoints_ignored = 0;  // corrupt/unreadable checkpoints skipped
  uint64_t cut_lsn = 0;              // replay started above this
  uint64_t last_lsn = 0;             // highest lsn replayed
  uint64_t records_replayed = 0;
  uint64_t keys_replayed = 0;
  uint64_t records_dropped = 0;  // intact but beyond the first lsn gap
  uint64_t records_stale = 0;    // lsn <= cut or superseded duplicates
  uint64_t records_skipped = 0;  // failed crc / framing, resynced past
  uint64_t torn_tails = 0;       // segments ending in an incomplete record
  uint64_t bytes_scanned = 0;
  uint64_t segments_scanned = 0;
  // Set when the directory could not be created or listed. An unlistable
  // directory may hold a populated store, so the store opens empty and
  // read-only: no fresh checkpoint, no prune, every write and checkpoint
  // refused until a reopen lists the directory.
  io::Status dir_error;
};

struct DurableStats {
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_append_errors = 0;  // failed appends (including retries)
  uint64_t wal_vetoes = 0;         // applies refused because logging failed
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t checkpoint_bytes = 0;  // last checkpoint's file size
};

// Engine-portable body marker for the checkpoint header's codec field: the
// delta-varint stream restores into any engine (see checkpoint.hpp).
inline constexpr uint32_t kCodecTagPortable = 0x54524f50u;  // "PORT"

template <typename Engine>
class DurablePMA : private serve::WriteObserver {
 public:
  using key_type = uint64_t;
  using engine_type = Engine;
  using Serving = serve::ServingPMA<Engine>;
  using View = typename Serving::View;
  using Snapshot = typename Serving::Snapshot;

  // Opens (and recovers) the store rooted at `dir` inside `vfs`. Both must
  // outlive the object. Recovery accounting lands in recovery_report().
  DurablePMA(io::Vfs& vfs, std::string dir, DurableSettings settings = {})
      : vfs_(vfs), dir_(std::move(dir)), settings_(settings) {
    recover();
  }

  ~DurablePMA() override {
    // Join an in-flight background checkpoint; deliberately NO flush, NO
    // final sync — destruction is indistinguishable from a crash, which is
    // exactly what the recovery tests rely on. Call checkpoint() or
    // sync_wal() first for a clean shutdown.
    join_checkpoint_thread();
  }
  DurablePMA(const DurablePMA&) = delete;
  DurablePMA& operator=(const DurablePMA&) = delete;

  // ---- serving passthroughs ----------------------------------------------

  Serving& serving() { return *serving_; }
  const Serving& serving() const { return *serving_; }

  bool insert(key_type key) { return serving_->insert(key); }
  bool remove(key_type key) { return serving_->remove(key); }
  bool has(key_type key) const { return serving_->has(key); }
  uint64_t size() const { return serving_->size(); }
  typename Serving::Snapshot snapshot() const { return serving_->snapshot(); }

  uint64_t insert_batch(std::vector<key_type> batch) {
    return serving_->insert_batch(std::move(batch));
  }
  uint64_t remove_batch(std::vector<key_type> batch) {
    return serving_->remove_batch(std::move(batch));
  }

  // ---- durability control -------------------------------------------------

  // Drains the ingest queues (logging each run) and fsyncs every WAL
  // segment: on OK return, every op admitted before the call is durable.
  io::Status sync_wal() {
    io::Status st;
    serving_->flush_with([&] { st = sync_wals_locked(); });
    return st;
  }

  // Synchronous checkpoint: cut under the writer lock, body written on the
  // calling thread. Fails (leaving the previous checkpoint + WAL intact)
  // if another checkpoint is in flight or any I/O step errors.
  io::Status checkpoint() {
    Cut cut;
    io::Status st = begin_checkpoint(&cut);
    if (!st.ok()) return st;
    return finish_checkpoint(std::move(cut));
  }

  // Checkpoint with the body written on a background thread so ingest never
  // stalls past the cut itself. Errors surface via last_checkpoint_status()
  // and stats().checkpoint_failures.
  io::Status checkpoint_async() {
    Cut cut;
    io::Status st = begin_checkpoint(&cut);
    if (!st.ok()) return st;
    join_checkpoint_thread();
    ckpt_thread_ = std::thread([this, cut = std::move(cut)]() mutable {
      finish_checkpoint(std::move(cut));
    });
    return io::Status::good();
  }

  // Blocks until a checkpoint_async() body (if any) has finished.
  void wait_checkpoint() { join_checkpoint_thread(); }

  // ---- introspection ------------------------------------------------------

  const RecoveryReport& recovery_report() const { return report_; }
  DurableStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }
  io::Status last_checkpoint_status() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return last_ckpt_status_;
  }
  // Every record with lsn <= this survives any crash (fsync'd).
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  // Highest lsn assigned to a logged record.
  uint64_t last_lsn() const {
    return last_lsn_pub_.load(std::memory_order_acquire);
  }
  uint64_t checkpoint_seq() const { return ckpt_seq_; }

 private:
  // ---- WriteObserver: WAL-before-apply (writer lock held) -----------------

  bool before_apply(const uint64_t* keys, uint64_t n,
                    bool is_insert) override {
    if (!report_.dir_error.ok()) return veto(n);
    const uint64_t lsn = next_lsn_;
    const uint64_t shard = serving_->store().shard_for(keys[0]);
    WalWriter& w = wals_[shard];
    bool durable = false;
    io::Status st;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (w.poisoned() || attempt > 0) {
        // The current segment tail is untrusted; abandon it for a fresh
        // part so this record (same lsn) frames cleanly.
        if (!w.rotate(ckpt_seq_).ok()) break;
        w.clear_poisoned();
      }
      st = w.append(is_insert ? 0 : 1, lsn, keys,
                    static_cast<uint32_t>(n), &durable);
      if (st.ok()) break;
      note_append_error();
    }
    if (!st.ok() || w.poisoned()) {
      // Could not get the record onto disk: refuse the apply. The lsn was
      // never consumed by a durable record, so the on-disk sequence stays
      // gap-free and the next run reuses it.
      return veto(n);
    }
    next_lsn_ = lsn + 1;
    last_lsn_pub_.store(lsn, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.wal_records;
      stats_.wal_bytes += kWalHeaderBytes + 13 + 8 * n;
    }
    if (durable) {
      // THIS shard's segment synced through lsn — but the global watermark
      // is only as high as the oldest record still unsynced in ANY shard's
      // segment (records route by key, so lower lsns can sit in other
      // files).
      uint64_t mark = lsn;
      for (const WalWriter& other : wals_) {
        const uint64_t fu = other.first_unsynced_lsn();
        if (fu != 0 && fu - 1 < mark) mark = fu - 1;
      }
      if (mark > durable_lsn_.load(std::memory_order_relaxed)) {
        durable_lsn_.store(mark, std::memory_order_release);
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.wal_syncs;
    }
    return true;
  }

  bool veto(uint64_t n) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.wal_vetoes += n;
    return false;
  }

  void note_append_error() {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.wal_append_errors;
  }

  // Writer lock held. Syncs every segment; the watermark only advances if
  // ALL syncs succeed (records route to shards, so a lagging shard bounds
  // the global guarantee).
  io::Status sync_wals_locked() {
    io::Status first_err;
    for (WalWriter& w : wals_) {
      io::Status st = w.sync();
      if (!st.ok() && first_err.ok()) first_err = st;
    }
    if (first_err.ok() && next_lsn_ > 1) {
      durable_lsn_.store(next_lsn_ - 1, std::memory_order_release);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.wal_syncs;
    }
    return first_err;
  }

  // ---- checkpointing ------------------------------------------------------

  struct Cut {
    // A free-standing copy of the published view: splitters + the shards'
    // shared_ptrs. NOT an epoch-pinned Snapshot — the body may be written
    // on a background thread, and epoch guards must be released on the
    // thread that created them; shared ownership has no such affinity and
    // keeps the engines alive just as well.
    std::optional<serve::SnapshotView<Engine>> view;
    std::vector<uint64_t> versions;
    uint64_t seq = 0;
    uint64_t cut_lsn = 0;
  };

  io::Status begin_checkpoint(Cut* cut) {
    if (!report_.dir_error.ok()) return report_.dir_error;
    bool expected = false;
    if (!ckpt_inflight_.compare_exchange_strong(expected, true)) {
      return io::Status::error("checkpoint already in flight");
    }
    io::Status st;
    serving_->flush_with([&] {
      // Barrier: the checkpoint claims cut_lsn, so every record at or
      // below it must already be durable when old segments get pruned.
      st = sync_wals_locked();
      if (!st.ok()) return;
      cut->seq = ckpt_seq_ + 1;
      cut->cut_lsn = next_lsn_ - 1;
      // Pin briefly (this thread) and copy the view — its shard refs are
      // safe to copy: we hold the writer lock, the only mutator of the
      // control blocks. The pin drops at the end of the statement.
      cut->view.emplace(serving_->snapshot().view());
      cut->versions.resize(wals_.size());
      for (uint64_t s = 0; s < wals_.size(); ++s) {
        cut->versions[s] = serving_->store().shard_version(s);
      }
      // Rotate INSIDE the cut: every later record (lsn > cut_lsn) lands in
      // a cseq == seq segment, which is what makes pruning cseq < seq
      // lossless.
      for (WalWriter& w : wals_) {
        io::Status rst = w.rotate(cut->seq);
        if (!rst.ok() && st.ok()) st = rst;
        w.clear_poisoned();
      }
      if (st.ok()) ckpt_seq_ = cut->seq;
    });
    if (!st.ok()) ckpt_inflight_.store(false, std::memory_order_release);
    return st;
  }

  io::Status finish_checkpoint(Cut cut) {
    io::Status st =
        commit_checkpoint(cut.seq, cut.cut_lsn, *cut.view, cut.versions);
    cut.view.reset();  // release the shared engine refs promptly
    ckpt_inflight_.store(false, std::memory_order_release);
    return st;
  }

  // Writes checkpoint `seq` of `view`, records the outcome in the stats,
  // and on success prunes the generations it subsumes. The one path every
  // checkpoint body (cut or post-recovery) goes through.
  io::Status commit_checkpoint(uint64_t seq, uint64_t cut_lsn,
                               const serve::SnapshotView<Engine>& view,
                               const std::vector<uint64_t>& versions) {
    uint64_t bytes = 0;
    io::Status st = write_checkpoint(vfs_, dir_, seq, cut_lsn,
                                     kCodecTagPortable, view, versions,
                                     &bytes);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      last_ckpt_status_ = st;
      if (st.ok()) {
        ++stats_.checkpoints_written;
        stats_.checkpoint_bytes = bytes;
      } else {
        ++stats_.checkpoint_failures;
      }
    }
    if (st.ok()) prune_below(seq);
    return st;
  }

  // Removes checkpoints with seq < keep_seq and WAL segments with
  // cseq < keep_seq. Best-effort: a leftover file only costs scan time at
  // the next recovery (stale records lose lsn-duplicate arbitration and
  // land below the fresh checkpoint's cut).
  void prune_below(uint64_t keep_seq) {
    std::vector<std::string> names;
    if (!vfs_.list(dir_, names).ok()) return;
    for (const std::string& name : names) {
      uint64_t seq;
      WalName wn;
      if (parse_ckpt_name(name, &seq) && seq < keep_seq) {
        vfs_.remove(dir_ + "/" + name);
      } else if (parse_wal_name(name, &wn) && wn.cseq < keep_seq) {
        vfs_.remove(dir_ + "/" + name);
      }
    }
    vfs_.sync_dir(dir_);
  }

  void join_checkpoint_thread() {
    if (ckpt_thread_.joinable()) ckpt_thread_.join();
  }

  // ---- recovery -----------------------------------------------------------

  void recover() {
    std::vector<std::string> names;
    report_.dir_error = vfs_.mkdir(dir_);
    if (report_.dir_error.ok()) report_.dir_error = vfs_.list(dir_, names);
    if (!report_.dir_error.ok()) names.clear();

    // Orphaned tmp files are uncommitted checkpoints: delete.
    for (const std::string& name : names) {
      if (name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".tmp") == 0) {
        vfs_.remove(dir_ + "/" + name);
      }
    }

    // Newest intact checkpoint wins; corrupt ones are skipped, not fatal.
    std::vector<uint64_t> ckpt_seqs;
    for (const std::string& name : names) {
      uint64_t seq;
      if (parse_ckpt_name(name, &seq)) ckpt_seqs.push_back(seq);
    }
    std::sort(ckpt_seqs.rbegin(), ckpt_seqs.rend());
    CheckpointInfo info;
    std::vector<std::vector<uint64_t>> shard_keys;
    bool have_ckpt = false;
    for (uint64_t seq : ckpt_seqs) {
      if (load_checkpoint(vfs_, dir_ + "/" + ckpt_name(seq), &info,
                          &shard_keys)
              .ok()) {
        have_ckpt = true;
        break;
      }
      ++report_.checkpoints_ignored;
    }

    // Build the store: the checkpoint dictates the shard layout; without
    // one, settings decide (fresh start).
    pma::ShardedSettings sharded = settings_.serving.sharded;
    if (have_ckpt) sharded.num_shards = info.shard_counts.size();
    pma::ShardedPMA<Engine> store(sharded);
    if (have_ckpt) {
      store.restore_from_checkpoint(info.splitters, [&](uint64_t s) {
        return std::move(shard_keys[s]);
      });
      report_.recovered_checkpoint = true;
      report_.checkpoint_seq = info.seq;
      report_.checkpoint_keys = info.total_keys;
      report_.cut_lsn = info.cut_lsn;
    }

    // Scan every surviving segment (old generations included: pruning may
    // not have finished) and merge by lsn.
    std::vector<WalRecord> records;
    uint64_t max_part = 0;
    uint64_t max_cseq = 0;
    for (const std::string& name : names) {
      WalName wn;
      if (!parse_wal_name(name, &wn)) continue;
      max_cseq = std::max(max_cseq, wn.cseq);
      const size_t before = records.size();
      WalScanStats st = scan_wal_file(vfs_, dir_ + "/" + name, records);
      for (size_t i = before; i < records.size(); ++i) {
        records[i].cseq = wn.cseq;
        records[i].part = wn.part;
      }
      report_.records_skipped += st.corrupt_skipped;
      report_.torn_tails += st.torn_tails;
      report_.bytes_scanned += st.bytes_scanned;
      ++report_.segments_scanned;
      max_part = std::max(max_part, wn.part);
    }

    // Duplicate lsns (stale segments from before an earlier recovery)
    // resolve to the newest provenance; then replay the contiguous run.
    std::sort(records.begin(), records.end(),
              [](const WalRecord& a, const WalRecord& b) {
                if (a.lsn != b.lsn) return a.lsn < b.lsn;
                if (a.cseq != b.cseq) return a.cseq < b.cseq;
                return a.part < b.part;
              });
    uint64_t expect = report_.cut_lsn + 1;
    report_.last_lsn = report_.cut_lsn;
    for (size_t i = 0; i < records.size(); ++i) {
      if (i + 1 < records.size() && records[i + 1].lsn == records[i].lsn) {
        ++report_.records_stale;  // superseded duplicate
        continue;
      }
      WalRecord& rec = records[i];
      if (rec.lsn < expect) {
        ++report_.records_stale;  // at/below the checkpoint cut
        continue;
      }
      if (rec.lsn > expect) {
        // Gap: a record in the middle was lost. Everything from here on
        // was never acknowledged below the durable watermark — drop it.
        report_.records_dropped += records.size() - i;
        break;
      }
      if (rec.is_insert) {
        store.insert_batch(rec.keys.data(), rec.keys.size());
      } else {
        store.remove_batch(rec.keys.data(), rec.keys.size());
      }
      ++report_.records_replayed;
      report_.keys_replayed += rec.keys.size();
      report_.last_lsn = rec.lsn;
      expect = rec.lsn + 1;
    }

    next_lsn_ = report_.last_lsn + 1;
    last_lsn_pub_.store(report_.last_lsn, std::memory_order_release);
    ckpt_seq_ = have_ckpt ? info.seq : 0;

    // Hand the restored store to the serving layer and hook the WAL in.
    serving_.emplace(std::move(store), settings_.serving);
    const uint64_t shards = serving_->store().num_shards();
    wals_.reserve(shards);
    for (uint64_t s = 0; s < shards; ++s) {
      wals_.emplace_back(vfs_, dir_, s, settings_.wal);
      wals_[s].seed_part(max_part);
    }

    // Re-checkpoint the recovered state under a fresh seq, then prune: the
    // replayed records' lsns are about to be REUSED by new writes, and a
    // stale segment still holding the old lsns must not survive to
    // ambiguate a future recovery. (On a fresh dir this just writes an
    // empty checkpoint — cheap, and it anchors lsn arbitration from the
    // first byte.) Failure is tolerated: the store still serves; the next
    // successful checkpoint cleans up. The fresh seq clears BOTH the
    // newest checkpoint and the newest WAL generation (a cut whose body
    // never committed leaves cseq > every checkpoint seq). Then open the
    // live segments. A directory that could not be listed gets neither: a
    // checkpoint or segment written from its unknown state would shadow
    // or prune the real one.
    if (report_.dir_error.ok()) {
      const uint64_t fresh_seq =
          std::max(ckpt_seqs.empty() ? 0 : ckpt_seqs.front(), max_cseq) + 1;
      std::vector<uint64_t> versions(shards);
      for (uint64_t s = 0; s < shards; ++s) {
        versions[s] = serving_->store().shard_version(s);
      }
      typename Serving::Snapshot snap = serving_->snapshot();
      if (commit_checkpoint(fresh_seq, report_.last_lsn, snap.view(),
                            versions)
              .ok()) {
        ckpt_seq_ = fresh_seq;
      }
      for (WalWriter& w : wals_) w.rotate(ckpt_seq_);
    }

    // Arm the WAL-before-apply hook (it vetoes everything on dir_error).
    durable_lsn_.store(report_.last_lsn, std::memory_order_release);
    serving_->set_write_observer(this);
  }

  io::Vfs& vfs_;
  std::string dir_;
  DurableSettings settings_;
  RecoveryReport report_;

  std::vector<WalWriter> wals_;  // one per shard, writer-lock protected
  uint64_t next_lsn_ = 1;        // writer-lock protected
  uint64_t ckpt_seq_ = 0;        // writer-lock protected (cuts only)
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> last_lsn_pub_{0};

  std::atomic<bool> ckpt_inflight_{false};
  std::thread ckpt_thread_;
  mutable std::mutex stats_mutex_;
  DurableStats stats_;
  io::Status last_ckpt_status_;

  // Last so it is destroyed FIRST: a late combine may still fire the
  // observer, which uses wals_ above.
  std::optional<Serving> serving_;
};

}  // namespace cpma::durable
