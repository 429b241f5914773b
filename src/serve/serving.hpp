// ServingPMA<Engine> — concurrent reads while ingesting, on the sharding
// seam.
//
// Everything below pma/ is phase-based fork-join: a batch runs, then
// queries run. This layer turns the composition into a serving system:
//
//   writer side                       reader side
//   -----------                      -----------
//   ShardedPMA<Engine> store_        epoch-pinned SnapshotView
//   (single writer, full batch       (immutable; raw pointers; never
//    parallelism inside)              blocks, never takes a lock)
//
//  * READS: snapshot() pins the current epoch and returns an accessor over
//    the latest published SnapshotView — the full sharded read API
//    (pma/sharded_reads.hpp: point reads, scans, batch queries, iteration,
//    flattened leaves) against a frozen, consistent picture of the set.
//    The pin keeps the view (and every shard engine it shares) alive
//    across any number of concurrent batch applies, rebalances, and
//    republishes; dropping the guard lets the writer reclaim. Readers
//    NEVER block on the writer: the handoff is one atomic pointer load
//    under two atomic slot stores.
//  * WRITES: a single writer applies batches to store_ under writer_mutex_
//    (the engine pipeline keeps its internal fork-join parallelism), then
//    publishes a fresh view. Publishing is copy-on-write at shard
//    granularity: per-shard version counters (the publish hooks on
//    ShardedPMA) tell the publisher which shard engines changed; unchanged
//    shards are shared with the previous view.
//  * INGEST FRONT END: many client threads call insert()/remove(); ops are
//    routed by the published splitters into per-shard CombiningQueues and
//    applied by a flat combiner — the client whose enqueue crosses
//    combine_batch volunteers (try_lock; never blocks) or an explicit
//    poll()/flush() drains queues past their size/age thresholds. Queue
//    slices go through the sharded batch router, so splitter drift between
//    enqueue-time routing and apply time is harmless (the router re-routes).
//
// Publish cadence ("when do readers see a batch"): flush() is always
// immediate. Otherwise a publish runs after a write when EITHER
//  * publish_eager is set (tests), OR
//  * the accumulated publish cost stays within publish_budget of the
//    accumulated apply cost (self-tuning: snapshotting is bounded to a
//    fixed fraction of ingest work, whatever the machine), OR
//  * the current view is older than max_staleness_ns (hard freshness cap).
// So a reader observes a batch no later than one publish interval after its
// apply; with the defaults that is a few percent of ingest time, capped at
// max_staleness_ns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "pma/sharded.hpp"
#include "serve/combiner.hpp"
#include "serve/epoch.hpp"
#include "serve/snapshot.hpp"
#include "util/env.hpp"

namespace cpma::serve {

// What a client's insert()/remove() does when its shard queue is at
// queue_cap: kBlock waits (bounded by block_deadline_ns, re-volunteering
// as the combiner while it waits) then fails; kReject fails immediately.
// try_insert()/try_remove() always take the reject path.
enum class Admission : uint8_t { kBlock, kReject };

struct ServingSettings {
  // Write-side composition (shard count, rebalance policy, engine bounds).
  pma::ShardedSettings sharded;

  // Flat-combining flush thresholds: a queue is due when it holds this many
  // ops, or when its oldest op is older than max_combine_delay_ns (age
  // flushes happen on the next combiner pass / poll()).
  uint64_t combine_batch = 4096;
  uint64_t max_combine_delay_ns = 2'000'000;  // 2 ms

  // Publish cadence (see file header). Budget is publish-time over
  // apply-time; 0.05 bounds snapshotting to ~5% of ingest work.
  double publish_budget = 0.05;
  uint64_t max_staleness_ns = 100'000'000;  // 100 ms
  // Publish after every write regardless of cost — deterministic visibility
  // for tests and read-mostly workloads.
  bool publish_eager = false;

  // Ingest backpressure: per-shard queue cap (0 = unbounded, the pre-cap
  // behavior) and what a full queue does to the client. The env override
  // lets deployments bound ingest memory without a rebuild.
  uint64_t queue_cap = util::env_u64("CPMA_SERVE_QUEUE_CAP", 0);
  Admission admission = Admission::kBlock;
  uint64_t block_deadline_ns = 100'000'000;  // 100 ms
};

struct ServingStats {
  uint64_t publishes = 0;      // views published
  uint64_t shard_copies = 0;   // shard engines copied across all publishes
  uint64_t combines = 0;       // combiner passes that applied ops
  uint64_t combined_ops = 0;   // ops applied through the combiner
  uint64_t publish_ns = 0;     // total time in publish (copy + swap)
  uint64_t apply_ns = 0;       // total time applying writes to the store
  uint64_t retired_views = 0;  // retired, not yet reclaimed
  uint64_t reclaimed_views = 0;
  uint64_t vetoed_ops = 0;     // ops refused by the write observer (WAL down)
};

// Per-shard ingest front-end counters (serving_stats()): live queue depth
// plus cumulative admission-policy outcomes.
struct ShardQueueStats {
  uint64_t depth = 0;     // ops currently queued
  uint64_t rejected = 0;  // ops turned away (reject policy / deadline)
  uint64_t blocked = 0;   // block events (client waited at the cap)
};

// Called by the serving layer UNDER THE WRITER LOCK immediately before a
// run of same-op keys is applied to the store — the seam the durability
// layer (src/durable/) hangs its WAL on. Returning false vetoes the apply:
// the keys are dropped and counted in ServingStats::vetoed_ops (a WAL that
// cannot log must not let unlogged writes through).
class WriteObserver {
 public:
  virtual ~WriteObserver() = default;
  virtual bool before_apply(const uint64_t* keys, uint64_t n,
                            bool is_insert) = 0;
};

template <typename Engine>
class ServingPMA {
 public:
  using key_type = uint64_t;
  using engine_type = Engine;
  using View = SnapshotView<Engine>;

  explicit ServingPMA(ServingSettings settings = {})
      : settings_(settings), store_(settings.sharded) {
    queues_ = std::vector<CombiningQueue>(store_.num_shards());
    snap_versions_.assign(store_.num_shards(), 0);
    std::lock_guard<std::mutex> lock(writer_mutex_);
    publish_locked(/*forced=*/true);
  }

  // Bulk construction: build the store, then publish the first view.
  ServingPMA(const key_type* start, const key_type* end,
             ServingSettings settings = {})
      : settings_(settings), store_(start, end, settings.sharded) {
    queues_ = std::vector<CombiningQueue>(store_.num_shards());
    snap_versions_.assign(store_.num_shards(), 0);
    std::lock_guard<std::mutex> lock(writer_mutex_);
    publish_locked(/*forced=*/true);
  }

  // Adopt an already-built store (the durability layer restores a
  // ShardedPMA from checkpoint + WAL replay, then starts serving on it).
  // settings.sharded is ignored — the adopted store brings its own.
  explicit ServingPMA(pma::ShardedPMA<Engine>&& store,
                      ServingSettings settings = {})
      : settings_(settings), store_(std::move(store)) {
    queues_ = std::vector<CombiningQueue>(store_.num_shards());
    snap_versions_.assign(store_.num_shards(), 0);
    std::lock_guard<std::mutex> lock(writer_mutex_);
    publish_locked(/*forced=*/true);
  }

  // ---- read side ----------------------------------------------------------

  // An epoch-pinned accessor over one immutable view. Movable; keep it only
  // as long as needed — a held pin delays reclamation of every view
  // published since (bounded memory: one engine copy per dirty shard per
  // retired view).
  class Snapshot : public pma::ShardedReads<Snapshot, Engine> {
   public:
    // The read API (point, scan, batch query and flattened-leaf reads) is
    // inherited from ShardedReads over these accessors into the pinned view.
    uint64_t num_shards() const { return view_->num_shards(); }
    const Engine& shard(uint64_t s) const { return view_->shard(s); }
    const std::vector<key_type>& splitters() const {
      return view_->splitters();
    }
    // Iterators point into the pinned view, not into this movable accessor.
    typename View::const_iterator begin() const { return view_->begin(); }
    typename View::const_iterator end() const { return view_->end(); }
    const View& view() const { return *view_; }

    // Which published view this pin holds, and how stale it is right now
    // (both writer-clock based; seq is monotone across publishes).
    uint64_t publish_seq() const { return view_->publish_seq(); }
    uint64_t age_ns() const {
      return steady_now_ns() - view_->publish_time_ns();
    }

   private:
    friend class ServingPMA;
    Snapshot(EpochManager::Guard guard, const View* view)
        : guard_(std::move(guard)), view_(view) {}
    EpochManager::Guard guard_;
    const View* view_;
  };

  Snapshot snapshot() const {
    // Pin FIRST, then load the pointer — the order the reclamation proof
    // rests on (serve/epoch.hpp).
    EpochManager::Guard guard = epochs_.pin();
    const View* v = holder_.acquire();
    return Snapshot(std::move(guard), v);
  }

  // Pin-per-call conveniences for single point reads.
  bool has(key_type key) const { return snapshot().has(key); }
  std::optional<key_type> successor(key_type key) const {
    return snapshot().successor(key);
  }
  uint64_t size() const { return snapshot().size(); }

  // Pin-per-call batch reads: one pin covers the whole batch, so a client
  // multi-get costs one epoch pin + one routed pass over the view.
  std::vector<uint64_t> has_batch(const key_type* keys, uint64_t n) const {
    return snapshot().has_batch(keys, n);
  }
  void successor_batch(const key_type* keys, uint64_t n, key_type* out,
                       uint64_t* found) const {
    snapshot().successor_batch(keys, n, out, found);
  }

  // ---- ingest front end (any client thread) -------------------------------

  // Returns whether the op was admitted (always true with queue_cap == 0).
  // A false return means the shard queue stayed at the cap through the
  // admission policy — the op was NOT enqueued and will never apply.
  bool insert(key_type key) {
    return enqueue(key, /*is_insert=*/true,
                   settings_.admission == Admission::kBlock);
  }
  bool remove(key_type key) {
    return enqueue(key, /*is_insert=*/false,
                   settings_.admission == Admission::kBlock);
  }

  // Never-blocking admission regardless of the configured policy: a full
  // queue fails immediately.
  bool try_insert(key_type key) {
    return enqueue(key, /*is_insert=*/true, /*allow_block=*/false);
  }
  bool try_remove(key_type key) {
    return enqueue(key, /*is_insert=*/false, /*allow_block=*/false);
  }

  // Combiner tick: drain every queue past its size/age threshold and
  // publish if due. Safe from any thread; blocks on the writer lock (use it
  // from a dedicated combiner/writer thread, not from latency-sensitive
  // clients — clients combine opportunistically via try_lock instead).
  uint64_t poll() {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    return combine_locked(/*force_all=*/false);
  }

  // Drains ALL queued ops and publishes immediately: after flush() returns,
  // every op enqueued before it is visible to new snapshots.
  void flush() {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    combine_locked(/*force_all=*/true);
    publish_locked(/*forced=*/true);
  }

  // flush(), then run `f` while STILL HOLDING the writer lock — so between
  // the forced publish and f's return no write can apply. The durability
  // layer uses this as its checkpoint cut: f pins the just-published
  // snapshot, records the WAL position, and rotates segments, all against
  // one quiescent point. f must not call back into write paths (deadlock)
  // — snapshot()/reads are fine.
  template <typename F>
  void flush_with(F&& f) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    combine_locked(/*force_all=*/true);
    publish_locked(/*forced=*/true);
    f();
  }

  // Installs (or clears, with nullptr) the pre-apply hook. Takes the writer
  // lock so the swap cannot race an in-flight apply.
  void set_write_observer(WriteObserver* observer) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    observer_ = observer;
  }

  // ---- synchronous batch writes (single writer thread) --------------------

  uint64_t insert_batch(key_type* input, uint64_t n, bool sorted = false) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    if (!observe_apply(input, n, /*is_insert=*/true)) return 0;
    detail_timer t;
    uint64_t delta = store_.insert_batch(input, n, sorted);
    stats_.apply_ns += t.lap();
    publish_locked(/*forced=*/false);
    return delta;
  }
  uint64_t insert_batch(std::vector<key_type> batch, bool sorted = false) {
    return insert_batch(batch.data(), batch.size(), sorted);
  }

  uint64_t remove_batch(key_type* input, uint64_t n, bool sorted = false) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    if (!observe_apply(input, n, /*is_insert=*/false)) return 0;
    detail_timer t;
    uint64_t delta = store_.remove_batch(input, n, sorted);
    stats_.apply_ns += t.lap();
    publish_locked(/*forced=*/false);
    return delta;
  }
  uint64_t remove_batch(std::vector<key_type> batch, bool sorted = false) {
    return remove_batch(batch.data(), batch.size(), sorted);
  }

  // ---- introspection (writer side) ----------------------------------------

  // The authoritative write-side structure. Mutating it directly bypasses
  // version tracking ONLY if done outside its public API; the intended use
  // is read-only inspection (phase times, invariants) from the writer.
  const pma::ShardedPMA<Engine>& store() const { return store_; }
  const ServingSettings& settings() const { return settings_; }

  ServingStats stats() const {
    ServingStats s = stats_;
    s.retired_views = holder_.retired_count();
    s.reclaimed_views = holder_.reclaimed_count();
    return s;
  }

  // Per-shard ingest queue counters — the overload observability surface
  // (depth now, ops rejected, block events). Lock-free reads; counters are
  // cumulative since construction.
  std::vector<ShardQueueStats> serving_stats() const {
    std::vector<ShardQueueStats> out(queues_.size());
    for (uint64_t s = 0; s < queues_.size(); ++s) {
      out[s].depth = queues_[s].pending();
      out[s].rejected = queues_[s].rejected();
      out[s].blocked = queues_[s].blocked();
    }
    return out;
  }

 private:
  using detail_timer = pma::detail::PhaseTimer;

  bool enqueue(key_type key, bool is_insert, bool allow_block) {
    // Route against the published splitters (stable under the pin). Drift
    // vs the store's live splitters only costs queue locality — the
    // combiner re-routes through the sharded batch dispatch.
    const uint64_t s = snapshot().shard_for(key);
    const uint64_t cap = settings_.queue_cap;
    uint64_t pending;
    if (cap == 0) {
      pending = queues_[s].push(key, is_insert);
    } else {
      pending = queues_[s].try_push(key, is_insert, cap);
      if (pending == 0 && allow_block) {
        pending = enqueue_blocking(s, key, is_insert, cap);
      }
      if (pending == 0) {
        queues_[s].count_rejected();
        return false;
      }
    }
    if (pending >= settings_.combine_batch) {
      // Volunteer as the combiner — but never wait: a held lock means an
      // active combiner/writer will pick this queue up.
      std::unique_lock<std::mutex> lock(writer_mutex_, std::try_to_lock);
      if (lock.owns_lock()) combine_locked(/*force_all=*/false);
    }
    return true;
  }

  // Block-with-deadline admission: alternate volunteering as the combiner
  // (someone has to drain the queue we are waiting on — if every client
  // just waited, a system with no dedicated combiner thread would
  // deadlock at the cap) with bounded waits on the queue's not-full
  // signal. Returns the post-push pending count, or 0 on deadline.
  uint64_t enqueue_blocking(uint64_t s, key_type key, bool is_insert,
                            uint64_t cap) {
    queues_[s].count_blocked();
    const uint64_t deadline = steady_now_ns() + settings_.block_deadline_ns;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(writer_mutex_, std::try_to_lock);
        if (lock.owns_lock()) combine_locked(/*force_all=*/true);
      }
      uint64_t pending = queues_[s].try_push(key, is_insert, cap);
      if (pending != 0) return pending;
      const uint64_t now = steady_now_ns();
      if (now >= deadline) return 0;
      // Short wait slices keep a combine volunteer in the loop even if the
      // drain notification is missed (e.g. another client refills the
      // queue between drain and our retry).
      queues_[s].wait_below(cap, std::min(now + 1'000'000, deadline));
    }
  }

  // Drains due (or all) queues, applying each slice as FIFO-ordered maximal
  // same-op runs through the sharded batch router. Returns ops applied.
  uint64_t combine_locked(bool force_all) {
    uint64_t applied = 0;
    bool progress = true;
    // Keep sweeping until no queue is due: clients that enqueued while we
    // were applying are served by this pass instead of waiting for the next
    // threshold crossing.
    while (progress) {
      progress = false;
      const uint64_t now = steady_now_ns();
      for (CombiningQueue& q : queues_) {
        if (!force_all && !q.due(settings_.combine_batch,
                                 settings_.max_combine_delay_ns, now)) {
          continue;
        }
        if (q.drain(drain_buf_) == 0) continue;
        progress = true;
        applied += drain_buf_.size();
        detail_timer t;
        uint64_t i = 0, n = drain_buf_.size();
        while (i < n) {
          const bool is_insert = drain_buf_[i].is_insert;
          run_buf_.clear();
          while (i < n && drain_buf_[i].is_insert == is_insert) {
            run_buf_.push_back(drain_buf_[i].key);
            ++i;
          }
          if (!observe_apply(run_buf_.data(), run_buf_.size(), is_insert)) {
            continue;  // vetoed: the run is dropped, counted in vetoed_ops
          }
          if (is_insert) {
            store_.insert_batch(run_buf_.data(), run_buf_.size());
          } else {
            store_.remove_batch(run_buf_.data(), run_buf_.size());
          }
        }
        stats_.apply_ns += t.lap();
      }
    }
    if (applied > 0) {
      ++stats_.combines;
      stats_.combined_ops += applied;
      publish_locked(/*forced=*/false);
    }
    return applied;
  }

  // Pre-apply hook dispatch (writer lock held). No observer -> always OK.
  bool observe_apply(const key_type* keys, uint64_t n, bool is_insert) {
    if (n == 0) return true;
    if (observer_ != nullptr &&
        !observer_->before_apply(keys, n, is_insert)) {
      stats_.vetoed_ops += n;
      return false;
    }
    return true;
  }

  bool publish_due() const {
    if (settings_.publish_eager) return true;
    // Budget rule: total publish time stays within publish_budget of total
    // apply time. The staleness cap overrides a starved budget.
    if (static_cast<double>(stats_.publish_ns) <=
        settings_.publish_budget * static_cast<double>(stats_.apply_ns)) {
      return true;
    }
    return steady_now_ns() - last_publish_ns_ >= settings_.max_staleness_ns;
  }

  void publish_locked(bool forced) {
    if (!forced && !publish_due()) return;
    detail_timer t;
    const View* old = holder_.acquire();
    std::vector<std::shared_ptr<const Engine>> shards(store_.num_shards());
    for (uint64_t s = 0; s < store_.num_shards(); ++s) {
      const uint64_t v = store_.shard_version(s);
      if (old != nullptr && snap_versions_[s] == v) {
        shards[s] = old->shard_ref(s);  // unchanged: share with the old view
      } else {
        shards[s] = std::make_shared<const Engine>(store_.shard(s));
        snap_versions_[s] = v;
        ++stats_.shard_copies;
      }
    }
    holder_.publish(
        std::make_unique<const View>(store_.splitters(), std::move(shards),
                                     stats_.publishes + 1, steady_now_ns()),
        epochs_);
    ++stats_.publishes;
    stats_.publish_ns += t.lap();
    last_publish_ns_ = steady_now_ns();
  }

  ServingSettings settings_;
  pma::ShardedPMA<Engine> store_;   // writer-only
  mutable EpochManager epochs_;     // pin() from reader threads
  SnapshotHolder<View> holder_;     // acquire() from readers, rest writer
  std::mutex writer_mutex_;
  std::vector<CombiningQueue> queues_;    // one per shard
  std::vector<uint64_t> snap_versions_;   // shard versions in current view
  std::vector<CombiningQueue::Op> drain_buf_;  // combiner scratch (writer)
  std::vector<key_type> run_buf_;
  uint64_t last_publish_ns_ = 0;
  ServingStats stats_;
  WriteObserver* observer_ = nullptr;  // written/read under writer_mutex_
};

}  // namespace cpma::serve
