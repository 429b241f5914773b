// Immutable per-shard snapshot views and their epoch-reclaimed holder.
//
// A SnapshotView is one consistent, immutable picture of a ShardedPMA: the
// splitter vector plus one engine snapshot per shard. Shard snapshots are
// whole engine copies held by shared_ptr — copy-on-write at shard
// granularity: when the writer publishes a new view it copies only the
// shards whose version advanced and SHARES the untouched shards' engines
// with the previous view (PaC-tree style functional snapshots, with whole
// pointer-free engines as the shared chunks). Only the writer ever touches
// the shared_ptr control blocks; readers receive a raw `const View*` under
// an epoch pin and navigate raw `const Engine*`s, so the read path is
// refcount-free.
//
// The view inherits the full read API of the sharded structure — point
// reads, scans, batch queries, iteration and the flattened-leaf surface —
// from the same ShardedReads mixin as ShardedPMA (pma/sharded_reads.hpp).
// Because the view never mutates, any number of reader threads may run
// those reads concurrently on one pinned snapshot, and flat positions stay
// valid for the life of the epoch pin.
//
// SnapshotHolder owns the single atomic current-view pointer plus the
// retired list: publish() swaps in a new view, stamps the old one with the
// post-advance epoch, and reclaims every retired view no pinned reader can
// still reference (see serve/epoch.hpp for the safety argument).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "pma/sharded_reads.hpp"
#include "serve/epoch.hpp"

namespace cpma::serve {

template <typename Engine>
class SnapshotView
    : public pma::ShardedReads<SnapshotView<Engine>, Engine> {
 public:
  using key_type = uint64_t;
  using engine_type = Engine;

  // publish_seq / publish_time_ns identify WHICH published view a reader is
  // pinned to and WHEN it was cut (writer's steady clock): the streaming
  // graph layer reports snapshot age/staleness from them. Both default to 0
  // for directly-constructed views in tests.
  SnapshotView(std::vector<key_type> splitters,
               std::vector<std::shared_ptr<const Engine>> shards,
               uint64_t publish_seq = 0, uint64_t publish_time_ns = 0)
      : splitters_(std::move(splitters)), shards_(std::move(shards)),
        publish_seq_(publish_seq), publish_time_ns_(publish_time_ns) {}

  uint64_t num_shards() const { return shards_.size(); }
  const Engine& shard(uint64_t s) const { return *shards_[s]; }
  const std::vector<key_type>& splitters() const { return splitters_; }
  const std::shared_ptr<const Engine>& shard_ref(uint64_t s) const {
    return shards_[s];
  }
  uint64_t publish_seq() const { return publish_seq_; }
  uint64_t publish_time_ns() const { return publish_time_ns_; }

 private:
  std::vector<key_type> splitters_;
  std::vector<std::shared_ptr<const Engine>> shards_;
  uint64_t publish_seq_ = 0;
  uint64_t publish_time_ns_ = 0;
};

// Writer-owned view holder: one atomic current pointer, writer-only retired
// list. All methods except acquire() must be called from the (single)
// writer; acquire() is safe from any thread holding an epoch pin.
template <typename View>
class SnapshotHolder {
 public:
  SnapshotHolder() = default;
  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  ~SnapshotHolder() {
    delete current_.load(std::memory_order_acquire);
    for (const Retired& r : retired_) delete r.view;
  }

  // Reader side: the current view. Caller must hold an EpochManager pin
  // taken BEFORE this load and keep it for as long as the pointer is used.
  const View* acquire() const {
    return current_.load(std::memory_order_seq_cst);
  }

  // Writer side: swap in `next`, retire the previous view stamped with the
  // post-advance epoch, then reclaim whatever became safe.
  void publish(std::unique_ptr<const View> next, EpochManager& epochs) {
    const View* old = current_.exchange(next.release(),
                                        std::memory_order_seq_cst);
    if (old != nullptr) retired_.push_back({old, epochs.advance()});
    collect(epochs);
  }

  // Frees every retired view with stamp <= min_active. Called by publish;
  // also callable directly so an idle writer can drain the list.
  void collect(EpochManager& epochs) {
    if (retired_.empty()) return;
    const uint64_t safe = epochs.min_active();
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->epoch <= safe) {
        delete it->view;
        ++reclaimed_;
      } else {
        *keep++ = *it;
      }
    }
    retired_.erase(keep, retired_.end());
  }

  uint64_t retired_count() const { return retired_.size(); }
  uint64_t reclaimed_count() const { return reclaimed_; }

 private:
  struct Retired {
    const View* view;
    uint64_t epoch;  // reclaimable once min_active() >= epoch
  };

  std::atomic<const View*> current_{nullptr};
  std::vector<Retired> retired_;
  uint64_t reclaimed_ = 0;
};

}  // namespace cpma::serve
