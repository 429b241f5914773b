// Chaos suite: randomized crash-recovery schedules for DurablePMA, typed
// over both engines (PMA / CPMA), differential against a
// std::set oracle.
//
// THE ORACLE. Every write in a schedule is a batch, and every applied
// batch consumes exactly one global LSN, so the store's reachable states
// form a totally ordered sequence of prefixes: at_lsn[L] = the oracle set
// after the batch that consumed LSN L. The durability design guarantees
// that recovery lands EXACTLY on one of these prefixes (checkpoint = the
// state at its cut LSN, plus a contiguous replay of whole batches), and
// RecoveryReport::last_lsn says which one. So after every crash:
//
//   1. at_lsn contains report.last_lsn            (never a mid-batch state)
//   2. recovered contents == at_lsn[last_lsn]     (bit-exact differential)
//   3. last_lsn >= the durable watermark at exit  (no acked-durable loss)
//
// (3) is skipped for schedules that inject SILENT bit flips into
// acknowledged writes — a flipped-but-"successful" append can corrupt a
// record the watermark already covered, which a single-copy WAL cannot
// survive by design; (1) and (2) still must hold (the CRC turns the flip
// into a detected gap, so recovery falls back to an earlier prefix, never
// to garbage).
//
// Schedules randomize: shard count, fsync policy, batch mix (insert /
// remove / sync / sync-or-async checkpoint), kill point, the MemVfs crash
// seed (torn unsynced tails, dropped unsynced dir entries, flipped bits in
// torn regions), and — in the fault schedules — a FaultyVfs plan of write
// errors, short writes, and fsync failures while the store is LIVE.
// CPMA_CHAOS_SEED (set from the CI run id) shifts every schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/env.hpp"
#include "util/random.hpp"

using cpma::durable::DurablePMA;
using cpma::durable::DurableSettings;
using cpma::durable::FsyncPolicy;
using cpma::durable::RecoveryReport;
using cpma::durable::io::FaultPlan;
using cpma::durable::io::FaultyVfs;
using cpma::durable::io::MemVfs;
using cpma::util::Rng;

namespace {

constexpr uint64_t kSchedulesPerEngine = 20;  // x2 suites x3 engines = 120

uint64_t chaos_base_seed() {
  static const uint64_t base = cpma::util::env_u64("CPMA_CHAOS_SEED", 0);
  return base;
}

DurableSettings random_settings(Rng& rng) {
  DurableSettings s;
  s.serving.sharded.num_shards = 1 + rng.next_below(4);
  // Tiny rebalance threshold so splitters actually move mid-schedule —
  // the global-LSN design must survive keys migrating between shard WALs.
  s.serving.sharded.min_rebalance_bytes = 1 << 10;
  s.serving.sharded.rebalance_ratio = 1.5;
  s.serving.publish_eager = true;
  switch (rng.next_below(3)) {
    case 0:
      s.wal.policy = FsyncPolicy::kAlways;
      break;
    case 1:
      s.wal.policy = FsyncPolicy::kInterval;
      s.wal.interval_bytes = 1 + rng.next_below(2048);
      s.wal.interval_ns = UINT64_MAX;  // bytes-driven: deterministic
      break;
    default:
      s.wal.policy = FsyncPolicy::kNever;
      break;
  }
  return s;
}

std::vector<uint64_t> random_batch(Rng& rng, uint64_t key_base) {
  std::vector<uint64_t> batch(1 + rng.next_below(120));
  for (auto& k : batch) {
    // Small universe (plenty of remove hits, duplicate inserts) mixed with
    // occasional huge keys to vary delta widths in the compressed leaves.
    k = rng.next_below(16) == 0
            ? rng.next() | (1ull << 63)
            : key_base + rng.next_below(600);
  }
  return batch;
}

struct WindowOutcome {
  uint64_t durable_at_exit = 0;
  std::map<uint64_t, std::set<uint64_t>> at_lsn;
  std::set<uint64_t> model;
};

// One open->workload->kill window. Applies random batches to `d` and the
// oracle in lockstep, recording the oracle state at every consumed LSN
// and the durable watermark at the moment the caller destroys `d`.
template <typename Engine>
void run_window(DurablePMA<Engine>& d, Rng& rng, uint64_t key_base,
                WindowOutcome& w) {
  std::map<uint64_t, std::set<uint64_t>>& at_lsn = w.at_lsn;
  std::set<uint64_t>& model = w.model;
  at_lsn[d.last_lsn()] = model;
  const uint64_t steps = 6 + rng.next_below(12);
  bool async_pending = false;
  for (uint64_t step = 0; step < steps; ++step) {
    const uint64_t pick = rng.next_below(100);
    if (pick < 55) {
      std::vector<uint64_t> batch = random_batch(rng, key_base);
      const uint64_t before = d.last_lsn();
      d.insert_batch(batch);
      if (d.last_lsn() == before) continue;  // vetoed (WAL down): no state
      ASSERT_EQ(d.last_lsn(), before + 1) << "one batch, one LSN";
      model.insert(batch.begin(), batch.end());
      at_lsn[d.last_lsn()] = model;
    } else if (pick < 85) {
      std::vector<uint64_t> batch = random_batch(rng, key_base);
      const uint64_t before = d.last_lsn();
      d.remove_batch(batch);
      if (d.last_lsn() == before) continue;
      ASSERT_EQ(d.last_lsn(), before + 1);
      for (uint64_t k : batch) model.erase(k);
      at_lsn[d.last_lsn()] = model;
    } else if (pick < 92) {
      d.sync_wal();  // may fail under faults; watermark just stays put
    } else if (async_pending || rng.next_below(2) == 0) {
      d.checkpoint();  // failure tolerated: previous generation stays live
    } else {
      // Leave the body writing in the background across later batches (and
      // sometimes across the kill itself — the dtor joins, the crash model
      // then tears whatever the body had not synced).
      async_pending = d.checkpoint_async().ok();
    }
  }
  w.durable_at_exit = d.durable_lsn();
}

// Reopen on the (clean) base vfs and check the three oracle properties.
template <typename Engine>
void verify_recovery(MemVfs& vfs, const DurableSettings& settings,
                     const WindowOutcome& w, bool silent_flips,
                     const std::string& ctx,
                     std::set<uint64_t>* recovered_out,
                     uint64_t* recovered_lsn) {
  DurablePMA<Engine> d(vfs, "db", settings);
  const RecoveryReport& r = d.recovery_report();
  auto it = w.at_lsn.find(r.last_lsn);
  ASSERT_NE(it, w.at_lsn.end())
      << ctx << ": recovery landed on LSN " << r.last_lsn
      << " which is not a batch boundary";
  std::vector<uint64_t> got;
  d.snapshot().map([&](uint64_t k) { got.push_back(k); });
  const std::vector<uint64_t> want(it->second.begin(), it->second.end());
  ASSERT_EQ(got, want) << ctx << ": recovered state is not the LSN-"
                       << r.last_lsn << " prefix";
  if (!silent_flips) {
    EXPECT_GE(r.last_lsn, w.durable_at_exit)
        << ctx << ": lost writes below the durable watermark";
  }
  std::string err;
  ASSERT_TRUE(d.serving().store().check_invariants(&err)) << ctx << ": "
                                                          << err;
  *recovered_out = it->second;
  *recovered_lsn = r.last_lsn;
}

template <typename E>
class Chaos : public ::testing::Test {};
using Engines = ::testing::Types<cpma::PMA, cpma::CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(Chaos, Engines);

// Clean I/O, two crash generations per schedule: the second window reuses
// LSNs the first window's tail lost, so recovery's fresh-checkpoint /
// prune / newest-(cseq,part) arbitration is on the line, not just replay.
TYPED_TEST(Chaos, KillPointRecoveryDifferential) {
  for (uint64_t i = 0; i < kSchedulesPerEngine; ++i) {
    const uint64_t seed = chaos_base_seed() * 1315423911u + i * 2654435761u;
    Rng rng(seed + 1);  // Rng(0) would be degenerate if base*... == 0
    const std::string ctx = "schedule " + std::to_string(i) + " (seed " +
                            std::to_string(seed) + ")";
    MemVfs vfs;
    DurableSettings settings = random_settings(rng);
    const uint64_t key_base = rng.next_below(1u << 20);

    WindowOutcome w;
    uint64_t recovered_lsn = 0;
    {
      DurablePMA<TypeParam> d(vfs, "db", settings);
      run_window(d, rng, key_base, w);
      if (::testing::Test::HasFatalFailure()) return;
    }  // kill point: no flush, no final sync
    vfs.crash(rng.next());
    std::set<uint64_t> recovered;
    verify_recovery<TypeParam>(vfs, settings, w, /*silent_flips=*/false,
                               ctx + " gen1", &recovered, &recovered_lsn);
    if (::testing::Test::HasFatalFailure()) return;

    // Generation 2: continue from the recovered prefix.
    WindowOutcome w2;
    w2.model = recovered;
    {
      DurablePMA<TypeParam> d(vfs, "db", settings);
      ASSERT_EQ(d.last_lsn(), recovered_lsn) << ctx;
      run_window(d, rng, key_base, w2);
      if (::testing::Test::HasFatalFailure()) return;
    }
    vfs.crash(rng.next());
    verify_recovery<TypeParam>(vfs, settings, w2, /*silent_flips=*/false,
                               ctx + " gen2", &recovered, &recovered_lsn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Live I/O faults (write errors, short writes, failed fsyncs; every 4th
// schedule also silent bit flips) injected while the store runs, then a
// crash on top. Recovery must still land bit-exactly on a batch boundary.
TYPED_TEST(Chaos, FaultScheduleRecovery) {
  for (uint64_t i = 0; i < kSchedulesPerEngine; ++i) {
    const uint64_t seed = chaos_base_seed() * 2246822519u + i * 3266489917u;
    Rng rng(seed + 1);
    const std::string ctx = "fault schedule " + std::to_string(i) +
                            " (seed " + std::to_string(seed) + ")";
    MemVfs base;
    FaultPlan plan;
    plan.seed = rng.next();
    plan.write_error_bp = static_cast<uint32_t>(rng.next_below(250));
    plan.short_write_bp = static_cast<uint32_t>(rng.next_below(250));
    plan.sync_fail_bp = static_cast<uint32_t>(rng.next_below(250));
    const bool silent_flips = i % 4 == 0;
    if (silent_flips) {
      plan.bit_flip_bp = static_cast<uint32_t>(1 + rng.next_below(100));
    }
    FaultyVfs faulty(base, plan);
    DurableSettings settings = random_settings(rng);
    const uint64_t key_base = rng.next_below(1u << 20);

    WindowOutcome w;
    {
      DurablePMA<TypeParam> d(faulty, "db", settings);
      run_window(d, rng, key_base, w);
      if (::testing::Test::HasFatalFailure()) return;
    }
    base.crash(rng.next());
    // Recovery itself runs on clean I/O: the question under test is
    // whether the BYTES the faults left behind recover consistently.
    std::set<uint64_t> recovered;
    uint64_t recovered_lsn = 0;
    verify_recovery<TypeParam>(base, settings, w, silent_flips, ctx,
                               &recovered, &recovered_lsn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Concurrent clients against the bounded queues while checkpoints run:
// every admitted op must survive the flush and the crash (TSan food).
TYPED_TEST(Chaos, ConcurrentBoundedIngestSurvivesCrash) {
  MemVfs vfs;
  DurableSettings settings;
  settings.serving.sharded.num_shards = 4;
  settings.serving.sharded.min_rebalance_bytes = 1 << 12;
  settings.serving.publish_eager = true;
  settings.serving.queue_cap = 64;
  settings.serving.admission = cpma::serve::Admission::kBlock;
  settings.serving.block_deadline_ns = 2'000'000'000;
  settings.serving.combine_batch = 32;
  settings.wal.policy = FsyncPolicy::kInterval;
  settings.wal.interval_bytes = 1 << 12;

  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  std::atomic<uint64_t> admitted{0};
  {
    DurablePMA<TypeParam> d(vfs, "db", settings);
    std::vector<std::thread> clients;
    for (uint64_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          const uint64_t key = (t * kPerThread + i + 1) * 0x9E3779B9ull;
          if (d.insert(key)) admitted.fetch_add(1);
        }
      });
    }
    for (int c = 0; c < 3; ++c) d.checkpoint();
    for (auto& t : clients) t.join();
    ASSERT_EQ(admitted.load(), kThreads * kPerThread)
        << "block admission must drain, not time out";
    ASSERT_TRUE(d.sync_wal().ok());
    EXPECT_EQ(d.size(), kThreads * kPerThread);
    const auto qs = d.serving().serving_stats();
    uint64_t depth = 0;
    for (const auto& q : qs) depth += q.depth;
    EXPECT_EQ(depth, 0u);
  }
  vfs.crash(4242);
  DurablePMA<TypeParam> d(vfs, "db", settings);
  EXPECT_EQ(d.size(), kThreads * kPerThread);
  std::string err;
  EXPECT_TRUE(d.serving().store().check_invariants(&err)) << err;
}

}  // namespace
