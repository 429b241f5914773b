// Shared plumbing of the benchmark: options, timing, the tail-percentile
// rule, in-memory spans, output checks and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pma/sharded.hpp"
#include "serve/serving.hpp"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// Slice i of k equal slices of [0, n): [first, second).
inline std::pair<uint64_t, uint64_t> slice_of(uint64_t n, uint64_t i,
                                              uint64_t k) {
  return {n * i / k, n * (i + 1) / k};
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // target length of the timed phases
  bool trace = false;
  double scale = 1.0;   // data-size multiplier; < 1 only for smoke runs
  std::string trace_out;  // span dump (JSON lines); empty = none
};

// ---- percentiles -----------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

// The highest percentile of the ladder {99, 98, 95, 90, 75, 50} that
// leaves at least `beyond` samples strictly above its rank. pct is 0 (and
// value 0) when even the median does not.
struct Tail {
  double pct = 0;
  double value = 0;
  uint64_t samples = 0;
};
Tail tail_percentile(std::vector<double> samples, uint64_t beyond = 10);

double median(std::vector<double> v);

// Mean of the middle 60% of `v` (the lowest and highest 20% dropped). The
// rate of one slice flips between a fast and a slow mode as the thread
// moves between vCPUs whose hyperthread siblings are busy or idle; the
// median of such a sample jumps between the modes, a trimmed mean does not,
// and it still drops the slices a stall hit.
double trimmed_mean(std::vector<double> v);

// A phase's rate from its slice rates: the 90th percentile (nearest rank).
// On a shared host a slice runs at the code's own speed only while no other
// guest contends for its vCPU; slower slices measure the neighbours. The
// fastest decile repeats from run to run where a mean or median of the
// slices drifts with the host's load.
double fast_rate(std::vector<double> slice_rates);

// ---- CPU placement -----------------------------------------------------------

// Spreads threads over the CPUs the process may run on. On a shared host
// one vCPU can run 30% slower than another for seconds at a time (its
// hyperthread sibling is busy); a thread the kernel leaves on such a vCPU
// for a whole phase moves that phase's metric by as much. pin(slot) binds
// the calling thread to CPU number slot mod n; a phase that runs in rounds
// and advances every thread's slot by one per round gives every thread an
// equal share of every vCPU. With fewer CPUs than `threads` (the threads
// that must not share one), pin() does nothing.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned threads);
  bool active() const { return active_; }
  void pin(uint64_t slot) const;
  void unpin() const;  // back to every allowed CPU

 private:
  std::vector<int> cpus_;
  bool active_ = false;
};

// ---- spans -----------------------------------------------------------------

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of its interval its
// children cover (overlapping children are counted once). Indexed like
// `spans`.
std::vector<uint64_t> self_times(const std::vector<SpanRec>& spans);

// Spans recorded around the benchmark's own calls into each layer. Disabled
// (the default) it records nothing and reads no clock.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }

  uint64_t begin(const char* name);  // returns the span id (0 when disabled)
  void end(uint64_t id);

  std::vector<SpanRec> spans() const;
  uint64_t total_ns(const std::string& name) const;
  double median_ns(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

Tracer& tracer();

class Span {
 public:
  explicit Span(const char* name) : id_(tracer().begin(name)) {}
  ~Span() { tracer().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint64_t id_;
};

// ---- result ----------------------------------------------------------------

class Report {
 public:
  // Records one output check; a failure prints `what` to stderr.
  void check(bool ok, const std::string& what);
  void attempt(uint64_t n) { attempted_ += n; }
  void fail(uint64_t n) { failed_ += n; }

  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, double value);
  void metric(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  bool correct() const { return checks_failed_ == 0; }
  uint64_t failed() const { return failed_ + checks_failed_; }

  // Prints the human-readable record (config, every metric) and then, as
  // the last line, the JSON result with the end-to-end metrics (trace off)
  // or the per-layer metrics (trace on).
  void print(bool trace) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, Value>> metrics_, layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

// Logs "phase <name> <seconds>" to stderr at each call: the run's own
// breakdown of where its wall time went (inputs, set-up, phases, checks).
class PhaseLog {
 public:
  void mark(const char* name);

 private:
  uint64_t last_ns_ = now_ns();
};

double peak_rss_mb();
uint64_t llc_bytes();

// Set-up time: runs prepare() (untimed: destroy the last store, copy the
// inputs) and then build() (timed) `reps` times; returns the median seconds.
template <typename Prepare, typename Build>
double median_setup_seconds(int reps, Prepare&& prepare, Build&& build) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const uint64_t t0 = now_ns();
    build();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// Reports a latency distribution: the median as the metric
// <prefix>_p50_<unit>, and on the config line the tail (the highest
// percentile leaving >= 10 samples beyond it, nominally p99), which
// percentile that is, and the sample count. The tail is not an end-to-end
// metric: host CPU steal moves it by 30-140% between runs of one seed.
void report_latency(Report& rep, const std::string& prefix,
                    std::vector<double> samples_ns, double unit_ns,
                    const std::string& unit);

void run_batch_set(const Options& opt, Report& rep);
void run_serve_durable(const Options& opt, Report& rep);
void run_graph_stream(const Options& opt, Report& rep);

// Decode rate of DeltaStream over leaf-sized blocks encoded from `sorted`
// keys: keys/s (median of passes), and encoded bytes per key (8-byte heads
// included). keys_per_pass must equal the number of distinct input keys;
// checksum (a sum of decoded keys) keeps the decode observable.
struct CodecProbe {
  double decode_keys_per_s = 0;
  double encoded_bytes_per_key = 0;
  uint64_t keys_per_pass = 0;
  uint64_t checksum = 0;
};
CodecProbe probe_codec(const uint64_t* sorted, uint64_t n, uint64_t leaf_bytes);

// Every per-layer figure of the traced run. A workload fills the layers it
// exercises; the rest stay 0, which is itself the measurement (that layer
// did no work on this workload).
struct LayerTimes {
  CodecProbe codec;
  // engine / leaf (write phases only; set-up excluded)
  cpma::pma::BatchPhaseTimes engine;
  uint64_t router_route_ns = 0;  // folded into engine.route_ns by sharded
  double written_keys = 0;
  double lookup_ns_per_key = 0;
  double content_bytes_per_key = 0;
  double slack_bytes_per_key = 0;
  double index_bytes_per_key = 0;
  double density = 0;
  // sharded
  double sharded_rebalance_ns = 0, sharded_rebalances = 0, sharded_moves = 0;
  double sharded_imbalance = 0;
  // serving
  double publishes = 0, shard_copies = 0, publish_ns = 0, apply_ns = 0;
  double combines = 0, combined_ops = 0, blocked = 0, rejected = 0;
  double retired_views = 0, pin_ns = 0;
  // durable
  double wal_bytes = 0, wal_records = 0, wal_syncs = 0, checkpoint_bytes = 0;
  double live_keys = 0;  // denominator of the per-key byte counts
  double replay_keys = 0, replay_bytes_scanned = 0;
  double checkpoint_s = 0, recover_s = 0;
  // graph
  double prepare_s = 0, bfs_s = 0, pagerank_s = 0, cc_s = 0;
  double uf_rebuild_s = 0, snapshot_age_ms = 0, analytics_s = 0;
};

void report_layers(Report& rep, const LayerTimes& lt);

// Space split of a store of `shards` engines (engine_of(i) is shard i),
// taken right after the preload like bytes_per_key: encoded content,
// density-bound slack, head index (8 bytes per leaf), density, and on a
// sharded store the max/min shard content.
template <typename EngineOf>
void fill_space(LayerTimes& lt, uint64_t shards, EngineOf&& engine_of) {
  double content = 0, total = 0, leaves = 0, keys = 0;
  double cmax = 0, cmin = 0;
  for (uint64_t i = 0; i < shards; ++i) {
    const auto& e = engine_of(i);
    const double c = static_cast<double>(e.content_bytes());
    content += c;
    total += static_cast<double>(e.total_bytes());
    leaves += static_cast<double>(e.num_leaves());
    keys += static_cast<double>(e.size());
    cmax = i == 0 ? c : std::max(cmax, c);
    cmin = i == 0 ? c : std::min(cmin, c);
  }
  lt.content_bytes_per_key = content / keys;
  lt.slack_bytes_per_key = (total - content) / keys;
  lt.index_bytes_per_key = leaves * sizeof(uint64_t) / keys;
  lt.density = content / total;
  if (shards > 1 && cmin > 0) lt.sharded_imbalance = cmax / cmin;
}

// Engine, router and serving counters of a serving store at one instant;
// the per-layer figures of the write phases are differences of two.
struct StackSample {
  cpma::pma::BatchPhaseTimes engine;
  cpma::pma::ShardRouterTimes router;
  cpma::serve::ServingStats serving;
};

template <typename Serving>
StackSample sample_stack(const Serving& s) {
  return {s.store().batch_phase_times(), s.store().router_times(), s.stats()};
}

void fill_stack_deltas(LayerTimes& lt, const StackSample& before,
                       const StackSample& after);

// Share of the run's timed work that span recording added: spans recorded
// times the measured cost of one span, over `timed_ns`.
double trace_overhead_frac(double timed_ns);

}  // namespace perfbench
