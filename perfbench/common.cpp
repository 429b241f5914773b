#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "codec/delta.hpp"
#include "codec/delta_stream.hpp"

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<uint64_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail tail_percentile(std::vector<double> samples, uint64_t beyond) {
  Tail t;
  t.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && samples.size() - rank >= beyond) {
      t.pct = p;
      t.value = percentile_sorted(samples, p);
      return t;
    }
  }
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 5;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double fast_rate(std::vector<double> slice_rates) {
  std::sort(slice_rates.begin(), slice_rates.end());
  return percentile_sorted(slice_rates, 90);
}

// ---- CPU placement -----------------------------------------------------------

CpuRotation::CpuRotation(unsigned threads) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  active_ = cpus_.size() >= threads;
}

void CpuRotation::pin(uint64_t slot) const {
  if (!active_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[slot % cpus_.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void CpuRotation::unpin() const {
  if (!active_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---- spans -----------------------------------------------------------------

std::vector<uint64_t> self_times(const std::vector<SpanRec>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRec& p = spans[it->second];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[it->second].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<uint64_t, uint64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

namespace {
std::atomic<uint64_t> g_next_span{1};
thread_local std::vector<uint64_t> t_open;  // this thread's open span ids
}  // namespace

uint64_t Tracer::begin(const char* name) {
  if (!enabled_) return 0;
  SpanRec s;
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.name = name;
  t_open.push_back(s.id);
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return s.id;
}

void Tracer::end(uint64_t id) {
  if (id == 0) return;
  const uint64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  // Spans close in LIFO order per thread, so the match is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint64_t Tracer::total_ns(const std::string& name) const {
  uint64_t t = 0;
  for (const SpanRec& s : spans()) {
    if (name == s.name) t += s.end_ns - s.start_ns;
  }
  return t;
}

double Tracer::median_ns(const std::string& name) const {
  std::vector<double> d;
  for (const SpanRec& s : spans()) {
    if (name == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return median(std::move(d));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRec> all = spans();
  const std::vector<uint64_t> self = self_times(all);
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---- result ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++checks_failed_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::config(const std::string& key, const std::string& value) {
  config_.push_back({key, value});
}

void Report::config(const std::string& key, double value) {
  std::ostringstream s;
  s << value;
  config(key, s.str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, {value, unit}});
}

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::print(bool trace) const {
  std::ostringstream human;
  human << "config:";
  for (const auto& [k, v] : config_) human << " " << k << "=" << v;
  human << "\n";
  for (const auto& [k, v] : metrics_) {
    human << "metric " << k << " = " << num(v.value) << " " << v.unit << "\n";
  }
  for (const auto& [k, v] : layers_) {
    human << "layer  " << k << " = " << num(v.value) << " " << v.unit << "\n";
  }
  const uint64_t fails = failed();
  human << "failed_op_frac = " << num(attempted_ ? double(fails) / attempted_ : 0)
        << " (" << fails << " of " << attempted_ << " attempted)\n";
  std::cout << human.str();

  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
     << ", \"failed\": " << fails << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : trace ? layers_ : metrics_) {
    js << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << num(v.value)
       << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

void PhaseLog::mark(const char* name) {
  const uint64_t t = now_ns();
  std::cerr << "phase " << name << " "
            << static_cast<double>(t - last_ns_) * 1e-9 << " s\n";
  last_ns_ = t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

void report_latency(Report& rep, const std::string& prefix,
                    std::vector<double> samples_ns, double unit_ns,
                    const std::string& unit) {
  for (double& s : samples_ns) s /= unit_ns;
  const Tail tail = tail_percentile(samples_ns);
  rep.metric(prefix + "_p50_" + unit, median(samples_ns), unit);
  rep.config(prefix + "_p99_" + unit, tail.value);
  rep.config(prefix + "_tail_pct", tail.pct);
  rep.config(prefix + "_samples", static_cast<double>(tail.samples));
}

CodecProbe probe_codec(const uint64_t* sorted, uint64_t n,
                       uint64_t leaf_bytes) {
  using Stream = cpma::codec::DeltaStream<cpma::codec::ByteVarintCodec>;
  // Leaf-shaped blocks: an 8-byte head plus varint deltas until the next
  // key no longer fits, zero-terminated like a leaf.
  struct Block {
    uint64_t head;
    size_t begin;
  };
  std::vector<uint8_t> bytes;
  std::vector<Block> blocks;
  uint64_t i = 0;
  while (i < n) {
    Block b{sorted[i], bytes.size()};
    size_t used = 8;
    uint64_t prev = sorted[i++];
    while (i < n && sorted[i] != prev) {
      const size_t len = cpma::codec::varint_size(sorted[i] - prev);
      if (used + len + 1 > leaf_bytes) break;
      cpma::codec::delta_encode_append(&sorted[i], 1, prev, bytes);
      used += len;
      prev = sorted[i++];
    }
    while (i < n && sorted[i] == prev) ++i;  // duplicates are not encodable
    bytes.push_back(0);
    blocks.push_back(b);
  }
  bytes.resize(bytes.size() + 16, 0);  // block decode may read ahead

  CodecProbe p;
  p.encoded_bytes_per_key =
      static_cast<double>(bytes.size() - 16 - blocks.size() + 8 * blocks.size()) /
      static_cast<double>(n);
  // Median of repeated full passes: each pass decodes every block.
  std::vector<double> rates;
  uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    uint64_t keys = 0;
    uint64_t out[Stream::kBlockKeys];
    const uint64_t t0 = now_ns();
    for (size_t b = 0; b < blocks.size(); ++b) {
      const size_t end =
          b + 1 < blocks.size() ? blocks[b + 1].begin : bytes.size() - 16;
      Stream s(bytes.data() + blocks[b].begin, end - blocks[b].begin,
               blocks[b].head);
      keys += 1;
      size_t got;
      while ((got = s.next_block(out, Stream::kBlockKeys)) > 0) {
        keys += got;
        sink += out[got - 1];
      }
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    p.keys_per_pass = keys;
    rates.push_back(static_cast<double>(keys) / dt);
  }
  p.decode_keys_per_s = median(rates);
  p.checksum = sink;
  return p;
}

}  // namespace perfbench

namespace perfbench {

void report_layers(Report& rep, const LayerTimes& lt) {
  const double wk = std::max(lt.written_keys, 1.0);
  const cpma::pma::BatchPhaseTimes& e = lt.engine;
  const double engine_ns = static_cast<double>(
      e.route_ns + e.merge_ns + e.count_ns + e.redistribute_ns + e.spread_ns +
      e.rebuild_ns);
  const double router_ns = static_cast<double>(lt.router_route_ns);

  rep.layer("codec.decode_keys_per_s", lt.codec.decode_keys_per_s, "1/s");
  rep.layer("codec.encoded_bytes_per_key", lt.codec.encoded_bytes_per_key, "B");

  rep.layer("engine.route_ns_per_key", (e.route_ns - router_ns) / wk, "ns");
  rep.layer("engine.merge_ns_per_key", e.merge_ns / wk, "ns");
  rep.layer("engine.count_ns_per_key", e.count_ns / wk, "ns");
  rep.layer("engine.redistribute_ns_per_key", e.redistribute_ns / wk, "ns");
  rep.layer("engine.resize_ns_per_key",
            static_cast<double>(e.spread_ns + e.rebuild_ns) / wk, "ns");
  rep.layer("engine.spreads", static_cast<double>(e.spreads), "count");
  rep.layer("engine.rebuild_batches", static_cast<double>(e.rebuilds), "count");
  rep.layer("engine.lookup_ns_per_key", lt.lookup_ns_per_key, "ns");
  rep.layer("leaf.content_bytes_per_key", lt.content_bytes_per_key, "B");
  rep.layer("engine.slack_bytes_per_key", lt.slack_bytes_per_key, "B");
  rep.layer("engine.index_bytes_per_key", lt.index_bytes_per_key, "B");
  rep.layer("engine.density", lt.density, "1");

  rep.layer("sharded.route_ns_per_key", router_ns / wk, "ns");
  rep.layer("sharded.rebalance_ns_per_key", lt.sharded_rebalance_ns / wk, "ns");
  rep.layer("sharded.rebalances", lt.sharded_rebalances, "count");
  rep.layer("sharded.moves", lt.sharded_moves, "count");
  rep.layer("sharded.imbalance", lt.sharded_imbalance, "1");

  rep.layer("serving.publishes", lt.publishes, "count");
  rep.layer("serving.shard_copies_per_publish",
            lt.shard_copies / std::max(lt.publishes, 1.0), "1");
  rep.layer("serving.publish_ns_per_key", lt.publish_ns / wk, "ns");
  rep.layer("serving.apply_ns_per_key", lt.apply_ns / wk, "ns");
  rep.layer("serving.combined_ops_per_combine",
            lt.combined_ops / std::max(lt.combines, 1.0), "1");
  rep.layer("serving.blocked", lt.blocked, "count");
  rep.layer("serving.rejected", lt.rejected, "count");
  rep.layer("serving.retired_views", lt.retired_views, "count");
  rep.layer("serving.pin_ns", lt.pin_ns, "ns");
  // Apply time not spent in the engines or the router. Shard engines run
  // as parallel siblings when the scheduler has several workers, so their
  // summed work can exceed the apply wall time and this goes negative.
  rep.layer("serving.self_ns_per_key",
            lt.apply_ns > 0 ? (lt.apply_ns - engine_ns -
                               lt.sharded_rebalance_ns) / wk
                            : 0.0,
            "ns");

  const double lk = std::max(lt.live_keys, 1.0);
  rep.layer("durable.wal_bytes_per_key", lt.wal_bytes / wk, "B");
  rep.layer("durable.wal_records", lt.wal_records, "count");
  rep.layer("durable.wal_syncs", lt.wal_syncs, "count");
  rep.layer("durable.checkpoint_bytes_per_key", lt.checkpoint_bytes / lk, "B");
  rep.layer("durable.replay_keys", lt.replay_keys, "count");
  rep.layer("durable.replay_bytes_scanned", lt.replay_bytes_scanned, "B");
  rep.layer("durable.checkpoint_s", lt.checkpoint_s, "s");
  rep.layer("durable.recover_s", lt.recover_s, "s");

  rep.layer("graph.prepare_s", lt.prepare_s, "s");
  rep.layer("graph.bfs_s", lt.bfs_s, "s");
  rep.layer("graph.pagerank_s", lt.pagerank_s, "s");
  rep.layer("graph.cc_s", lt.cc_s, "s");
  rep.layer("graph.uf_rebuild_s", lt.uf_rebuild_s, "s");
  rep.layer("graph.snapshot_age_ms", lt.snapshot_age_ms, "ms");
  rep.layer("graph.analytics_s", lt.analytics_s, "s");
}

void fill_stack_deltas(LayerTimes& lt, const StackSample& a,
                       const StackSample& b) {
  cpma::pma::BatchPhaseTimes& e = lt.engine;
  e.route_ns = b.engine.route_ns - a.engine.route_ns;
  e.merge_ns = b.engine.merge_ns - a.engine.merge_ns;
  e.count_ns = b.engine.count_ns - a.engine.count_ns;
  e.redistribute_ns = b.engine.redistribute_ns - a.engine.redistribute_ns;
  e.spread_ns = b.engine.spread_ns - a.engine.spread_ns;
  e.rebuild_ns = b.engine.rebuild_ns - a.engine.rebuild_ns;
  e.spreads = b.engine.spreads - a.engine.spreads;
  e.rebuilds = b.engine.rebuilds - a.engine.rebuilds;
  lt.router_route_ns = b.router.route_ns - a.router.route_ns;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  lt.sharded_rebalance_ns = d(b.router.rebalance_ns, a.router.rebalance_ns);
  lt.sharded_rebalances = d(b.router.rebalances, a.router.rebalances);
  lt.sharded_moves = d(b.router.moves, a.router.moves);
  lt.publishes = d(b.serving.publishes, a.serving.publishes);
  lt.shard_copies = d(b.serving.shard_copies, a.serving.shard_copies);
  lt.publish_ns = d(b.serving.publish_ns, a.serving.publish_ns);
  lt.apply_ns = d(b.serving.apply_ns, a.serving.apply_ns);
  lt.combines = d(b.serving.combines, a.serving.combines);
  lt.combined_ops = d(b.serving.combined_ops, a.serving.combined_ops);
  lt.retired_views = static_cast<double>(b.serving.retired_views);
}

double trace_overhead_frac(double timed_ns) {
  // Cost of one span, measured on a private tracer so the run's own spans
  // are untouched.
  Tracer probe;
  probe.enable(true);
  constexpr int kProbe = 20'000;
  const uint64_t t0 = now_ns();
  for (int i = 0; i < kProbe; ++i) probe.end(probe.begin("probe"));
  const double per_span = static_cast<double>(now_ns() - t0) / kProbe;
  const double spans = static_cast<double>(tracer().spans().size());
  return timed_ns > 0 ? spans * per_span / timed_ns : 0.0;
}

}  // namespace perfbench
