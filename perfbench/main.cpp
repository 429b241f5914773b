// One benchmark process runs one workload:
//
//   cpma_perfbench --workload <batch_set|serve_durable|graph_stream>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale <f>] [--trace-out <path>]
//
// It prints a human-readable record (configuration, every metric) and, as
// its last line, one JSON object: the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exit status 1 when any output check fails.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "parallel/scheduler.hpp"

namespace {

int usage() {
  std::cerr << "usage: cpma_perfbench --workload <batch_set|serve_durable|"
               "graph_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <f>] [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--scale") {
      opt.scale = std::strtod(v, nullptr);
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0 || opt.scale <= 0) return usage();

  // Scheduler workers plus client threads never exceed the 4 vCPUs the
  // benchmark is sized for: serve_durable runs two writers, a reader and
  // the checkpointing main thread over a serial library; the other two
  // workloads run the scheduler alone.
  unsigned workers = 4;
  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (opt.workload == "batch_set") {
    run = perfbench::run_batch_set;
  } else if (opt.workload == "serve_durable") {
    run = perfbench::run_serve_durable;
    workers = 1;
  } else if (opt.workload == "graph_stream") {
    run = perfbench::run_graph_stream;
  } else {
    return usage();
  }
  cpma::par::Scheduler::set_num_workers(workers);
  perfbench::tracer().enable(opt.trace);

  perfbench::Report rep;
  rep.config("seed", static_cast<double>(opt.seed));
  rep.config("seconds", opt.seconds);
  rep.config("scale", opt.scale);
  rep.config("trace", opt.trace ? "1" : "0");
  rep.config("scheduler_workers",
             static_cast<double>(cpma::par::Scheduler::instance().num_workers()));
  rep.config("llc_bytes", static_cast<double>(perfbench::llc_bytes()));

  const uint64_t t0 = perfbench::now_ns();
  run(opt, rep);
  const double wall_ns = static_cast<double>(perfbench::now_ns() - t0);
  rep.layer("trace.overhead_frac", perfbench::trace_overhead_frac(wall_ns),
            "1");
  if (opt.trace && !opt.trace_out.empty()) {
    rep.check(perfbench::tracer().write(opt.trace_out),
              "writing spans to " + opt.trace_out);
  }
  rep.print(opt.trace);
  return rep.correct() && rep.failed() == 0 ? 0 : 1;
}
