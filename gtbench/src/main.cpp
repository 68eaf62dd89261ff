// gtbench — the gtpar performance benchmark (README.md in this directory).
//
//   gtbench --workload batch-cpu|gameplay --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload, checks every answer, prints a report (every metric
// by name with its unit, the host-control log) and, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// runs the traced variant of the workload and reports the per-layer
// metrics. Each run appends a record to DIR/runs.jsonl (with the host's
// cores probe and any flagged phase); a traced run also writes its spans
// to DIR/trace-<workload>-<seed>.jsonl. Exits 1 on any wrong answer, 2 on
// a usage error.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace gtbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the result line
// against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "op/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"good_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"speedup_vs_1w", "x"},
    {"cpu_ms_per_op", "ms"},
    {"solve.flat_solve_ns_per_leaf", "ns"},
    {"solve.flat_ab_ns_per_leaf", "ns"},
    {"threads.search_ms_p50", "ms"},
    {"threads.incomplete", "count"},
    {"threads.work_ratio_solve", "ratio"},
    {"threads.work_ratio_ab", "ratio"},
    {"engine.dispatch_wait_ms_p50", "ms"},
    {"engine.dispatch_wait_ms_p99", "ms"},
    {"engine.dispatch_wait_ms_avg", "ms"},
    {"engine.dispatch_wait_ms_max", "ms"},
    {"engine.tasks_per_op", "count"},
    {"engine.steals_per_op", "count"},
    {"engine.injected_per_op", "count"},
    {"engine.parks_per_op", "count"},
    {"engine.inline_runs_per_op", "count"},
    {"engine.busy_ratio", "ratio"},
    {"engine.rejected", "count"},
    {"engine.watchdog_failed", "count"},
    {"engine.task_exceptions", "count"},
    {"engine.tt_probes_per_op", "count"},
    {"engine.tt_hit_ratio", "ratio"},
    {"engine.tt_stores_per_op", "count"},
    {"engine.tt_collision_ratio", "ratio"},
    {"engine.tt_op_ns_1t", "ns"},
    {"engine.tt_op_ns_wt", "ns"},
    {"tree.parse_ns_per_node", "ns"},
    {"tree.payload_bytes_per_req", "bytes"},
    {"net.codec_ns_per_req", "ns"},
    {"net.search_ms_p50", "ms"},
    {"net.search_ms_p99", "ms"},
    {"net.outside_search_ms_p50", "ms"},
    {"net.outside_search_ms_p99", "ms"},
    {"net.requests_shed", "count"},
    {"net.errors_sent", "count"},
    {"net.bad_frames", "count"},
    {"net.degraded_ratio", "ratio"},
    {"session.nodes_per_move", "count"},
    {"session.ns_per_node", "ns"},
    {"session.tt_hits_per_move", "count"},
    {"session.tt_stores_per_move", "count"},
    {"sim.bounded_speedup_solve", "x"},
    {"sim.bounded_speedup_ab", "x"},
    {"sim.work_ratio_solve", "ratio"},
    {"sim.work_ratio_ab", "ratio"},
    {"host.cores_probe", "cores"},
    {"host.flagged_phases", "count"},
    {"loadgen.send_lag_p99_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans_per_op", "count"},
    {"trace.self_ms_per_op.engine", "ms"},
    {"trace.self_ms_per_op.threads", "ms"},
    {"trace.self_ms_per_op.net", "ms"},
    {"trace.self_ms_per_op.session", "ms"},
    {"trace.self_ms_per_op.loadgen", "ms"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "gtbench: %s\nusage: gtbench --workload "
               "batch-cpu|gameplay --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds >= 1 && cfg.seconds <= 60))
        usage("--seconds takes a number in [1, 60]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      cfg.trace = v[0] == '1';
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  cfg.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return cfg;
}

std::string number(double v) { return fmt("%.10g", std::isfinite(v) ? v : 0.0); }

}  // namespace
}  // namespace gtbench

int main(int argc, char** argv) {
  using namespace gtbench;
  const RunConfig cfg = parse_args(argc, argv);
  ::mkdir(cfg.out_dir.c_str(), 0755);  // may exist already
  HostControl host(cfg.workers);
  Outcome o;
  if (cfg.workload == "batch-cpu") {
    o = run_batch_cpu(cfg, host);
  } else if (cfg.workload == "gameplay") {
    o = run_gameplay(cfg, host);
  } else {
    usage(("unknown workload " + cfg.workload).c_str());
  }

  const double fail_ratio =
      o.attempted ? double(o.failed) / double(o.attempted) : 1.0;
  o.metrics["good_ratio"] = 1.0 - fail_ratio;
  o.metrics["peak_rss_mb"] = peak_rss_mib();
  o.metrics["host.cores_probe"] = host.min_probe();
  o.metrics["host.flagged_phases"] = host.flagged();

  std::printf("gtbench workload=%s seed=%llu seconds=%g trace=%d W=%u\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.workers);
  for (const auto& line : host.log()) std::printf("%s\n", line.c_str());
  for (const auto& line : o.notes) std::printf("%s\n", line.c_str());
  std::printf("attempted=%llu failed=%llu wrong=%llu fail_ratio=%.6g\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.wrong), fail_ratio);
  if (host.flagged())
    std::printf("FLAGGED: %u phase(s) ran while the host delivered fewer "
                "than %.1f cores; compare this run's figures with care\n",
                host.flagged(), cfg.workers - 0.5);

  const auto begin = cfg.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto end = cfg.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string json, record;
  for (auto it = begin; it != end; ++it) {
    auto m = o.metrics.find(it->name);
    if (m == o.metrics.end() && !cfg.trace) {
      std::fprintf(stderr, "gtbench: internal error: %s not measured\n", it->name);
      return 3;
    }
    // A per-layer metric of a layer this workload does not exercise
    // reads 0 (README.md "Per-layer metrics").
    const double v = m == o.metrics.end() ? 0.0 : m->second;
    std::printf("metric %-32s %14s %s\n", it->name, number(v).c_str(), it->unit);
    json += fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", it->name, number(v).c_str(), it->unit);
  }
  for (const auto& [name, v] : o.metrics)
    record += fmt(", \"%s\": %s", name.c_str(), number(v).c_str());

  std::FILE* f = std::fopen((cfg.out_dir + "/runs.jsonl").c_str(), "a");
  if (f) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"attempted\": %llu, \"failed\": %llu, \"wrong\": %llu%s}\n",
                 cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                 cfg.trace ? 1 : 0, static_cast<unsigned long long>(o.attempted),
                 static_cast<unsigned long long>(o.failed),
                 static_cast<unsigned long long>(o.wrong), record.c_str());
    std::fclose(f);
  }
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    if (!tracer().write(path))
      std::fprintf(stderr, "gtbench: cannot write %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              o.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), json.c_str());
  std::fflush(stdout);
  return o.wrong == 0 ? 0 : 1;
}
