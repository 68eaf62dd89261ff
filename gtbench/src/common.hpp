// gtbench/src/common.hpp
//
// Shared harness pieces of the gtpar benchmark: the run context handed to
// each workload, the metric report, clocks and statistics, process
// resource probes, and the host-parallelism control run before every
// timed phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gtpar/engine/engine.hpp"

namespace gtbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (span timestamps, schedules).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// splitmix64: every input the benchmark generates derives from --seed
/// through this stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Percentile `q` of each window's sample, then the median over windows:
/// a latency figure that a host stall covering a minority of the
/// windows cannot move. Each window should hold at least 1000 samples
/// so that ten lie beyond its p99.
double windowed_percentile(const std::vector<std::vector<double>>& windows, double q);

/// Median over rounds of a[k] / b[k], where round k ran a[k]'s and
/// b[k]'s measurement back to back, so host drift cancels in the ratio.
double paired_ratio(const std::vector<double>& a, const std::vector<double>& b);

/// Process CPU time (all threads), seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mib();

/// One run's configuration, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Engine workers, client connections and load threads: nproc, capped
  /// at 4.
  unsigned workers = 4;
};

/// What a workload hands back: counts and named metric values. Names
/// and units are fixed by the tables in main.cpp.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wrong answers (a subset of failed): the run exits non-zero on any.
  std::uint64_t wrong = 0;
  std::map<std::string, double> metrics;
  /// Free-form lines for the human-readable report.
  std::vector<std::string> notes;
};

/// Host-parallelism control (README.md "Host control"). The host's vCPUs
/// run slowly for about a second after they go idle, so before each
/// timed phase the control spins every worker core past that ramp, then
/// runs a fixed W-thread spin probe and records how many cores' worth of
/// work the host actually delivered. A phase whose probe still reads
/// fewer than W - 0.5 cores after a few re-warms is flagged in the
/// report and the run record; it is never dropped silently.
class HostControl {
 public:
  explicit HostControl(unsigned workers) : w_(workers) {}

  /// Warm up (long the first time, short between back-to-back phases)
  /// and probe; returns the probe reading for this phase.
  double before_phase(const char* phase);

  /// Lowest probe reading of the run (what host.cores_probe reports).
  double min_probe() const { return min_probe_; }
  unsigned flagged() const { return flagged_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  unsigned w_;
  bool warmed_ = false;
  double min_probe_ = 1e9;
  unsigned flagged_ = 0;
  std::vector<std::string> log_;
};

/// Engine-layer metrics from two EngineStats snapshots around a phase
/// that completed `ops` operations: scheduler, admission, watchdog and
/// shared-table counters per op, and the mean/max dispatch wait.
void engine_metrics(const gtpar::EngineStats& before,
                    const gtpar::EngineStats& after, double ops,
                    std::map<std::string, double>& m);

/// Mean ns per TranspositionTable operation per thread for a fixed
/// 3-probes-to-1-store mix on a default-size table hammered by `threads`
/// threads at once.
double tt_op_ns(unsigned threads);

/// Per-module self time per op (trace.self_ms_per_op.*) and spans per op
/// from the spans of requests with ids in [req_lo, req_hi).
void trace_metrics(double ops, std::map<std::string, double>& m,
                   std::uint64_t req_lo = 1, std::uint64_t req_hi = ~0ull);

/// Request ids of the service-layer probe start here, apart from the
/// ids of the workload the probe runs inside.
constexpr std::uint64_t kProbeReqBase = std::uint64_t{1} << 40;

/// Per-layer metrics of the service path (net.*, tree.*, the load
/// generator, and the server engine's dispatch wait) from traced
/// open-loop chunks of the service mix lasting `seconds`
/// (service_probe.cpp); also the net and loadgen self times. Every
/// answer is checked and counted in `o`. Run inside the batch-cpu traced
/// run.
void service_layer_probe(const RunConfig& cfg, HostControl& host, double seconds,
                         Outcome& o);

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

// The workloads (one file each).
Outcome run_batch_cpu(const RunConfig& cfg, HostControl& host);
Outcome run_gameplay(const RunConfig& cfg, HostControl& host);

}  // namespace gtbench
