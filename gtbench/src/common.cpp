// gtbench/src/common.cpp — statistics, resource probes, host control.
#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <thread>

#include "trace.hpp"

namespace gtbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * double(v.size()));
  const std::size_t i = rank < 1 ? 0 : std::size_t(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double paired_ratio(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> r;
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) r.push_back(a[k] / b[k]);
  return median(std::move(r));
}

double windowed_percentile(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per;
  for (const auto& w : windows)
    if (!w.empty()) per.push_back(percentile(w, q));
  return median(std::move(per));
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

namespace {

/// One unit of spin work: a short dependent integer chain the compiler
/// cannot fold away.
inline std::uint64_t spin_unit(std::uint64_t x) {
  for (int i = 0; i < 256; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

std::atomic<std::uint64_t> g_sink{0};

/// Units of spin work one thread completes in `seconds` of wall time.
std::uint64_t spin_for(double seconds) {
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  std::uint64_t units = 0, x = 1;
  while (Clock::now() < end) {
    for (int k = 0; k < 16; ++k) x = spin_unit(x);
    units += 16;
  }
  g_sink.fetch_add(x & 1, std::memory_order_relaxed);
  return units;
}

/// Spin `threads` threads for `seconds` of wall time.
void spin_cores(unsigned threads, double seconds) {
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < threads; ++i) ts.emplace_back([seconds] { spin_for(seconds); });
  for (auto& t : ts) t.join();
}

/// Fixed W-thread spin probe: cores' worth of work delivered.
double cores_probe(unsigned threads) {
  constexpr double kSolo = 0.03, kAll = 0.1;
  // Reference rate of one thread alone: best of three windows.
  std::uint64_t solo = 0;
  for (int i = 0; i < 3; ++i) solo = std::max(solo, spin_for(kSolo));
  std::vector<std::uint64_t> units(threads, 0);
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < threads; ++i)
    ts.emplace_back([&units, i] { units[i] = spin_for(kAll); });
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  for (const auto u : units) total += u;
  return double(total) / (double(solo) * (kAll / kSolo));
}

}  // namespace

double HostControl::before_phase(const char* phase) {
  spin_cores(w_, warmed_ ? 0.25 : 1.5);
  warmed_ = true;
  double p = cores_probe(w_);
  const double floor = double(w_) - 0.5;
  for (int retry = 0; retry < 6 && p < floor; ++retry) {
    spin_cores(w_, 0.5);
    p = cores_probe(w_);
  }
  min_probe_ = std::min(min_probe_, p);
  const bool flag = p < floor;
  if (flag) ++flagged_;
  log_.push_back(fmt("host-control phase=%s cores_probe=%.3f%s", phase, p,
                     flag ? " FLAGGED(host delivered fewer than W-0.5 cores)"
                          : ""));
  return p;
}

void engine_metrics(const gtpar::EngineStats& a, const gtpar::EngineStats& b,
                    double ops, std::map<std::string, double>& m) {
  const double n = ops > 0 ? ops : 1;
  const auto& sa = a.scheduler;
  const auto& sb = b.scheduler;
  m["engine.tasks_per_op"] = double(sb.executed - sa.executed) / n;
  m["engine.steals_per_op"] = double(sb.steals - sa.steals) / n;
  m["engine.injected_per_op"] = double(sb.injected - sa.injected) / n;
  m["engine.parks_per_op"] = double(sb.parks - sa.parks) / n;
  m["engine.inline_runs_per_op"] = double(sb.inline_runs - sa.inline_runs) / n;
  m["engine.task_exceptions"] = double(sb.task_exceptions - sa.task_exceptions);
  m["engine.rejected"] = double(b.rejected - a.rejected);
  m["engine.watchdog_failed"] = double(b.watchdog_failed - a.watchdog_failed);
  const double jobs = double(b.completed - a.completed);
  m["engine.dispatch_wait_ms_avg"] =
      jobs > 0 ? double(b.total_dispatch_ns - a.total_dispatch_ns) / jobs / 1e6 : 0;
  m["engine.dispatch_wait_ms_max"] = double(b.max_dispatch_ns) / 1e6;
  const double probes = double(b.tt.probes - a.tt.probes);
  m["engine.tt_probes_per_op"] = probes / n;
  m["engine.tt_stores_per_op"] = double(b.tt.stores - a.tt.stores) / n;
  m["engine.tt_hit_ratio"] = probes > 0 ? double(b.tt.hits - a.tt.hits) / probes : 0;
  m["engine.tt_collision_ratio"] =
      probes > 0 ? double(b.tt.collisions - a.tt.collisions) / probes : 0;
}

double tt_op_ns(unsigned threads) {
  constexpr std::uint64_t kOps = 400'000;
  constexpr std::size_t kKeys = std::size_t{1} << 17;  // twice the table
  gtpar::TranspositionTable tt;  // default size, as the Engine's
  std::vector<std::uint64_t> keys(kKeys);
  Rng rng(0x7474);
  for (auto& k : keys) k = rng.next();
  std::vector<double> ns(threads, 0);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t)
    ts.emplace_back([&, t] {
      Scoped span("engine.tt_ops", 0);
      std::size_t i = (kKeys / threads) * t;
      gtpar::Value v = 0, sum = 0;
      const auto start = Clock::now();
      for (std::uint64_t op = 0; op < kOps; ++op, i = (i + 7919) & (kKeys - 1)) {
        if (op % 4 == 3)
          tt.store(keys[i], gtpar::Value(op), std::uint32_t(op & 255));
        else if (tt.probe(keys[i], v))
          sum += v;
      }
      ns[t] = seconds_since(start) * 1e9 / double(kOps);
      g_sink.fetch_add(std::uint64_t(sum) & 1, std::memory_order_relaxed);
    });
  for (auto& t : ts) t.join();
  double total = 0;
  for (const double x : ns) total += x;
  return total / double(threads);
}

void trace_metrics(double ops, std::map<std::string, double>& m,
                   std::uint64_t req_lo, std::uint64_t req_hi) {
  const double n = ops > 0 ? ops : 1;
  for (const auto& [module, ns] : tracer().self_ns_by_module(req_lo, req_hi))
    m["trace.self_ms_per_op." + module] = ns / n / 1e6;
  m["trace.spans_per_op"] = double(tracer().count(req_lo, req_hi)) / n;
}

}  // namespace gtbench
