// gtbench/src/batch_cpu.cpp — the batch-cpu workload.
//
// Closed loop on an in-process Engine (default options, W workers, W
// searches outstanding) over a seeded pool of distinct CPU-bound trees
// with zero-cost leaves: half NOR trees on mt-parallel-solve, half
// MIN/MAX trees on mt-parallel-ab (width 2); each family half i.i.d.
// (pruning-heavy) and half i.i.d. reordered worst-first (next to no
// pruning). A pass searches every tree once; the shared table is cleared
// between passes so no search reuses another's result. The traced run
// pairs W-worker passes with rounds of 1-worker passes on the same trees
// for speedup_vs_1w.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/values.hpp"
#include "trace.hpp"

namespace gtbench {
namespace {

using gtpar::Algorithm;
using gtpar::Engine;
using gtpar::NodeId;
using gtpar::SearchRequest;
using gtpar::SearchResult;
using gtpar::Tree;
using gtpar::Value;

constexpr unsigned kPerShape = 12;
constexpr unsigned kSetupReps = 3;

struct Item {
  Tree tree;
  bool minimax = false;
  Value truth = 0;
};

/// Reorder every node's children worst-first for a left-to-right
/// searcher: at MAX nodes ascending by value, at MIN nodes descending;
/// for NOR, the value-1 children (the ones that decide a 0) last.
Tree worst_first(const Tree& t, bool minimax) {
  if (minimax) {
    const std::vector<Value> v = gtpar::minimax_values(t);
    return gtpar::reorder_children(t, [&](NodeId p, std::span<NodeId> kids) {
      const bool maxing = t.depth(p) % 2 == 0;
      std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
        return maxing ? v[a] < v[b] : v[a] > v[b];
      });
    });
  }
  const std::vector<char> v = gtpar::nor_values(t);
  return gtpar::reorder_children(t, [&](NodeId, std::span<NodeId> kids) {
    std::stable_partition(kids.begin(), kids.end(),
                          [&](NodeId a) { return v[a] == 0; });
  });
}

/// The pool's four shapes: (family, worst-first, arity d, height n).
struct Shape {
  bool minimax, worst;
  unsigned d, n;
};
constexpr Shape kShapes[] = {
    {false, false, 2, 13},  // NOR i.i.d.: pruning-heavy, few leaves evaluated
    {false, true, 2, 15},   // NOR worst-first: 32k leaves, next to no pruning
    {true, false, 4, 8},    // MIN/MAX i.i.d.: alpha-beta prunes most of 65k
    {true, true, 4, 7},     // MIN/MAX worst-first: all 16k leaves
};

std::vector<Item> make_pool(std::uint64_t seed) {
  std::vector<Item> pool;
  Rng rng(seed ^ 0xba7c4ull);
  for (unsigned i = 0; i < kPerShape; ++i) {
    for (const Shape& sh : kShapes) {
      Tree t = sh.minimax
                   ? gtpar::make_uniform_iid_minimax(sh.d, sh.n, -1000, 1000, rng.next())
                   : gtpar::make_uniform_iid_nor(sh.d, sh.n, gtpar::golden_bias(), rng.next());
      if (sh.worst) t = worst_first(t, sh.minimax);
      Item it;
      it.minimax = sh.minimax;
      it.truth = sh.minimax ? gtpar::minimax_value(t) : Value(gtpar::nor_value(t));
      it.tree = std::move(t);
      pool.push_back(std::move(it));
    }
  }
  // Seeded interleaving, fixed for the run.
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  return pool;
}

SearchRequest request_for(const Item& it, unsigned workers) {
  SearchRequest r;
  r.tree = &it.tree;
  r.algorithm = it.minimax ? Algorithm::kMtParallelAb : Algorithm::kMtParallelSolve;
  r.width = 2;
  r.threads = workers;
  return r;
}

/// Accumulated results of the passes run on one engine.
struct Phase {
  explicit Phase(std::size_t n) : mt_work(n, 0), searches(n, 0) {}
  std::uint64_t ops = 0, good = 0, failed = 0, wrong = 0, incomplete = 0;
  double wall_s = 0, cpu_s = 0;
  /// Per pass: correct searches per second, and wall time.
  std::vector<double> pass_rates, pass_ms;
  /// Submit-to-completion latency per search, in completion order.
  std::vector<double> latency_ms;
  std::vector<double> dispatch_ms, search_ms;
  std::vector<std::uint64_t> mt_work;  ///< per pool item, summed over passes
  std::vector<std::uint64_t> searches; ///< per pool item
};

/// One closed-loop pass: every pool tree searched once on `eng` with at
/// most `outstanding` searches in flight, the shared table cleared first.
void run_pass(Engine& eng, const std::vector<Item>& pool, unsigned outstanding,
              Phase& ph, std::atomic<std::uint64_t>& next_req) {
  Tracer& tr = tracer();
  struct Slot {
    gtpar::SearchJob job;
    std::int64_t t0 = 0;
    std::uint32_t span = 0;
    std::uint64_t req = 0;
  };
  std::vector<Slot> slots(pool.size());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, std::int64_t>> done;  // (item, end ns)

  auto submit = [&](std::size_t i) {
    Slot& s = slots[i];
    s.req = ++next_req;
    s.t0 = now_ns();
    s.span = tr.open("engine.job", s.req, 0, s.t0);
    s.job = eng.submit(request_for(pool[i], eng.workers()),
                       [&, i](const SearchResult*, std::exception_ptr) {
                         const std::int64_t t = now_ns();
                         std::lock_guard<std::mutex> lock(mu);
                         done.emplace_back(i, t);
                         cv.notify_one();
                       });
    tr.add("engine.submit", s.req, s.span, s.t0, now_ns());
  };

  if (auto* tt = eng.shared_tt()) tt->clear();
  const std::uint64_t good0 = ph.good;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  std::size_t next = 0;
  for (; next < std::min<std::size_t>(outstanding, pool.size()); ++next) submit(next);
  for (std::size_t finished = 0; finished < pool.size(); ++finished) {
    std::pair<std::size_t, std::int64_t> d;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      d = done.back();
      done.pop_back();
    }
    if (next < pool.size()) submit(next++);
    const auto [i, t_end] = d;
    Slot& s = slots[i];
    tr.close(s.span, t_end);
    ++ph.ops;
    ph.latency_ms.push_back(double(t_end - s.t0) / 1e6);
    try {
      const SearchResult& r = s.job.wait();
      const auto disp = static_cast<std::int64_t>(s.job.dispatch_ns());
      ph.dispatch_ms.push_back(double(disp) / 1e6);
      ph.search_ms.push_back(double(r.wall_ns) / 1e6);
      tr.add("engine.dispatch", s.req, s.span, s.t0, s.t0 + disp, true);
      tr.add("threads.search", s.req, s.span, s.t0 + disp,
             s.t0 + disp + static_cast<std::int64_t>(r.wall_ns), true);
      ph.mt_work[i] += r.work;
      ph.searches[i] += 1;
      if (!r.complete) {
        ++ph.incomplete;
        ++ph.failed;
      } else if (r.value != pool[i].truth) {
        ++ph.wrong;
        ++ph.failed;
      } else {
        ++ph.good;
      }
    } catch (const std::exception&) {
      ++ph.failed;
    }
  }
  const double wall = seconds_since(start);
  ph.wall_s += wall;
  ph.cpu_s += process_cpu_s() - cpu0;
  ph.pass_rates.push_back(double(ph.good - good0) / wall);
  ph.pass_ms.push_back(wall * 1e3);
  eng.drain();  // every job's accounting is done before the next clear
}

/// The 1-worker baseline: each of the W single-worker engines runs one
/// pass at the same time, so the baseline sees the same host (every core
/// busy) as the W-worker pass. Records the mean per-engine pass rate.
void solo_round(const std::vector<std::unique_ptr<Engine>>& solos,
                const std::vector<Item>& pool, Phase& ph,
                std::atomic<std::uint64_t>& next_req) {
  std::vector<Phase> per(solos.size(), Phase(pool.size()));
  std::vector<std::thread> ts;
  for (std::size_t k = 0; k < solos.size(); ++k)
    ts.emplace_back([&, k] { run_pass(*solos[k], pool, 1, per[k], next_req); });
  for (auto& t : ts) t.join();
  double rate = 0;
  for (const Phase& p : per) {
    rate += p.pass_rates[0] / double(per.size());
    ph.ops += p.ops;
    ph.good += p.good;
    ph.failed += p.failed;
    ph.wrong += p.wrong;
  }
  ph.pass_rates.push_back(rate);
}

/// Count one probe search of `it` in `o`; its value must be the truth.
void check(const Item& it, const SearchResult& r, Outcome& o) {
  ++o.attempted;
  if (r.value != it.truth) {
    ++o.wrong;
    ++o.failed;
  }
}

/// Single-threaded flat-kernel cost on the pool: ns per leaf evaluated,
/// and the flat leaf count of each tree (the work-ratio denominator).
void flat_kernels(const std::vector<Item>& pool, std::vector<std::uint64_t>& flat_work,
                  Outcome& o) {
  double ns[2] = {0, 0}, leaves[2] = {0, 0};
  flat_work.assign(pool.size(), 0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bool mm = pool[i].minimax;
    SearchRequest r;
    r.tree = &pool[i].tree;
    r.algorithm = mm ? Algorithm::kFlatAb : Algorithm::kFlatSolve;
    Scoped span(mm ? "solve.flat_ab" : "solve.flat_solve", 0);
    const auto start = Clock::now();
    SearchResult res;
    constexpr int kReps = 5;
    for (int k = 0; k < kReps; ++k) res = gtpar::search(r);
    ns[mm] += seconds_since(start) * 1e9;
    leaves[mm] += double(res.work) * kReps;
    flat_work[i] = res.work;
    check(pool[i], res, o);
  }
  o.metrics["solve.flat_solve_ns_per_leaf"] = ns[0] / std::max(1.0, leaves[0]);
  o.metrics["solve.flat_ab_ns_per_leaf"] = ns[1] / std::max(1.0, leaves[1]);
}

/// Lock-step bounded simulators (threads = W, width 2) on the first two
/// trees of each family in the pool: the paper's S(T)/P_w(T) and work, as
/// a reference ceiling.
void simulators(const std::vector<Item>& pool, unsigned workers, Outcome& o) {
  double seq_steps[2] = {0, 0}, par_steps[2] = {0, 0}, seq_work[2] = {0, 0},
         par_work[2] = {0, 0};
  unsigned taken[2] = {0, 0};
  for (const Item& it : pool) {
    const bool mm = it.minimax;
    if (taken[mm] == 2) continue;
    ++taken[mm];
    SearchRequest r;
    r.tree = &it.tree;
    r.width = 2;
    r.threads = workers;
    Scoped span(mm ? "sim.parallel_ab_bounded" : "sim.parallel_solve_bounded", 0);
    r.algorithm = mm ? Algorithm::kSequentialAb : Algorithm::kSequentialSolve;
    const SearchResult s = gtpar::search(r);
    r.algorithm = mm ? Algorithm::kParallelAbBounded : Algorithm::kParallelSolveBounded;
    const SearchResult p = gtpar::search(r);
    check(it, s, o);
    check(it, p, o);
    seq_steps[mm] += double(s.steps);
    par_steps[mm] += double(p.steps);
    seq_work[mm] += double(s.work);
    par_work[mm] += double(p.work);
  }
  for (int mm = 0; mm < 2; ++mm) {
    const char* fam = mm ? "ab" : "solve";
    o.metrics[fmt("sim.bounded_speedup_%s", fam)] =
        seq_steps[mm] / std::max(1.0, par_steps[mm]);
    o.metrics[fmt("sim.work_ratio_%s", fam)] = par_work[mm] / std::max(1.0, seq_work[mm]);
  }
}

}  // namespace

Outcome run_batch_cpu(const RunConfig& cfg, HostControl& host) {
  Outcome o;
  const unsigned W = cfg.workers;
  std::vector<Item> pool;
  std::unique_ptr<Engine> eng;
  std::vector<std::unique_ptr<Engine>> solos;  // W single-worker engines
  std::vector<double> setups;
  host.before_phase("set-up");
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    pool.clear();
    eng.reset();
    solos.clear();
    const auto t = Clock::now();
    pool = make_pool(cfg.seed);
    eng = std::make_unique<Engine>(Engine::Options{.workers = W});
    for (unsigned k = 0; k < W; ++k)
      solos.push_back(std::make_unique<Engine>(Engine::Options{.workers = 1}));
    setups.push_back(seconds_since(t));
  }
  o.metrics["setup_s"] = median(setups);
  std::atomic<std::uint64_t> req{0};
  auto tally = [&](const Phase& p) {
    o.attempted += p.ops;
    o.failed += p.failed;
    o.wrong += p.wrong;
  };

  if (!cfg.trace) {
    Phase pw(pool.size());
    host.before_phase("batch-cpu W-worker passes");
    const auto start = Clock::now();
    while (pw.pass_rates.size() < 3 || seconds_since(start) < 0.9 * cfg.seconds)
      run_pass(*eng, pool, W, pw, req);
    tally(pw);
    const double rate_w = median(pw.pass_rates);
    o.metrics["ops_per_s"] = rate_w;
    // p50 is the batch's latency, the median time to finish one pass of
    // the whole pool; in this closed loop it follows ops_per_s and adds no
    // gate of its own. p99 is the per-search tail, per window of about
    // 1000 searches in completion order (README.md explains both).
    const std::size_t n = pw.latency_ms.size(), nwin = std::max<std::size_t>(1, n / 1000);
    std::vector<std::vector<double>> windows(nwin);
    for (std::size_t i = 0; i < n; ++i) windows[i * nwin / n].push_back(pw.latency_ms[i]);
    o.metrics["latency_p50_ms"] = percentile(pw.pass_ms, 0.50);
    o.metrics["latency_p99_ms"] = windowed_percentile(windows, 0.99);
    o.notes.push_back(fmt("batch-cpu: pool=%zu trees, W=%u: %llu searches (%llu correct) "
                          "in %zu passes (%.1f/s median pass; pass latency p99 %.3f ms; "
                          "per-search latency p50 %.3f ms, p99 over the run %.3f ms)",
                          pool.size(), W, static_cast<unsigned long long>(pw.ops),
                          static_cast<unsigned long long>(pw.good), pw.pass_rates.size(),
                          rate_w, percentile(pw.pass_ms, 0.99), percentile(pw.latency_ms, 0.50),
                          percentile(pw.latency_ms, 0.99)));
    return o;
  }

  // Traced run: rounds of an untraced W-worker pass (the overhead and
  // speed-up baseline), a traced one, and a 1-worker round (solo_round)
  // on the same trees; then the single-layer probes.
  Phase base(pool.size()), pt(pool.size()), p1(pool.size());
  host.before_phase("batch-cpu untraced/traced/1-worker rounds");
  const gtpar::EngineStats before = eng->stats();
  const auto start = Clock::now();
  while (pt.pass_rates.size() < 3 || seconds_since(start) < 0.6 * cfg.seconds) {
    tracer().set(false);
    run_pass(*eng, pool, W, base, req);
    tracer().set(true);
    run_pass(*eng, pool, W, pt, req);
    tracer().set(false);
    solo_round(solos, pool, p1, req);
  }
  tracer().set(true);
  const gtpar::EngineStats after = eng->stats();
  tally(base);
  tally(pt);
  tally(p1);
  auto& m = o.metrics;
  m["speedup_vs_1w"] = paired_ratio(base.pass_rates, p1.pass_rates);
  m["cpu_ms_per_op"] = base.cpu_s * 1e3 / double(base.ops);
  m["trace.overhead_ratio"] = 1.0 - paired_ratio(pt.pass_rates, base.pass_rates);
  trace_metrics(double(pt.ops), m, 1, kProbeReqBase);
  m["threads.search_ms_p50"] = median(pt.search_ms);
  m["threads.incomplete"] = double(pt.incomplete);
  m["engine.dispatch_wait_ms_p50"] = percentile(pt.dispatch_ms, 0.50);
  m["engine.dispatch_wait_ms_p99"] = percentile(pt.dispatch_ms, 0.99);
  m["engine.busy_ratio"] = (base.cpu_s + pt.cpu_s) / ((base.wall_s + pt.wall_s) * W);
  engine_metrics(before, after, double(base.ops + pt.ops), m);

  std::vector<std::uint64_t> flat_work;
  flat_kernels(pool, flat_work, o);
  double mt[2] = {0, 0}, flat[2] = {0, 0};
  for (std::size_t i = 0; i < pool.size(); ++i) {
    mt[pool[i].minimax] += double(pt.mt_work[i]);
    flat[pool[i].minimax] += double(flat_work[i]) * double(pt.searches[i]);
  }
  m["threads.work_ratio_solve"] = mt[0] / std::max(1.0, flat[0]);
  m["threads.work_ratio_ab"] = mt[1] / std::max(1.0, flat[1]);
  simulators(pool, W, o);
  m["engine.tt_op_ns_1t"] = tt_op_ns(1);
  m["engine.tt_op_ns_wt"] = tt_op_ns(W);
  // batch-cpu bypasses the service path; its layers are measured on the
  // service mix here (README.md, "Service-layer probe").
  service_layer_probe(cfg, host, 0.15 * cfg.seconds, o);
  o.notes.push_back(fmt("batch-cpu traced: %llu searches (%.1f/s) vs untraced "
                        "%.1f/s, %zu spans",
                        static_cast<unsigned long long>(pt.ops),
                        median(pt.pass_rates), median(base.pass_rates),
                        tracer().size()));
  return o;
}

}  // namespace gtbench
