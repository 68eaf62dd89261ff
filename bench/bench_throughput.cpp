// bench_throughput — internal performance of the evaluation machinery.
//
// Two modes:
//
//  (default)      google-benchmark micro benchmarks of the lock-step
//                 simulators (steps / node expansions per second). A
//                 regression guard for the implementation, not an
//                 experiment.
//
//  --throughput   multi-tree requests/sec of the batched engine on a
//                 zero-leaf-cost mixed stream: the scheduler itself is the
//                 bottleneck. Work-stealing engine at workers 1/2/4/8,
//                 shared TT off, plus a grain-off ablation at 8 workers
//                 (grain pinned to always-spawn: the task count that
//                 adaptive granularity saves). End-to-end CPU-bound engine
//                 throughput and tail latency are gtbench's batch-cpu
//                 workload (BENCHMARK.json); this mode keeps the checks
//                 that are deterministic or robust on a noisy host.
//
//                 Reports sustained requests/sec, request-dispatch and
//                 end-to-end completion latency (avg / p99 / p99.9 over
//                 the per-request samples of the best repetition), and
//                 scheduler task counts. Also times the SoA batch leaf
//                 kernels (solve/batch_kernels.hpp) against the plain flat
//                 kernels on a leaf-heavy tree sweep — the ablation for the
//                 vectorized leaf-frontier floor. Options:
//                    --quick        smaller stream, fewer reps
//                    --json PATH    write results as JSON (default
//                                   BENCH_throughput.json)
//                    --check        exit non-zero if any CI gate fails:
//                                   (c) adaptive granularity cuts
//                                   scheduler tasks by less than 10x on
//                                   the zero-cost workload, or (e) the
//                                   batch leaf kernels are slower than the
//                                   plain flat kernels on the leaf-heavy
//                                   sweep
//                    --faults       also measure the resilience layer: the
//                                   4-worker workload re-run with the leaf
//                                   hook + retry plumbing engaged at ZERO
//                                   fault rate, interleaved rep by rep with
//                                   the bare workload (the median per-rep
//                                   overhead is recorded as
//                                   resilience_overhead_at_zero_faults,
//                                   expected < 3%; with --check it fails
//                                   above 10%), and once more under a 10%
//                                   transient-fault storm with retries
//                                   (throughput under chaos, informational)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "bench/bench_util.hpp"
#include "gtpar/ab/minimax_simulator.hpp"
#include "gtpar/common.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/engine/resilience.hpp"
#include "gtpar/expand/nor_expansion.hpp"
#include "gtpar/expand/tree_source.hpp"
#include "gtpar/solve/batch_kernels.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/solve/nor_simulator.hpp"
#include "gtpar/solve/sequential_solve.hpp"
#include "gtpar/tree/generators.hpp"

namespace gtpar {
namespace {

// --- Micro benchmarks (unchanged role: simulator regression guard). ---------

void BM_SequentialSolveRecursive(benchmark::State& state) {
  const Tree t = make_worst_case_nor(2, unsigned(state.range(0)), false);
  for (auto _ : state) benchmark::DoNotOptimize(sequential_solve_work(t));
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(t.num_leaves()));
}
BENCHMARK(BM_SequentialSolveRecursive)->Arg(12)->Arg(16);

void BM_ParallelSolveLockStep(benchmark::State& state) {
  const Tree t = make_worst_case_nor(2, unsigned(state.range(0)), false);
  std::uint64_t work = 0;
  for (auto _ : state) {
    const auto run = run_parallel_solve(t, 1);
    benchmark::DoNotOptimize(run.value);
    work = run.stats.work;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(work));
}
BENCHMARK(BM_ParallelSolveLockStep)->Arg(12)->Arg(16);

void BM_ParallelAbLockStep(benchmark::State& state) {
  const Tree t = make_worst_case_minimax(2, unsigned(state.range(0)));
  std::uint64_t work = 0;
  for (auto _ : state) {
    const auto run = run_parallel_ab(t, 1);
    benchmark::DoNotOptimize(run.value);
    work = run.stats.work;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(work));
}
BENCHMARK(BM_ParallelAbLockStep)->Arg(10)->Arg(12);

void BM_NodeExpansion(benchmark::State& state) {
  const WorstCaseNorSource src(2, unsigned(state.range(0)), false);
  std::uint64_t work = 0;
  for (auto _ : state) {
    const auto run = run_n_parallel_solve(src, 1);
    benchmark::DoNotOptimize(run.value);
    work = run.stats.work;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(work));
}
BENCHMARK(BM_NodeExpansion)->Arg(12)->Arg(14);

// --- Engine throughput mode. ------------------------------------------------

struct CellResult {
  unsigned workers = 0;
  const char* scheduler = "";
  std::size_t requests = 0;
  std::uint64_t wall_ns = 0;  // best repetition
  double rps = 0.0;           // requests/sec at the best repetition
  /// Per-request latency distribution at the best repetition, sampled from
  /// the job handles (SearchJob::dispatch_ns / completion_ns).
  std::uint64_t avg_dispatch_ns = 0;
  std::uint64_t max_dispatch_ns = 0;
  std::uint64_t p99_dispatch_ns = 0;
  std::uint64_t p999_dispatch_ns = 0;
  std::uint64_t avg_completion_ns = 0;
  std::uint64_t p99_completion_ns = 0;
  std::uint64_t p999_completion_ns = 0;
  WorkStealingStats sched_stats{};
};

/// A tree plus which value domain it carries (NOR trees hold {0,1} leaves,
/// MIN/MAX trees arbitrary values); the Tree class itself doesn't know.
struct TaggedTree {
  Tree tree;
  bool minimax = false;
};

/// Mixed zero-leaf-cost workload over the tree set: the stream is
/// scheduler-bound (submit, wake, steal dominate). `grain` is the
/// per-request task granularity (0 = auto-calibrated, 1 = always spawn).
std::vector<SearchRequest> build_workload(const std::vector<TaggedTree>& trees,
                                          std::size_t count,
                                          std::uint64_t grain = 0) {
  std::vector<SearchRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const TaggedTree& t = trees[i % trees.size()];
    SearchRequest req;
    req.tree = &t.tree;
    req.grain = grain;
    req.width = 1 + unsigned(i % 3);
    req.algorithm =
        t.minimax ? Algorithm::kMtParallelAb : Algorithm::kMtParallelSolve;
    reqs.push_back(req);
  }
  return reqs;
}

/// One engine cell: a fresh Engine per repetition (stats are per-rep),
/// best-of-reps wall time, shared TT off.
CellResult run_cell(unsigned workers, const std::vector<SearchRequest>& reqs,
                    int reps, const char* label = "work-stealing") {
  CellResult cell;
  cell.workers = workers;
  cell.scheduler = label;
  cell.requests = reqs.size();
  cell.wall_ns = UINT64_MAX;
  std::vector<double> dispatch_ns, completion_ns;  // best repetition's samples
  for (int rep = 0; rep < reps; ++rep) {
    Engine::Options opt;
    opt.workers = workers;
    opt.tt_entries = 0;
    Engine eng(opt);
    std::vector<SearchJob> jobs;
    jobs.reserve(reqs.size());
    // Submit the whole stream, then wait in order — what run_all() does,
    // inlined so the per-request latency samples can be harvested from
    // the job handles afterwards.
    const auto start = std::chrono::steady_clock::now();
    for (const SearchRequest& req : reqs) jobs.push_back(eng.submit(req));
    for (SearchJob& job : jobs)
      if (!job.wait().complete)
        std::fprintf(stderr, "warning: incomplete search\n");
    const auto end = std::chrono::steady_clock::now();
    const auto wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
    if (wall < cell.wall_ns) {
      cell.wall_ns = wall;
      const EngineStats s = eng.stats();
      cell.avg_dispatch_ns = s.completed ? s.total_dispatch_ns / s.completed : 0;
      cell.max_dispatch_ns = s.max_dispatch_ns;
      cell.sched_stats = s.scheduler;
      dispatch_ns.clear();
      completion_ns.clear();
      for (SearchJob& job : jobs) {
        dispatch_ns.push_back(double(job.dispatch_ns()));
        completion_ns.push_back(double(job.completion_ns()));
      }
    }
  }
  cell.rps = double(cell.requests) / (double(cell.wall_ns) / 1e9);
  if (!completion_ns.empty()) {
    double sum = 0.0;
    for (const double c : completion_ns) sum += c;
    cell.avg_completion_ns =
        std::uint64_t(sum / double(completion_ns.size()));
    // percentile() sorts in place, so the two quantiles share one sort.
    cell.p99_dispatch_ns = std::uint64_t(bench::percentile(dispatch_ns, 0.99));
    cell.p999_dispatch_ns =
        std::uint64_t(bench::percentile(dispatch_ns, 0.999));
    cell.p99_completion_ns =
        std::uint64_t(bench::percentile(completion_ns, 0.99));
    cell.p999_completion_ns =
        std::uint64_t(bench::percentile(completion_ns, 0.999));
  }
  return cell;
}

// --- Resilience overhead cells (--faults). ----------------------------------

/// Stateless no-op hook: prices the per-leaf injection point + retry
/// bookkeeping on the hot path with nothing ever thrown. The measured
/// slowdown vs the bare 4-worker cell is the cost every production caller
/// pays for having the resilience layer armed.
class NoopHook final : public LeafHook {
 public:
  void on_leaf(NodeId, unsigned) override {}
};

/// Deterministic transient-fault storm: ~`rate` of leaves throw on their
/// first evaluation attempt and succeed on retry. Stateless schedule (a
/// hash of the leaf id), so concurrent workers and repeated repetitions
/// see the same faults.
class FlakyHook final : public LeafHook {
 public:
  FlakyHook(std::uint64_t seed, double rate) : seed_(seed), rate_(rate) {}
  void on_leaf(NodeId leaf, unsigned attempt) override {
    if (attempt > 0) return;
    if (to_unit_double(mix64(hash_combine(seed_, leaf))) < rate_) {
      faults_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("bench: injected transient leaf fault");
    }
  }
  std::uint64_t faults() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t seed_;
  const double rate_;
  std::atomic<std::uint64_t> faults_{0};
};

/// Copy of the workload with the resilience layer armed on every request.
std::vector<SearchRequest> with_resilience(std::vector<SearchRequest> reqs,
                                           LeafHook* hook, unsigned attempts) {
  for (SearchRequest& req : reqs) {
    req.leaf_hook = hook;
    req.retry.max_attempts = attempts;
  }
  return reqs;
}

/// Bare/armed pairs behind resilience_overhead_at_zero_faults (odd, so the
/// median is one pair's ratio).
constexpr int kOverheadPairs = 51;

/// Zero-fault overhead of the resilience layer at 4 workers: `pairs`
/// single-repetition runs of the bare stream and of the same stream with
/// the inert hook armed, interleaved so that a busy spell of the host hits
/// both streams alike. The estimate is the median over pairs of bare rps /
/// armed rps - 1. `armed_cell` receives the fastest armed run, for the
/// table.
double resilience_overhead(const std::vector<SearchRequest>& bare,
                           const std::vector<SearchRequest>& armed, int pairs,
                           CellResult& armed_cell) {
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    // Alternate which stream runs first, so neither always inherits the
    // other's engine teardown.
    CellResult a, b;
    if (i % 2 == 0) {
      b = run_cell(4, bare, 1);
      a = run_cell(4, armed, 1, "ws+inert-hook");
    } else {
      a = run_cell(4, armed, 1, "ws+inert-hook");
      b = run_cell(4, bare, 1);
    }
    if (a.rps > 0.0) ratios.push_back(b.rps / a.rps - 1.0);
    if (i == 0 || a.rps > armed_cell.rps) armed_cell = a;
  }
  return ratios.empty() ? 0.0 : bench::percentile(ratios, 0.5);
}

// --- Batch-kernel ablation (the vectorized leaf-frontier floor). ------------

/// Best-of-`reps` wall time of `fn` applied to every tree in order.
template <class Fn>
std::uint64_t time_best_ns(const std::vector<Tree>& trees, int reps, Fn&& fn) {
  std::uint64_t best = UINT64_MAX;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const Tree& t : trees) fn(t);
    const auto end = std::chrono::steady_clock::now();
    best = std::min(best, static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
  }
  return best;
}

struct BatchAblation {
  std::uint64_t leaves = 0;          // total leaves per sweep (context)
  std::uint64_t solve_flat_ns = 0;   // flat_solve over the NOR sweep
  std::uint64_t solve_batch_ns = 0;  // flat_solve_batch
  std::uint64_t ab_flat_ns = 0;
  std::uint64_t ab_batch_ns = 0;
  double solve_speedup = 0.0;  // flat / batch — the gated ratio
  double ab_speedup = 0.0;
};

/// Times the plain flat kernels against their batch-floored variants on
/// leaf-heavy trees: wide uniform trees put most internal nodes on the
/// leaf frontier, which is exactly the population the SoA batch reductions
/// serve. Branching 8 keeps the frontier spans a whole number of 8-wide
/// blocks; branching 5 exercises the ragged tail.
BatchAblation run_batch_ablation(int reps) {
  std::vector<Tree> nor_trees, mm_trees;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    nor_trees.push_back(make_uniform_iid_nor(8, 4, golden_bias(), seed));
    nor_trees.push_back(make_uniform_iid_nor(5, 5, golden_bias(), 16 + seed));
    mm_trees.push_back(make_uniform_iid_minimax(8, 4, -1000, 1000, seed));
    mm_trees.push_back(
        make_uniform_iid_minimax(5, 5, -1000, 1000, 16 + seed));
  }
  BatchAblation a;
  for (const Tree& t : nor_trees) a.leaves += t.num_leaves();
  for (const Tree& t : mm_trees) a.leaves += t.num_leaves();

  std::uint64_t sink = 0;  // keep the searches observable
  a.solve_flat_ns = time_best_ns(nor_trees, reps, [&](const Tree& t) {
    sink += flat_solve(t).leaves_evaluated;
  });
  a.ab_flat_ns = time_best_ns(mm_trees, reps, [&](const Tree& t) {
    sink += flat_alphabeta(t).leaves_evaluated;
  });
  a.solve_batch_ns = time_best_ns(nor_trees, reps, [&](const Tree& t) {
    sink += flat_solve_batch(t).leaves_evaluated;
  });
  a.ab_batch_ns = time_best_ns(mm_trees, reps, [&](const Tree& t) {
    sink += flat_alphabeta_batch(t).leaves_evaluated;
  });
  benchmark::DoNotOptimize(sink);

  a.solve_speedup =
      a.solve_batch_ns > 0 ? double(a.solve_flat_ns) / double(a.solve_batch_ns)
                           : 0.0;
  a.ab_speedup =
      a.ab_batch_ns > 0 ? double(a.ab_flat_ns) / double(a.ab_batch_ns) : 0.0;
  return a;
}

/// Headline ratios reported at the top of the JSON (and gated by --check).
struct Headlines {
  double task_reduction_auto_grain = 0.0;  // always-spawn tasks / auto tasks
  double batch_kernel_speedup = 0.0;       // min(solve, ab) flat/batch ratio
};

void write_json(const char* path, const std::vector<CellResult>& cells,
                std::size_t requests, int reps, const Headlines& h,
                const BatchAblation& batch, bool faults,
                double zero_fault_overhead, double storm_rps_ratio) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"engine_throughput\",\n");
  std::fprintf(f, "  \"workload\": {\"requests\": %zu, \"repetitions\": %d, "
                  "\"widths\": [1, 2, 3], \"leaf_cost_ns\": 0},\n",
               requests, reps);
  std::fprintf(f, "  \"headline\": {\n");
  std::fprintf(f, "    \"task_reduction_auto_grain_vs_always_spawn\": %.1f,\n",
               h.task_reduction_auto_grain);
  std::fprintf(f, "    \"batch_kernel_speedup\": %.3f\n",
               h.batch_kernel_speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"batch_kernels\": {\"leaves_per_sweep\": %llu,\n",
               static_cast<unsigned long long>(batch.leaves));
  std::fprintf(f, "    \"solve_flat_ns\": %llu, \"solve_batch_ns\": %llu, "
                  "\"solve_speedup\": %.3f,\n",
               static_cast<unsigned long long>(batch.solve_flat_ns),
               static_cast<unsigned long long>(batch.solve_batch_ns),
               batch.solve_speedup);
  std::fprintf(f, "    \"ab_flat_ns\": %llu, \"ab_batch_ns\": %llu, "
                  "\"ab_speedup\": %.3f},\n",
               static_cast<unsigned long long>(batch.ab_flat_ns),
               static_cast<unsigned long long>(batch.ab_batch_ns),
               batch.ab_speedup);
  if (faults) {
    std::fprintf(f, "  \"resilience_overhead_at_zero_faults\": %.4f,\n",
                 zero_fault_overhead);
    std::fprintf(f, "  \"retry_storm_rps_over_plain\": %.3f,\n", storm_rps_ratio);
  }
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        f,
        "    {\"workers\": %u, \"scheduler\": \"%s\", \"requests\": %zu, "
        "\"wall_ns\": %llu, \"requests_per_sec\": %.1f, "
        "\"avg_dispatch_ns\": %llu, \"max_dispatch_ns\": %llu, "
        "\"p99_dispatch_ns\": %llu, \"p999_dispatch_ns\": %llu, "
        "\"avg_completion_ns\": %llu, \"p99_completion_ns\": %llu, "
        "\"p999_completion_ns\": %llu, "
        "\"tasks_executed\": %llu, \"steals\": %llu, \"inline_runs\": %llu, "
        "\"parks\": %llu}%s\n",
        c.workers, c.scheduler, c.requests,
        static_cast<unsigned long long>(c.wall_ns), c.rps,
        static_cast<unsigned long long>(c.avg_dispatch_ns),
        static_cast<unsigned long long>(c.max_dispatch_ns),
        static_cast<unsigned long long>(c.p99_dispatch_ns),
        static_cast<unsigned long long>(c.p999_dispatch_ns),
        static_cast<unsigned long long>(c.avg_completion_ns),
        static_cast<unsigned long long>(c.p99_completion_ns),
        static_cast<unsigned long long>(c.p999_completion_ns),
        static_cast<unsigned long long>(c.sched_stats.executed),
        static_cast<unsigned long long>(c.sched_stats.steals),
        static_cast<unsigned long long>(c.sched_stats.inline_runs),
        static_cast<unsigned long long>(c.sched_stats.parks),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int run_throughput(bool quick, const char* json_path, bool check, bool faults) {
  // Tree mix: pruning-friendly NOR, worst-case NOR (deep spines, many
  // scouts), and MIN/MAX — different cascade shapes and task counts.
  std::vector<TaggedTree> trees;
  for (unsigned seed = 1; seed <= 4; ++seed)
    trees.push_back({make_uniform_iid_nor(2, 10, golden_bias(), seed), false});
  trees.push_back({make_worst_case_nor(2, 9, false), false});
  trees.push_back({make_worst_case_nor(3, 6, false), false});
  for (unsigned seed = 1; seed <= 4; ++seed)
    trees.push_back({make_uniform_iid_minimax(2, 9, -100, 100, seed), true});

  const std::size_t count = quick ? 64 : 256;
  const int reps = quick ? 3 : 5;
  const std::vector<SearchRequest> reqs = build_workload(trees, count);

  std::printf("engine throughput: %zu mixed requests, best of %d reps\n\n", count,
              reps);
  std::printf("| workers | scheduler         | req/s    | avg dispatch | p99 dispatch | p99 compl    | tasks  | steals |\n");
  std::printf("|---------|-------------------|----------|--------------|--------------|--------------|--------|--------|\n");

  std::vector<CellResult> cells;
  double ws4 = 0.0;
  std::uint64_t tasks_auto_8 = 0;
  const auto emit = [&](const CellResult& c) {
    std::printf(
        "| %-7u | %-17s | %-8.0f | %9llu ns | %9llu ns | %9llu ns | "
        "%-6llu | %-6llu |\n",
        c.workers, c.scheduler, c.rps,
        static_cast<unsigned long long>(c.avg_dispatch_ns),
        static_cast<unsigned long long>(c.p99_dispatch_ns),
        static_cast<unsigned long long>(c.p99_completion_ns),
        static_cast<unsigned long long>(c.sched_stats.executed),
        static_cast<unsigned long long>(c.sched_stats.steals));
    cells.push_back(c);
  };

  // Zero-cost grid: scheduler-bound.
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    const CellResult ws = run_cell(workers, reqs, reps);
    emit(ws);
    if (workers == 4) ws4 = ws.rps;
    if (workers == 8) tasks_auto_8 = ws.sched_stats.executed;
  }

  // Granularity ablation at zero cost: the same stream with grain pinned
  // to always-spawn reproduces the pre-grain task flood; the ratio against
  // the auto-grain cell is the task-reduction headline.
  const CellResult grain_off_c0 =
      run_cell(8, build_workload(trees, count, 1), reps, "ws-grain-off");
  emit(grain_off_c0);
  const double task_reduction =
      tasks_auto_8 > 0
          ? double(grain_off_c0.sched_stats.executed) / double(tasks_auto_8)
          : 0.0;

  // Resilience overhead: the 4-worker work-stealing stream with the leaf
  // hook + retry plumbing armed but inert (zero faults actually fired),
  // interleaved with the bare stream, then under a 10% transient-fault
  // storm cleared by retries.
  double zero_fault_overhead = 0.0, storm_ratio = 0.0;
  std::uint64_t storm_faults = 0;
  if (faults) {
    NoopHook noop;
    CellResult armed;
    zero_fault_overhead = resilience_overhead(
        reqs, with_resilience(reqs, &noop, 4), kOverheadPairs, armed);
    FlakyHook flaky(0x9e3779b97f4a7c15ull, 0.10);
    const CellResult storm =
        run_cell(4, with_resilience(reqs, &flaky, 4), reps, "ws+retry-storm");
    emit(armed);
    emit(storm);
    storm_ratio = ws4 > 0.0 ? storm.rps / ws4 : 0.0;
    storm_faults = flaky.faults();
  }

  // Batch-kernel ablation: single-threaded, so it runs after the engine
  // cells rather than interleaved with them. Each sweep is only a few
  // microseconds, so best-of-many is what makes the gated ratio stable
  // on a noisy shared core — a preempted rep never becomes the minimum.
  const BatchAblation batch = run_batch_ablation(quick ? 25 : 50);

  Headlines h;
  h.task_reduction_auto_grain = task_reduction;
  h.batch_kernel_speedup = std::min(batch.solve_speedup, batch.ab_speedup);

  std::printf("\nadaptive granularity task reduction (always-spawn / auto, 8 workers): "
              "%.0fx (%llu -> %llu tasks)\n",
              task_reduction,
              static_cast<unsigned long long>(grain_off_c0.sched_stats.executed),
              static_cast<unsigned long long>(tasks_auto_8));
  std::printf("batch leaf kernels (%llu leaves/sweep): "
              "solve %.2fx over flat (%llu -> %llu ns), "
              "ab %.2fx over flat (%llu -> %llu ns)\n",
              static_cast<unsigned long long>(batch.leaves),
              batch.solve_speedup,
              static_cast<unsigned long long>(batch.solve_flat_ns),
              static_cast<unsigned long long>(batch.solve_batch_ns),
              batch.ab_speedup,
              static_cast<unsigned long long>(batch.ab_flat_ns),
              static_cast<unsigned long long>(batch.ab_batch_ns));
  if (faults) {
    std::printf(
        "\nresilience overhead at zero fault rate (4 workers): %+.2f%% "
        "(target < 3%%)\n",
        zero_fault_overhead * 100.0);
    std::printf(
        "throughput under 10%% transient-fault storm with retries: %.2fx "
        "plain (%llu faults injected and retried)\n",
        storm_ratio, static_cast<unsigned long long>(storm_faults));
  }

  write_json(json_path, cells, count, reps, h, batch, faults,
             zero_fault_overhead, storm_ratio);

  if (check && task_reduction < 10.0) {
    std::fprintf(stderr,
                 "FAIL: adaptive granularity cut scheduler tasks by only "
                 "%.1fx on the zero-cost workload (gate: 10x)\n",
                 task_reduction);
    return 1;
  }
  if (check && h.batch_kernel_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: batch leaf kernels slower than the plain flat "
                 "kernels on the leaf-heavy sweep (min speedup %.2fx, "
                 "solve %.2fx / ab %.2fx; gate: 1.0x)\n",
                 h.batch_kernel_speedup, batch.solve_speedup,
                 batch.ab_speedup);
    return 1;
  }
  if (check && faults && zero_fault_overhead > 0.10) {
    std::fprintf(stderr,
                 "FAIL: inert resilience plumbing costs %.1f%% at the "
                 "4-worker workload (budget: 3%%, hard gate at 10%% to "
                 "absorb shared-runner noise)\n",
                 zero_fault_overhead * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gtpar

int main(int argc, char** argv) {
  bool throughput = false, quick = false, checkflag = false, faults = false;
  const char* json_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--throughput") == 0) throughput = true;
    else if (std::strcmp(argv[i], "--quick") == 0) { throughput = true; quick = true; }
    else if (std::strcmp(argv[i], "--check") == 0) { throughput = true; checkflag = true; }
    else if (std::strcmp(argv[i], "--faults") == 0) { throughput = true; faults = true; }
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  if (throughput) return gtpar::run_throughput(quick, json_path, checkflag, faults);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
