// E10 — wall-clock evidence with real std::threads: the width-1 cascade
// (mt_solve / mt_ab) against single-threaded baselines under the same
// leaf-cost model. Uses google-benchmark.
//
// Leaf evaluations are modelled as fixed-latency operations (kSleep): this
// matches the paper's unit-cost leaf oracle and — unlike a busy spin —
// demonstrates the overlap benefit even on hosts with few physical cores
// (the CI container for this repository has a single core; on a laptop
// with 8 cores, switch kCostModel to kSpin to see CPU-bound speed-ups).
#include <benchmark/benchmark.h>

#include "gtpar/engine/work_stealing.hpp"
#include "gtpar/threads/mt_ab.hpp"
#include "gtpar/threads/mt_solve.hpp"
#include "gtpar/tree/generators.hpp"

namespace gtpar {
namespace {

constexpr std::uint64_t kLeafNs = 100'000;  // 100 us per leaf evaluation
constexpr LeafCostModel kCostModel = LeafCostModel::kSleep;

const Tree& solve_tree() {
  // Worst case: all 2^10 leaves must be evaluated, so the comparison is
  // pure scheduling (no luck in what gets pruned).
  static const Tree t = make_worst_case_nor(2, 10, false);
  return t;
}

const Tree& ab_tree() {
  static const Tree t = make_worst_case_minimax(2, 10);
  return t;
}

void BM_SequentialSolve(benchmark::State& state) {
  const Tree& t = solve_tree();
  MtSolveOptions opt;
  opt.leaf_cost_ns = kLeafNs;
  opt.cost_model = kCostModel;
  std::uint64_t leaves = 0;
  for (auto _ : state) {
    auto r = mt_sequential_solve(t, opt);
    benchmark::DoNotOptimize(r.value);
    leaves = r.leaf_evaluations;
  }
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_SequentialSolve)->Unit(benchmark::kMillisecond)->MinTime(0.4);

void BM_ParallelSolve(benchmark::State& state) {
  const Tree& t = solve_tree();
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  MtSolveOptions opt;
  opt.leaf_cost_ns = kLeafNs;
  opt.cost_model = kCostModel;
  std::uint64_t leaves = 0;
  for (auto _ : state) {
    auto r = mt_parallel_solve(t, opt, pool);
    benchmark::DoNotOptimize(r.value);
    leaves = r.leaf_evaluations;
  }
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_ParallelSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(11)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.4);

void BM_SequentialAlphaBeta(benchmark::State& state) {
  const Tree& t = ab_tree();
  MtAbOptions opt;
  opt.leaf_cost_ns = kLeafNs;
  opt.cost_model = kCostModel;
  for (auto _ : state) {
    auto r = mt_sequential_ab(t, opt);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_SequentialAlphaBeta)->Unit(benchmark::kMillisecond)->MinTime(0.4);

void BM_ParallelAlphaBeta(benchmark::State& state) {
  const Tree& t = ab_tree();
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  MtAbOptions opt;
  opt.leaf_cost_ns = kLeafNs;
  opt.cost_model = kCostModel;
  for (auto _ : state) {
    auto r = mt_parallel_ab(t, opt, pool);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_ParallelAlphaBeta)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(11)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.4);

}  // namespace
}  // namespace gtpar

BENCHMARK_MAIN();
