// E10 — wall-clock evidence with real std::threads: the width-1 cascade
// (kMtParallelSolve / kMtParallelAb through search(req, pool)) against the
// single-threaded baselines under the same leaf-cost model. Uses
// google-benchmark.
//
// Leaf evaluations are modelled as fixed-latency operations (kSleep): this
// matches the paper's unit-cost leaf oracle and — unlike a busy spin —
// demonstrates the overlap benefit even on hosts with few physical cores
// (the CI container for this repository has a single core; on a laptop
// with 8 cores, switch kCostModel to kSpin to see CPU-bound speed-ups).
#include <benchmark/benchmark.h>

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/work_stealing.hpp"
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

SearchRequest request(const Tree& t, Algorithm algorithm) {
  SearchRequest req;
  req.tree = &t;
  req.algorithm = algorithm;
  req.leaf_cost_ns = kLeafNs;
  req.cost_model = kCostModel;
  return req;
}

void BM_SequentialSolve(benchmark::State& state) {
  const SearchRequest req = request(solve_tree(), Algorithm::kMtSequentialSolve);
  std::uint64_t leaves = 0;
  for (auto _ : state) {
    auto r = search(req);
    benchmark::DoNotOptimize(r.value);
    leaves = r.work;
  }
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_SequentialSolve)->Unit(benchmark::kMillisecond)->MinTime(0.4);

void BM_ParallelSolve(benchmark::State& state) {
  const SearchRequest req = request(solve_tree(), Algorithm::kMtParallelSolve);
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  std::uint64_t leaves = 0;
  for (auto _ : state) {
    auto r = search(req, pool);
    benchmark::DoNotOptimize(r.value);
    leaves = r.work;
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
  const SearchRequest req = request(ab_tree(), Algorithm::kMtSequentialAb);
  for (auto _ : state) {
    auto r = search(req);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_SequentialAlphaBeta)->Unit(benchmark::kMillisecond)->MinTime(0.4);

void BM_ParallelAlphaBeta(benchmark::State& state) {
  const SearchRequest req = request(ab_tree(), Algorithm::kMtParallelAb);
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto r = search(req, pool);
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
