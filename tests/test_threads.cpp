// Real-thread implementations: the work-stealing pool's task lifecycle,
// and the Mt cascades run through search(req, pool) on a test-owned
// pool — correctness under
// concurrency (stress over many seeds and shapes), cancellation/promotion
// behaviour, and sanity of the work accounting. Wall-clock speed-ups are
// measured in bench E10.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "anytime_checks.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/engine/work_stealing.hpp"
#include "gtpar/solve/sequential_solve.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

/// A request for one of the Mt cascades with free leaves; tests set the
/// tree and the knobs they exercise.
SearchRequest mt_request(Algorithm algorithm, const Tree* tree = nullptr) {
  SearchRequest req;
  req.algorithm = algorithm;
  req.tree = tree;
  req.leaf_cost_ns = 0;
  return req;
}

TEST(WorkStealingPool, AtLeastOneWorker) {
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(0);
    EXPECT_EQ(pool.workers(), 1u);
    pool.submit([&count] { ++count; });
  }
  EXPECT_EQ(count.load(), 1);
}

// ---------------------------------------------------------------------------
// TSan-targeted stress regressions. The sanitizer audit of this module
// (full suite plus the stress patterns below under -fsanitize=thread)
// surfaced no data races — the shutdown drain and the claim/steal/finish
// latches are release/acquire-correct — so these tests exist to keep it
// that way: they concentrate the suspect interleavings (destructor racing
// queued tasks, zero-cost leaf storms, promotion on/off) so any future
// locking regression trips the TSan CI job here first.

TEST(WorkStealingPool, DestructorDrainsWhileWorkersAreStillClaiming) {
  // Destroy the pool immediately after a burst of submissions, repeatedly:
  // the shutdown path must observe every queued task exactly once.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    {
      WorkStealingPool pool(4);
      for (int i = 0; i < 200; ++i) pool.submit([&count] { ++count; });
    }
    ASSERT_EQ(count.load(), 200) << "round " << round;
  }
}

TEST(WorkStealingPool, SubmissionFromWorkerThreads) {
  // Tasks that submit follow-up tasks exercise the deques under concurrent
  // producers; the drain must still run all of them.
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count, &pool] {
        ++count;
        pool.submit([&count] { ++count; });
      });
    // Give the first generation time to enqueue the second before shutdown.
    while (count.load() < 100) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(MtSolve, ZeroCostContentionStorm) {
  // leaf_cost_ns = 0 with many threads and a wide frontier maximizes
  // claim/steal contention; every repeat must agree with ground truth.
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelSolve);
  req.width = 3;
  req.grain = 1;  // always spawn: this test exists to stress the scheduler
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    const Tree t = make_uniform_iid_nor(3, 6, 0.618, seed);
    req.tree = &t;
    const bool truth = nor_value(t);
    for (int rep = 0; rep < 10; ++rep)
      ASSERT_EQ(search(req, pool).value != 0, truth)
          << "seed " << seed << " rep " << rep;
  }
}

TEST(MtAb, ZeroCostContentionStormWithAndWithoutPromotion) {
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  req.width = 3;
  req.grain = 1;  // always spawn: this test exists to stress the scheduler
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const Tree t = make_uniform_iid_minimax(3, 5, -5, 5, seed);
    req.tree = &t;
    const Value truth = minimax_value(t);
    for (const bool promo : {true, false}) {
      req.promotion = promo;
      for (int rep = 0; rep < 10; ++rep)
        ASSERT_EQ(search(req, pool).value, truth)
            << "seed " << seed << " promotion " << promo << " rep " << rep;
    }
  }
}

using MtParams = std::tuple<unsigned, unsigned, unsigned, std::uint64_t>;
class MtSolveSweep : public ::testing::TestWithParam<MtParams> {};

TEST_P(MtSolveSweep, ValueMatchesGroundTruth) {
  const auto [d, n, threads, seed] = GetParam();
  const Tree t = make_uniform_iid_nor(d, n, 0.618, seed);
  const bool truth = nor_value(t);
  WorkStealingPool pool(threads);
  // Zero leaf cost stresses scheduling, not the spin.
  SearchRequest req = mt_request(Algorithm::kMtParallelSolve, &t);
  req.grain = 1;  // always spawn (auto grain would run these inline)
  const auto r = search(req, pool);
  EXPECT_EQ(r.value != 0, truth);
  EXPECT_LE(r.work, t.num_leaves());
  EXPECT_GT(r.work, 0u);
}

INSTANTIATE_TEST_SUITE_P(Grid, MtSolveSweep,
                         ::testing::Combine(::testing::Values(2u, 3u),
                                            ::testing::Values(6u, 9u),
                                            ::testing::Values(1u, 2u, 8u),
                                            ::testing::Values(0ull, 1ull, 2ull, 3ull)));

TEST(MtSolve, RepeatedRunsAreStable) {
  // Rerun the same instance many times to shake out races.
  const Tree t = make_uniform_iid_nor(2, 10, 0.618, 42);
  const bool truth = nor_value(t);
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelSolve, &t);
  req.grain = 1;  // always spawn: races only exist with real scouts
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(search(req, pool).value != 0, truth) << "iteration " << i;
  }
}

TEST(MtSolve, WorstCaseInstance) {
  const Tree t = make_worst_case_nor(2, 10, false);
  WorkStealingPool pool(8);
  const auto r = search(mt_request(Algorithm::kMtParallelSolve, &t), pool);
  EXPECT_EQ(r.value, 0);
  EXPECT_EQ(r.work, t.num_leaves())
      << "the adversarial instance forces every leaf";
}

TEST(MtSolve, WorkStaysWithinConstantFactorOfSequential) {
  // Corollary 1 in the real-thread setting: total distinct leaves evaluated
  // by the parallel run is at most a small multiple of S(T).
  WorkStealingPool pool(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Tree t = make_uniform_iid_nor(2, 12, 0.618, seed);
    const std::uint64_t s = sequential_solve_work(t);
    const auto r = search(mt_request(Algorithm::kMtParallelSolve, &t), pool);
    EXPECT_LE(r.work, 4 * s + 16) << "seed " << seed;
  }
}

TEST(MtSolve, SequentialBaselineMatchesModelWork) {
  const Tree t = make_uniform_iid_nor(2, 10, 0.618, 9);
  const auto r = search(mt_request(Algorithm::kMtSequentialSolve, &t));
  EXPECT_EQ(r.value != 0, nor_value(t));
  EXPECT_EQ(r.work, sequential_solve_work(t));
}

TEST(MtSolve, HigherWidthsStayCorrect) {
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelSolve);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Tree t = make_uniform_iid_nor(3, 7, 0.5, seed);
    req.tree = &t;
    const bool truth = nor_value(t);
    for (unsigned w : {2u, 3u}) {
      req.width = w;
      const auto r = search(req, pool);
      EXPECT_EQ(r.value != 0, truth) << "seed=" << seed << " width=" << w;
      EXPECT_LE(r.work, t.num_leaves());
    }
  }
}

TEST(MtSolve, RaggedTrees) {
  RandomShapeParams p;
  p.d_min = 2;
  p.d_max = 4;
  p.n_min = 4;
  p.n_max = 8;
  WorkStealingPool pool(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Tree t = make_random_shape_nor(p, 0.55, seed);
    EXPECT_EQ(search(mt_request(Algorithm::kMtParallelSolve, &t), pool).value != 0,
              nor_value(t))
        << "seed " << seed;
  }
}

class MtAbSweep : public ::testing::TestWithParam<MtParams> {};

TEST_P(MtAbSweep, ValueMatchesGroundTruth) {
  const auto [d, n, threads, seed] = GetParam();
  const Tree t = make_uniform_iid_minimax(d, n, -1000, 1000, seed);
  WorkStealingPool pool(threads);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb, &t);
  req.grain = 1;  // always spawn (auto grain would run these inline)
  const auto r = search(req, pool);
  EXPECT_EQ(r.value, minimax_value(t));
}

INSTANTIATE_TEST_SUITE_P(Grid, MtAbSweep,
                         ::testing::Combine(::testing::Values(2u, 3u),
                                            ::testing::Values(6u, 8u),
                                            ::testing::Values(1u, 2u, 8u),
                                            ::testing::Values(0ull, 1ull, 2ull, 3ull)));

TEST(MtAb, TiesHeavyStress) {
  // Narrow value ranges maximize dead-window joins; rerun for stability.
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  req.grain = 1;  // always spawn: dead-window joins need real scouts
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Tree t = make_uniform_iid_minimax(2, 8, 0, 2, seed);
    req.tree = &t;
    const Value truth = minimax_value(t);
    for (int rep = 0; rep < 5; ++rep)
      ASSERT_EQ(search(req, pool).value, truth)
          << "seed " << seed << " rep " << rep;
  }
}

TEST(MtAb, WorstCaseInstance) {
  // Worst-case ordering leaves alpha-beta no cutoff, so every leaf is
  // evaluated, and the private memo's CAS counts each exactly once however
  // the scouts race: the parallel count must equal the leaf count.
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  req.grain = 1;  // always spawn: the count is only contended with scouts
  for (unsigned d : {2u, 3u}) {
    for (unsigned n : {6u, 8u}) {
      const Tree t = make_worst_case_minimax(d, n);
      req.tree = &t;
      const Value truth = minimax_value(t);
      for (unsigned w : {1u, 2u, 3u}) {
        req.width = w;
        for (int rep = 0; rep < 5; ++rep) {
          const auto r = search(req, pool);
          ASSERT_EQ(r.value, truth) << "d=" << d << " n=" << n << " w=" << w;
          ASSERT_EQ(r.work, t.num_leaves())
              << "d=" << d << " n=" << n << " w=" << w << " rep " << rep;
        }
      }
    }
  }
}

TEST(MtAb, HigherWidthsStayCorrect) {
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Tree t = make_uniform_iid_minimax(3, 6, -100, 100, seed);
    req.tree = &t;
    const Value truth = minimax_value(t);
    for (unsigned w : {2u, 3u}) {
      req.width = w;
      EXPECT_EQ(search(req, pool).value, truth) << "seed=" << seed << " w=" << w;
    }
  }
}

TEST(MtAb, NoPromotionStaysCorrect) {
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  req.promotion = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Tree t = make_uniform_iid_minimax(2, 8, 0, 3, seed);
    req.tree = &t;
    EXPECT_EQ(search(req, pool).value, minimax_value(t)) << "seed " << seed;
  }
}

TEST(MtAb, SequentialBaselineMatchesClassic) {
  const Tree t = make_uniform_iid_minimax(2, 8, 0, 1 << 16, 3);
  const auto r = search(mt_request(Algorithm::kMtSequentialAb, &t));
  EXPECT_EQ(r.value, minimax_value(t));
}

TEST(MtAb, OrderedInstances) {
  WorkStealingPool pool(8);
  SearchRequest req = mt_request(Algorithm::kMtParallelAb);
  for (unsigned n = 2; n <= 8; ++n) {
    const Tree best = make_best_case_minimax(2, n);
    req.tree = &best;
    EXPECT_EQ(search(req, pool).value, minimax_value(best)) << "n=" << n;
    const Tree worst = make_worst_case_minimax(2, n);
    req.tree = &worst;
    EXPECT_EQ(search(req, pool).value, minimax_value(worst)) << "n=" << n;
  }
}

TEST(MtAb, RaggedTrees) {
  RandomShapeParams p;
  WorkStealingPool pool(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Tree t = make_random_shape_minimax(p, -50, 50, seed);
    EXPECT_EQ(search(mt_request(Algorithm::kMtParallelAb, &t), pool).value,
              minimax_value(t))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Exception-propagation hardening: a throwing leaf evaluator must degrade
// the *search*, never the *scheduler*. A scout that throws may not
// deadlock the pool, kill its worker, or corrupt sibling searches.
// ---------------------------------------------------------------------------

/// Leaf hook that throws on every attempt — a permanently dead evaluator.
class AlwaysThrowHook final : public LeafHook {
 public:
  void on_leaf(NodeId, unsigned) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("evaluator down");
  }
  std::atomic<std::uint64_t> calls{0};
};

TEST(Resilience, PoolSurvivesThrowingScoutAndStaysUsable) {
  WorkStealingPool pool(4);
  const Tree t = make_uniform_iid_nor(2, 7, 0.618, 17);

  // First search: every leaf evaluation throws; the search must return
  // (degraded, not hung) instead of unwinding through the cascade.
  AlwaysThrowHook hook;
  SearchRequest bad = mt_request(Algorithm::kMtParallelSolve, &t);
  bad.width = 2;
  bad.leaf_hook = &hook;
  const auto failed = search(bad, pool);
  EXPECT_FALSE(failed.complete);
  EXPECT_NE(failed.completeness, Completeness::kExact);
  EXPECT_GT(failed.faults, 0u);
  EXPECT_GT(hook.calls.load(), 0u);

  // Same pool, clean searches: every worker must still be alive and the
  // results exact. Run both cascade families to touch all task shapes.
  SearchRequest good = mt_request(Algorithm::kMtParallelSolve, &t);
  good.width = 2;
  for (int round = 0; round < 5; ++round) {
    const auto r = search(good, pool);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.value != 0, nor_value(t)) << "round " << round;
  }
  const Tree m = make_uniform_iid_minimax(2, 6, -9, 9, 17);
  const auto ra = search(mt_request(Algorithm::kMtParallelAb, &m), pool);
  EXPECT_TRUE(ra.complete);
  EXPECT_EQ(ra.value, minimax_value(m));
}

TEST(Resilience, RawPoolSurvivesThrowingTask) {
  // Containment at the scheduler layer itself: a raw task that throws is
  // swallowed (and counted), and later tasks still run. One worker drains
  // the injection queue in FIFO order, so the throwing task — and its
  // task_exceptions increment — completes before the 100th count.
  WorkStealingPool pool(1);
  pool.submit([] { throw std::runtime_error("boom"); });
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_GE(pool.stats().task_exceptions, 1u);
}

TEST(Resilience, TransientLeafFaultsAreRetriedToExactness) {
  // A hook that fails the first attempt at every leaf: with a 2-attempt
  // retry budget the search must recover the exact value and count the
  // retries.
  class FailOnceHook final : public LeafHook {
   public:
    void on_leaf(NodeId, unsigned attempt) override {
      if (attempt == 0) throw std::runtime_error("first attempt blip");
    }
  };
  const Tree t = make_uniform_iid_nor(2, 7, 0.618, 29);
  FailOnceHook hook;
  WorkStealingPool pool(4);
  SearchRequest req = mt_request(Algorithm::kMtParallelSolve, &t);
  req.leaf_hook = &hook;
  req.retry.max_attempts = 2;
  const auto r = search(req, pool);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.completeness, Completeness::kExact);
  EXPECT_EQ(r.value != 0, nor_value(t));
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.retries, r.faults);  // every fault was recovered

  const Tree m = make_uniform_iid_minimax(2, 6, -9, 9, 29);
  SearchRequest mreq = mt_request(Algorithm::kMtParallelAb, &m);
  mreq.leaf_hook = &hook;
  mreq.retry.max_attempts = 2;
  const auto ra = search(mreq, pool);
  EXPECT_TRUE(ra.complete);
  EXPECT_EQ(ra.value, minimax_value(m));
  EXPECT_GT(ra.retries, 0u);
}


// ---------------------------------------------------------------------------
// One stop path for every Mt cascade: a pre-set cancellation, an expired
// budget and a permanently faulting leaf hook all latch the same stop on
// the per-leaf path (threads/cascade.hpp), and every cascade degrades to
// an anytime bound that admits the true value.
// ---------------------------------------------------------------------------

enum class StopCause { kCancel, kBudget, kHookFault };

using StopParams = std::tuple<Algorithm, StopCause>;
class MtStop : public ::testing::TestWithParam<StopParams> {};

TEST_P(MtStop, PerLeafPathStopsWithAnAdmissibleBound) {
  const auto [algorithm, cause] = GetParam();
  const bool minimax = is_minimax_algorithm(algorithm);
  const bool parallel = algorithm == Algorithm::kMtParallelSolve ||
                        algorithm == Algorithm::kMtParallelAb;
  WorkStealingPool pool(4);
  const std::atomic<bool> cancelled{true};
  AlwaysThrowHook hook;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Tree t = minimax ? make_uniform_iid_minimax(2, 8, -50, 50, seed)
                           : make_uniform_iid_nor(2, 8, 0.618, seed);
    const Value truth = minimax ? minimax_value(t) : Value{nor_value(t)};
    // A leaf cost and no table keep every leaf on the per-leaf path, with
    // the request's private memo.
    SearchRequest req = mt_request(algorithm, &t);
    req.leaf_cost_ns = 1;
    if (parallel) req.grain = 1;  // always spawn: scouts race the stop
    switch (cause) {
      case StopCause::kCancel: req.limits.cancel = &cancelled; break;
      case StopCause::kBudget: req.limits.budget_ns = 1; break;
      case StopCause::kHookFault:
        req.leaf_hook = &hook;
        req.retry.max_attempts = 2;
        break;
    }
    const auto r = search(req, pool);
    EXPECT_FALSE(r.complete) << "seed " << seed;
    EXPECT_TRUE(admits(r, truth))
        << "seed " << seed << ": " << completeness_name(r.completeness) << " "
        << r.value << " vs true " << truth;
    EXPECT_LT(r.work, t.num_leaves()) << "seed " << seed;
    if (cause != StopCause::kHookFault) continue;
    if (parallel) {
      // Every thread that entered the hook before the stop latched spent
      // its whole two-attempt budget: one retry and two faults each.
      EXPECT_EQ(r.faults, 2 * r.retries) << "seed " << seed;
      EXPECT_GE(r.faults, 2u) << "seed " << seed;
    } else {
      EXPECT_EQ(r.faults, 2u) << "seed " << seed;
      EXPECT_EQ(r.retries, 1u) << "seed " << seed;
    }
  }
}

std::string stop_param_name(const ::testing::TestParamInfo<StopParams>& info) {
  std::string name = algorithm_name(std::get<0>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  switch (std::get<1>(info.param)) {
    case StopCause::kCancel: return name + "_cancel";
    case StopCause::kBudget: return name + "_budget";
    case StopCause::kHookFault: return name + "_hook_fault";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCascades, MtStop,
    ::testing::Combine(::testing::Values(Algorithm::kMtSequentialSolve,
                                         Algorithm::kMtParallelSolve,
                                         Algorithm::kMtSequentialAb,
                                         Algorithm::kMtParallelAb),
                       ::testing::Values(StopCause::kCancel, StopCause::kBudget,
                                         StopCause::kHookFault)),
    stop_param_name);

}  // namespace
}  // namespace gtpar
