// Tests for the engine layer: the work-stealing scheduler, the unified
// search façade, and the batched Engine (concurrent requests,
// cancellation, budgets, determinism under stealing).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/engine/work_stealing.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

// --- Work-stealing pool. ----------------------------------------------------

TEST(WorkStealingPool, RunsEveryTask) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  // Destructor drains the deques and joins the workers.
  {
    WorkStealingPool inner(2);
    for (int i = 0; i < 100; ++i)
      inner.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  while (count.load() < 1000) std::this_thread::yield();
  EXPECT_GE(count.load(), 1000);
}

TEST(WorkStealingPool, RunsNestedTasksSubmittedFromWorkers) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  std::atomic<bool> done{false};
  pool.submit([&] {
    for (int i = 0; i < 64; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    done.store(true);
  });
  while (!done.load() || count.load() < 64) std::this_thread::yield();
  EXPECT_EQ(count.load(), 64);
}

TEST(WorkStealingPool, CallerRunsWhenDequeOverflows) {
  WorkStealingPool::Options opt;
  opt.threads = 1;
  opt.deque_capacity = 2;  // tiny: nested submits must overflow
  WorkStealingPool pool(opt);
  std::atomic<int> count{0};
  std::atomic<bool> done{false};
  pool.submit([&] {
    // 64 nested submits into a capacity-2 deque: most run inline
    // (caller-runs) but every single one must run.
    for (int i = 0; i < 64; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    done.store(true);
  });
  while (!done.load() || count.load() < 64) std::this_thread::yield();
  EXPECT_EQ(count.load(), 64);
  EXPECT_GT(pool.stats().inline_runs, 0u);
}

TEST(WorkStealingPool, CallerRunsWhenInjectionQueueOverflows) {
  WorkStealingPool::Options opt;
  opt.threads = 1;
  opt.injection_bound = 1;
  WorkStealingPool pool(opt);
  std::atomic<int> count{0};
  // External submits race one worker; the bound forces some inline runs,
  // but all 200 must execute exactly once.
  for (int i = 0; i < 200; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  while (count.load() < 200) std::this_thread::yield();
  EXPECT_EQ(count.load(), 200);
}

TEST(WorkStealingPool, BackstopRescuesStayWithinParks) {
  // A rescue is a park that timed out and whose next sweep found a task.
  // An idle pool parks and times out over and over but finds nothing, so
  // it rescues nothing.
  {
    WorkStealingPool idle(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const WorkStealingStats s = idle.stats();
    EXPECT_GT(s.parks, 0u);
    EXPECT_EQ(s.backstop_rescues, 0u);
  }
  // Bursts separated by gaps long enough for the workers to park: each
  // park yields at most one rescue.
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    while (count.load() < 8 * (round + 1)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  const WorkStealingStats s = pool.stats();
  EXPECT_GT(s.parks, 0u);
  EXPECT_LE(s.backstop_rescues, s.parks);
}

// --- Façade. ----------------------------------------------------------------

TEST(SearchFacade, MatchesGroundTruthAcrossAlgorithms) {
  const Tree t = make_uniform_iid_nor(2, 10, golden_bias(), 11);
  const Value truth = nor_value(t) ? 1 : 0;
  for (Algorithm a : {Algorithm::kSequentialSolve, Algorithm::kParallelSolve,
                      Algorithm::kNSequentialSolve, Algorithm::kMtParallelSolve}) {
    SearchRequest req;
    req.tree = &t;
    req.algorithm = a;
    req.leaf_cost_ns = 0;
    const SearchResult r = search(req);
    EXPECT_EQ(r.value, truth) << algorithm_name(a);
    EXPECT_TRUE(r.complete) << algorithm_name(a);
    EXPECT_GT(r.work, 0u) << algorithm_name(a);
  }

  const Tree m = make_uniform_iid_minimax(3, 6, -50, 50, 13);
  const Value mtruth = minimax_value(m);
  for (Algorithm a : {Algorithm::kAlphaBeta, Algorithm::kSss,
                      Algorithm::kNSequentialAb, Algorithm::kMtParallelAb}) {
    SearchRequest req;
    req.tree = &m;
    req.algorithm = a;
    req.leaf_cost_ns = 0;
    const SearchResult r = search(req);
    EXPECT_EQ(r.value, mtruth) << algorithm_name(a);
  }
}

TEST(SearchFacade, ThrowsOnMissingWorkload) {
  SearchRequest req;  // no tree, no source
  EXPECT_THROW(search(req), std::invalid_argument);
  req.algorithm = Algorithm::kNSequentialAb;
  EXPECT_THROW(search(req), std::invalid_argument);
}

TEST(SearchFacade, PrincipalVariationOnRequest) {
  const Tree m = make_uniform_iid_minimax(2, 6, -9, 9, 21);
  SearchRequest req;
  req.tree = &m;
  req.algorithm = Algorithm::kAlphaBeta;
  req.want_pv = true;
  const SearchResult r = search(req);
  ASSERT_FALSE(r.pv.empty());
  EXPECT_EQ(r.pv.front(), m.root());
  EXPECT_TRUE(m.is_leaf(r.pv.back()));
  EXPECT_EQ(m.leaf_value(r.pv.back()), r.value);
}

// --- Engine. ----------------------------------------------------------------

TEST(Engine, ManyConcurrentRequestsAllCorrect) {
  std::vector<Tree> trees;
  std::vector<Value> truths;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    trees.push_back(make_uniform_iid_nor(2, 9, golden_bias(), seed));
    truths.push_back(nor_value(trees.back()) ? 1 : 0);
  }
  Engine::Options opt;
  opt.workers = 4;
  Engine eng(opt);
  std::vector<SearchRequest> reqs;
  for (const Tree& t : trees) {
    SearchRequest req;
    req.tree = &t;
    req.algorithm = Algorithm::kMtParallelSolve;
    req.leaf_cost_ns = 0;
    req.grain = 1;  // always spawn: the point is concurrent scout traffic
    reqs.push_back(req);
  }
  const std::vector<SearchResult> results = eng.run_all(reqs);
  ASSERT_EQ(results.size(), trees.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].value, truths[i]) << "tree " << i;
    EXPECT_TRUE(results[i].complete);
  }
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, trees.size());
  EXPECT_EQ(s.completed, trees.size());
  EXPECT_EQ(s.incomplete, 0u);
  EXPECT_GT(s.total_work, 0u);
}

TEST(Engine, DeterministicValueUnderStealing) {
  const Tree m = make_uniform_iid_minimax(2, 9, -100, 100, 99);
  const Value truth = minimax_value(m);
  Engine eng;
  SearchRequest req;
  req.tree = &m;
  req.algorithm = Algorithm::kMtParallelAb;
  req.leaf_cost_ns = 0;
  req.grain = 1;  // always spawn so steals actually happen
  // Whatever the interleaving of steals, the value is the tree's value.
  for (int round = 0; round < 20; ++round) {
    const SearchResult r = eng.run(req);
    ASSERT_EQ(r.value, truth) << "round " << round;
  }
}

TEST(Engine, CancellationStopsASlowSearch) {
  // Worst-case NOR tree: no pruning, so the full search pays ~1ms for each
  // of the 2^10 leaves; cancellation must cut it short by orders of
  // magnitude.
  const Tree t = make_worst_case_nor(2, 10, false);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 1'000'000;  // 1ms per leaf
  req.cost_model = LeafCostModel::kSleep;
  SearchJob job = eng.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  job.cancel();
  const SearchResult r = job.wait();
  EXPECT_FALSE(r.complete);
  // Far less than the ~1000 leaves the full search would pay for.
  EXPECT_LT(r.work, t.num_leaves());
}

TEST(Engine, WallClockBudgetStopsASlowSearch) {
  const Tree t = make_worst_case_nor(2, 10, false);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 1'000'000;
  req.cost_model = LeafCostModel::kSleep;
  req.limits.budget_ns = 30'000'000;  // 30ms
  const SearchResult r = eng.run(req);
  EXPECT_FALSE(r.complete);
  EXPECT_LT(r.work, t.num_leaves());
}

TEST(Engine, JobHandleReportsDispatchLatency) {
  const Tree t = make_uniform_iid_nor(2, 8, golden_bias(), 8);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtSequentialSolve;
  req.leaf_cost_ns = 0;
  SearchJob job = eng.submit(req);
  job.wait();
  EXPECT_TRUE(job.done());
  const EngineStats s = eng.stats();
  EXPECT_GE(s.max_dispatch_ns, job.dispatch_ns());
}

TEST(Engine, RethrowsRequestErrors) {
  Engine eng;
  SearchRequest req;  // missing workload
  SearchJob job = eng.submit(req);
  EXPECT_THROW(job.wait(), std::invalid_argument);
}

TEST(Engine, MixedFamiliesInOneBatch) {
  const Tree t = make_uniform_iid_nor(2, 9, golden_bias(), 31);
  const Tree m = make_uniform_iid_minimax(2, 8, -10, 10, 32);
  Engine eng;
  SearchRequest a, b;
  a.tree = &t;
  a.algorithm = Algorithm::kMtParallelSolve;
  a.leaf_cost_ns = 0;
  b.tree = &m;
  b.algorithm = Algorithm::kMtParallelAb;
  b.leaf_cost_ns = 0;
  SearchJob ja = eng.submit(a);
  SearchJob jb = eng.submit(b);
  EXPECT_EQ(ja.wait().value, nor_value(t) ? 1 : 0);
  EXPECT_EQ(jb.wait().value, minimax_value(m));
}

// --- Overload control, cancel races, watchdog. ------------------------------

TEST(Engine, CancelRacingDispatchIsDeterministic) {
  // Tight loop: submit + immediate cancel. Whichever side wins the race,
  // wait() must return promptly (never hang) and the result must be
  // internally consistent: complete iff completeness == kExact.
  const Tree t = make_uniform_iid_nor(2, 9, golden_bias(), 77);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 0;
  for (int i = 0; i < 200; ++i) {
    SearchJob job = eng.submit(req);
    job.cancel();
    const SearchResult& r = job.wait();
    EXPECT_EQ(r.complete, r.completeness == Completeness::kExact) << "i=" << i;
    if (r.complete) {
      EXPECT_EQ(r.value, nor_value(t) ? 1 : 0) << "i=" << i;
    }
  }
}

TEST(Engine, RejectNewShedsAboveMaxInFlight) {
  const Tree t = make_worst_case_nor(2, 8, false);
  Engine::Options eopt;
  eopt.workers = 2;
  eopt.max_in_flight = 2;
  eopt.shed = ShedPolicy::kRejectNew;
  Engine eng(eopt);
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 400'000;
  req.cost_model = LeafCostModel::kSleep;
  std::vector<SearchJob> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(eng.submit(req));
  unsigned rejected = 0;
  for (auto& j : jobs) {
    try {
      j.wait();
    } catch (const EngineOverloadedError&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 8u);  // 10 submitted, at most 2 admitted
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(s.completed, 10u - rejected);
}

TEST(Engine, CallerRunsShedsInline) {
  const Tree t = make_worst_case_nor(2, 7, false);
  Engine::Options eopt;
  eopt.workers = 2;
  eopt.max_in_flight = 1;
  eopt.shed = ShedPolicy::kCallerRuns;
  Engine eng(eopt);
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  // Slow enough (~128 leaves x 50us) that the first, asynchronous job is
  // still in flight when the later submissions arrive — they must shed to
  // the calling thread.
  req.leaf_cost_ns = 50'000;
  req.cost_model = LeafCostModel::kSleep;
  std::vector<SearchJob> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(eng.submit(req));
  for (auto& j : jobs) {
    const SearchResult& r = j.wait();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.value, nor_value(t) ? 1 : 0);
  }
  const EngineStats s = eng.stats();
  EXPECT_GT(s.shed_caller_runs, 0u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.completed, 8u);
}

TEST(Engine, BlockWithDeadlineAdmitsWhenSlotsFree) {
  const Tree t = make_uniform_iid_nor(2, 8, golden_bias(), 6);
  Engine::Options eopt;
  eopt.workers = 2;
  eopt.max_in_flight = 1;
  eopt.shed = ShedPolicy::kBlockWithDeadline;
  eopt.admission_timeout_ns = 2'000'000'000;  // generous: must admit
  Engine eng(eopt);
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 0;
  for (int i = 0; i < 6; ++i) {
    const SearchResult r = eng.run(req);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.value, nor_value(t) ? 1 : 0);
  }
  EXPECT_EQ(eng.stats().rejected, 0u);
}

TEST(Engine, PinnedWorkersStayCorrectUnderStealing) {
  // pin_workers round-robins workers over online CPUs (a no-op besides
  // affinity on platforms without sched_setaffinity). On a small machine
  // several workers share a core, so this doubles as a correctness run
  // under forced time-slicing; TSan in the chaos lane races it.
  std::vector<Tree> trees;
  std::vector<Value> truths;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    trees.push_back(make_uniform_iid_minimax(2, 8, -50, 50, seed));
    truths.push_back(minimax_value(trees.back()));
  }
  Engine::Options opt;
  opt.workers = 4;
  opt.pin_workers = true;
  Engine eng(opt);
  std::vector<SearchRequest> reqs;
  for (const Tree& t : trees) {
    SearchRequest req;
    req.tree = &t;
    req.algorithm = Algorithm::kMtParallelAb;
    req.grain = 1;  // always spawn: maximize cross-worker traffic
    reqs.push_back(req);
  }
  const std::vector<SearchResult> results = eng.run_all(reqs);
  ASSERT_EQ(results.size(), trees.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].value, truths[i]) << "tree " << i;
    EXPECT_TRUE(results[i].complete) << "tree " << i;
  }
}

TEST(Engine, HugePageBackedTTServesCrossRequestHits) {
  // tt_huge_pages is advisory (madvise), so the observable contract is
  // just: the table still works — repeat searches of one tree hit values
  // the first search stored, and results stay exact. 1<<17 entries is the
  // first size a single 2 MiB page can back.
  const Tree m = make_uniform_iid_minimax(3, 7, -100, 100, 23);
  const Value truth = minimax_value(m);
  Engine::Options opt;
  opt.workers = 2;
  opt.tt_entries = std::size_t{1} << 17;
  opt.tt_huge_pages = true;
  Engine eng(opt);
  ASSERT_NE(eng.shared_tt(), nullptr);
  EXPECT_EQ(eng.shared_tt()->capacity(), std::size_t{1} << 17);
  SearchRequest req;
  req.tree = &m;
  req.algorithm = Algorithm::kMtParallelAb;
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(eng.run(req).value, truth) << "round " << round;
  const TranspositionTable::Stats s = eng.shared_tt()->stats();
  EXPECT_GT(s.stores, 0u);
  EXPECT_GT(s.hits, 0u);  // rounds 2-3 reuse round 1's exact values
}

TEST(SearchFacade, BatchAlgorithmsMatchGroundTruth) {
  // The batch-floored flat kernels behind the façade enum values the
  // differential registry sweeps (flat-solve-batch / flat-ab-batch).
  const Tree t = make_uniform_iid_nor(4, 5, golden_bias(), 31);
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kFlatSolveBatch;
  EXPECT_EQ(search(req).value, nor_value(t) ? 1 : 0);

  const Tree m = make_uniform_iid_minimax(4, 5, -50, 50, 37);
  req.tree = &m;
  req.algorithm = Algorithm::kFlatAbBatch;
  EXPECT_EQ(search(req).value, minimax_value(m));
}

TEST(Engine, BlockWithDeadlineRejectsOnTimeout) {
  const Tree t = make_worst_case_nor(2, 9, false);
  Engine::Options eopt;
  eopt.workers = 2;
  eopt.max_in_flight = 1;
  eopt.shed = ShedPolicy::kBlockWithDeadline;
  eopt.admission_timeout_ns = 1'000'000;  // 1ms: the slow job outlives it
  Engine eng(eopt);
  SearchRequest slow;
  slow.tree = &t;
  slow.algorithm = Algorithm::kMtParallelSolve;
  slow.leaf_cost_ns = 1'000'000;
  slow.cost_model = LeafCostModel::kSleep;
  SearchJob first = eng.submit(slow);
  SearchJob second = eng.submit(slow);  // blocks ~1ms, then rejected
  EXPECT_THROW(second.wait(), EngineOverloadedError);
  first.cancel();
  EXPECT_NO_THROW(first.wait());
  EXPECT_EQ(eng.stats().rejected, 1u);
}

/// Leaf hook that blocks until released — a wedged external evaluator.
class BlockingHook final : public LeafHook {
 public:
  void on_leaf(NodeId, unsigned) override {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> release{false};
};

TEST(Engine, WatchdogFailsStalledJobInsteadOfHangingWait) {
  const Tree t = make_uniform_iid_nor(2, 6, golden_bias(), 9);
  Engine::Options eopt;
  eopt.workers = 2;
  eopt.stall_timeout_ns = 50'000'000;  // 50ms
  Engine eng(eopt);
  BlockingHook hook;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtSequentialSolve;
  req.leaf_cost_ns = 0;
  req.leaf_hook = &hook;
  SearchJob job = eng.submit(req);
  // Without the watchdog this wait() would hang forever on the wedged
  // evaluator; with it, the job fails with EngineStalledError.
  EXPECT_THROW(job.wait(), EngineStalledError);
  EXPECT_TRUE(job.done());
  // Release the evaluator so the worker can unwind, then drain.
  hook.release.store(true, std::memory_order_release);
  eng.drain();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.watchdog_failed, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(Engine, StatsAggregateRetriesAndFaults) {
  // One transient fault per leaf, recovered by a 2-attempt budget: the
  // engine's aggregate counters must see the retries.
  class FailOnceHook final : public LeafHook {
   public:
    void on_leaf(NodeId, unsigned attempt) override {
      if (attempt == 0) throw std::runtime_error("blip");
    }
  };
  const Tree t = make_uniform_iid_nor(2, 7, golden_bias(), 12);
  Engine eng;
  FailOnceHook hook;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;
  req.leaf_cost_ns = 0;
  req.leaf_hook = &hook;
  req.retry.max_attempts = 2;
  const SearchResult r = eng.run(req);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.value, nor_value(t) ? 1 : 0);
  EXPECT_GT(r.retries, 0u);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.total_retries, r.retries);
  EXPECT_EQ(s.total_faults, r.faults);
}

// --- Completion callbacks (the seam the networked service streams on). ------
//
// Engine::submit(req, on_complete) pins three ordering guarantees:
//  1. exactly-once: one callback per job, result or error, never both;
//  2. publication-first: inside the callback the job is done() and wait()
//     returns without blocking;
//  3. drain-covered: for jobs that finish normally, the callback has
//     returned by the time Engine::drain() returns.

TEST(EngineCallbacks, DeliversResultExactlyOnce) {
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 5);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelSolve;

  std::atomic<int> calls{0};
  std::atomic<Value> seen{-1};
  SearchJob job = eng.submit(req, [&](const SearchResult* r,
                                      std::exception_ptr err) {
    calls.fetch_add(1);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(err, nullptr);
    seen.store(r->value);
  });
  const SearchResult& r = job.wait();
  eng.drain();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.load(), r.value);
  EXPECT_EQ(r.value, nor_value(t) ? 1 : 0);
}

TEST(EngineCallbacks, JobIsDoneInsideCallback) {
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 6);
  Engine eng;
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtSequentialSolve;

  // The callback needs the job handle; hand it over through a promise.
  std::promise<SearchJob> handle;
  auto handle_future = handle.get_future().share();
  std::atomic<bool> was_done{false};
  std::atomic<bool> wait_ok{false};
  SearchJob job = eng.submit(req, [&, handle_future](const SearchResult* r,
                                                     std::exception_ptr) {
    SearchJob self = handle_future.get();
    was_done.store(self.done());
    // Guarantee 2: wait() inside the callback must return immediately
    // with the already-published result, not deadlock.
    wait_ok.store(&self.wait() != nullptr && self.wait().value == r->value);
  });
  handle.set_value(job);
  job.wait();
  eng.drain();
  EXPECT_TRUE(was_done.load());
  EXPECT_TRUE(wait_ok.load());
}

TEST(EngineCallbacks, RejectedJobCallsBackWithOverloadError) {
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 7);
  Engine::Options opt;
  opt.workers = 1;
  opt.max_in_flight = 1;
  opt.shed = ShedPolicy::kRejectNew;
  Engine eng(opt);

  SearchRequest slow;
  slow.tree = &t;
  slow.algorithm = Algorithm::kMtSequentialSolve;
  slow.leaf_cost_ns = 500'000;
  slow.cost_model = LeafCostModel::kSleep;

  SearchJob first = eng.submit(slow, {});
  // Saturate, then watch the shed path call back with the error.
  std::atomic<int> rejected{0};
  std::vector<SearchJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(eng.submit(slow, [&](const SearchResult* r,
                                        std::exception_ptr err) {
      if (r != nullptr || err == nullptr) return;
      try {
        std::rethrow_exception(err);
      } catch (const EngineOverloadedError&) {
        rejected.fetch_add(1);
      } catch (...) {
      }
    }));
  }
  first.wait();
  eng.drain();
  int threw = 0;
  for (auto& j : jobs) {
    try {
      j.wait();
    } catch (const EngineOverloadedError&) {
      threw += 1;
    }
  }
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(rejected.load(), threw);
}

TEST(EngineCallbacks, DrainCoversNormallyFinishedCallbacks) {
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 8);
  for (int round = 0; round < 20; ++round) {
    Engine eng;
    SearchRequest req;
    req.tree = &t;
    req.algorithm = Algorithm::kMtParallelSolve;

    std::atomic<int> completed{0};
    constexpr int kJobs = 16;
    for (int i = 0; i < kJobs; ++i)
      eng.submit(req, [&](const SearchResult* r, std::exception_ptr) {
        if (r != nullptr) completed.fetch_add(1);
      });
    eng.drain();
    // Guarantee 3: every callback has RETURNED once drain() has.
    EXPECT_EQ(completed.load(), kJobs) << "round " << round;
  }
}

// The TSan-stressed ordering test: many submitters, callbacks racing
// wait()ers and drain(), every guarantee checked under load. Run in the
// CI tsan lane.
TEST(EngineCallbacks, OrderingSurvivesConcurrencyStress) {
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 9);
  const Value truth = nor_value(t) ? 1 : 0;
  Engine::Options opt;
  opt.workers = 4;
  Engine eng(opt);

  constexpr int kThreads = 4;
  constexpr int kJobsEach = 25;
  std::atomic<int> callbacks{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  for (int th = 0; th < kThreads; ++th) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kJobsEach; ++i) {
        SearchRequest req;
        req.tree = &t;
        req.algorithm = Algorithm::kMtParallelSolve;
        SearchJob job =
            eng.submit(req, [&](const SearchResult* r, std::exception_ptr) {
              callbacks.fetch_add(1);
              if (r == nullptr || r->value != truth) wrong.fetch_add(1);
            });
        // Race the callback against a waiter on the same job.
        const SearchResult& r = job.wait();
        if (r.value != truth) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : submitters) th.join();
  eng.drain();
  EXPECT_EQ(callbacks.load(), kThreads * kJobsEach);
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace gtpar
