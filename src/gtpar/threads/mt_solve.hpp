// gtpar/threads/mt_solve.hpp
//
// Real std::thread implementation of width-1 Parallel SOLVE on NOR-trees —
// the engineering counterpart of Sections 2 and 7, built for wall-clock
// measurements on a multicore machine rather than step counting.
//
// Structure (mirrors program P-SOLVE and the Section 7 cascade):
//  - The *spine* (calling thread) runs P-SOLVE down the leftmost live path.
//  - At every node on the spine, the next live sibling subtree is scouted
//    by a sequential left-to-right task on the scheduler (one scout per
//    level — the width-1 cascade).
//  - When the spine finishes a child with value 0, the scout is aborted via
//    an atomic flag and the spine *promotes* into the scouted subtree. The
//    scout has been memoising every subtree value it completed into a
//    shared atomic value cache, so promotion resumes from the scout's
//    frontier instead of restarting — the "continue from the position on
//    the stack" behaviour of P-SOLVE's case two.
//  - A child of value 1 settles its parent: scouts are aborted and the
//    result propagates immediately (the pre-emption/pruning behaviour).
//
// Leaf evaluation cost is configurable (busy-spin of leaf_cost_ns) so that
// the workload models the paper's unit-cost leaf evaluations; with 0 cost
// the run degenerates to memory traffic and speed-ups vanish, exactly as
// one would expect.
//
// The parallel core takes the Executor its scouts run on (a caller-owned
// WorkStealingPool, or the Engine's shared one so many trees can be in
// flight at once) and SearchLimits (cooperative cancellation + wall-clock
// budget). Callers that want the scheduler managed for them go through
// gtpar::search (engine/api.hpp) or gtpar::Engine.
#pragma once

#include <atomic>
#include <cstdint>

#include "gtpar/common.hpp"
#include "gtpar/engine/executor.hpp"
#include "gtpar/engine/resilience.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {

/// How the simulated leaf-evaluation cost is paid.
enum class LeafCostModel : std::uint8_t {
  kSpin,   ///< busy-spin: models CPU-bound evaluation (needs real cores)
  kSleep,  ///< sleep: models latency-bound evaluation (I/O, remote calls);
           ///< concurrency overlaps the waits even on a single core
};

struct MtSolveOptions {
  /// Simulated cost of one leaf evaluation in nanoseconds.
  std::uint64_t leaf_cost_ns = 2000;
  LeafCostModel cost_model = LeafCostModel::kSpin;
  /// Scouts launched per level: 1 reproduces the paper's width-1 cascade;
  /// larger values scout that many sibling subtrees concurrently (an
  /// engineering approximation of higher widths -- the lock-step
  /// simulators implement the exact pruning-number semantics).
  unsigned width = 1;
  /// Adaptive task granularity: minimum estimated sequential work (ns) for
  /// a subtree to be scouted as a scheduler task; smaller subtrees run
  /// inline through the flat iterative kernel. 0 = auto-calibrated
  /// (engine/granularity.hpp); 1 = always spawn.
  std::uint64_t grain_ns = 0;
  /// Evaluator hook run once per leaf-evaluation attempt (fault injection,
  /// externalised evaluation). A throw is retried per `retry`; once the
  /// budget is exhausted the fault latches a stop and the result degrades
  /// to an anytime bound instead of unwinding through the cascade.
  LeafHook* leaf_hook = nullptr;
  /// Retry budget for leaf_hook faults.
  RetryPolicy retry{};
};

struct MtSolveResult {
  bool value = false;
  /// Distinct leaves evaluated across all threads (total work).
  std::uint64_t leaf_evaluations = 0;
  /// Wall-clock duration of the solve in nanoseconds.
  std::uint64_t wall_ns = 0;
  /// False if the search stopped early (cancelled, budget exhausted, or a
  /// permanent leaf fault) without the memo determining the root. When
  /// false, `value` carries the anytime bound described by `completeness`.
  bool complete = true;
  /// Anytime semantics of `value`. A stopped search whose memoised
  /// progress still determines the root reports kExact (complete == true).
  Completeness completeness = Completeness::kExact;
  /// Leaf-evaluation retries performed / faults observed via leaf_hook.
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;
};

/// Width-w Parallel SOLVE with scouts on `exec` (the spine runs on the
/// calling thread). Safe to run many instances concurrently on one shared
/// executor.
MtSolveResult mt_parallel_solve(const Tree& t, const MtSolveOptions& opt,
                                Executor& exec, const SearchLimits& limits = {});

/// Single-threaded Sequential SOLVE with the same leaf-cost model, leaf
/// hook and limits, for apples-to-apples wall-clock baselines. width is
/// ignored.
MtSolveResult mt_sequential_solve(const Tree& t, const MtSolveOptions& opt,
                                  const SearchLimits& limits = {});

}  // namespace gtpar
