// gtpar/threads/mt_ab.hpp
//
// Real std::thread parallel alpha-beta — the MIN/MAX counterpart of
// mt_solve.hpp, following the paper's cascade: the spine searches the
// leftmost unfinished child with the live window while one sequential
// alpha-beta scout per level runs on the next sibling with a *snapshot*
// of the window. Scouts re-read the spine's shared window bound at every
// node entry, so a bound sharpened by the spine prunes inside running
// scouts as well ("each having its own alpha-bound and beta-bound,
// coordinated in a cascading structure").
//
// Joining is fail-soft-safe: a scout launched with window (a0, b) returns
// r such that r <= a0 implies val <= r (discardable, since the live alpha
// only grew), r >= b implies a cutoff, and otherwise r is exact.
//
// As in mt_solve.hpp, the parallel core runs on a caller-supplied
// Executor with SearchLimits (the batched engine runs many trees at a
// time on its one work-stealing pool).
#pragma once

#include <cstdint>

#include "gtpar/common.hpp"
#include "gtpar/engine/executor.hpp"
#include "gtpar/threads/mt_solve.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {

class TranspositionTable;  // engine/tt.hpp

struct MtAbOptions {
  std::uint64_t leaf_cost_ns = 2000;
  LeafCostModel cost_model = LeafCostModel::kSpin;
  /// Promotion (the paper's P-SOLVE case two): when the spine catches up
  /// with a still-running scout, abort it and re-search the sibling in
  /// parallel (reusing the scout's exactly-memoised subtrees). With false,
  /// the spine join-waits for the sequential scout instead — the E17
  /// ablation shows this serialises the top levels and caps the speed-up
  /// near 2x.
  bool promotion = true;
  /// Scouts launched per level (1 = the paper's width-1 cascade).
  unsigned width = 1;
  /// Adaptive task granularity: minimum estimated sequential work (ns) for
  /// a sibling subtree to be scouted as a scheduler task; smaller subtrees
  /// are folded into the spine and run inline through the flat iterative
  /// kernel. 0 = auto-calibrated (engine/granularity.hpp); 1 = always
  /// spawn.
  std::uint64_t grain_ns = 0;
  /// Shared transposition table (engine/tt.hpp) replacing the per-search
  /// exact-value memo: concurrent and subsequent searches reuse each
  /// other's completed subtrees, keyed by tree fingerprint + node. Null =
  /// private memo. With a TT, leaf_evaluations counts scanned leaves,
  /// re-scans included: a hooked or costed request evaluates and stores
  /// every leaf it reaches (replacement may evict the record), and a
  /// request with free leaves (no leaf_hook, leaf_cost_ns 0) keeps leaves
  /// and leaf-frontier nodes out of the table and re-scans them whenever
  /// the search reaches them again (engine/tt.hpp).
  TranspositionTable* tt = nullptr;
  /// Evaluator hook run once per leaf-evaluation attempt (fault injection,
  /// externalised evaluation); a throw is retried per `retry`, then
  /// latches a stop and the result degrades to an anytime bound.
  LeafHook* leaf_hook = nullptr;
  /// Retry budget for leaf_hook faults.
  RetryPolicy retry{};
};

struct MtAbResult {
  Value value = 0;
  /// Leaf evaluations across all threads (with multiplicity: an aborted
  /// scout's work that the spine redoes counts twice — real cost).
  std::uint64_t leaf_evaluations = 0;
  std::uint64_t wall_ns = 0;
  /// False if the search stopped early (cancelled, budget exhausted, or a
  /// permanent leaf fault) without the memo determining the root. When
  /// false, `value` carries the anytime bound described by `completeness`.
  bool complete = true;
  /// Anytime semantics of `value`: interval propagation over the exact
  /// memo yields a lower/upper root bound (or the exact value) on stop.
  Completeness completeness = Completeness::kExact;
  /// Leaf-evaluation retries performed / faults observed via leaf_hook.
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;
};

/// Cascading parallel alpha-beta with scouts on `exec`. Safe to run many
/// instances concurrently on one shared executor.
MtAbResult mt_parallel_ab(const Tree& t, const MtAbOptions& opt, Executor& exec,
                          const SearchLimits& limits = {});

/// Single-threaded alpha-beta with the same leaf-cost model, leaf hook,
/// table and limits. width and promotion are ignored.
MtAbResult mt_sequential_ab(const Tree& t, const MtAbOptions& opt,
                            const SearchLimits& limits = {});

}  // namespace gtpar
