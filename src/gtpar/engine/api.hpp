// gtpar/engine/api.hpp
//
// The unified public search façade: one request/result pair for every
// algorithm in the library, in both evaluation models.
//
//   SearchRequest req;
//   req.tree = &t;
//   req.algorithm = Algorithm::kMtParallelAb;
//   req.threads = 8;
//   SearchResult r = search(req);
//
// replaces the per-algorithm option and result structs and the run_* free
// functions that each example and harness used to wire up by hand; the
// real-thread cores (threads/) read the request itself. The
// differential-oracle registry (check/registry.cpp) and the batched
// evaluation engine (engine/engine.hpp) are expressed directly on top of
// it.
//
// search() is synchronous. For evaluating many trees concurrently —
// cross-request load balancing on one shared work-stealing scheduler,
// cancellation handles, per-request accounting — submit SearchRequests to
// an Engine instead.
#pragma once

#include <cstdint>
#include <vector>

#include "gtpar/common.hpp"
#include "gtpar/engine/executor.hpp"
#include "gtpar/engine/resilience.hpp"  // LeafCostModel, LeafHook
#include "gtpar/expand/tree_source.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {

class TranspositionTable;  // engine/tt.hpp
struct IdContext;          // session/id_search.hpp

/// Every search algorithm in the library, NOR/SOLVE family first, then
/// MIN/MAX. Prefixes follow the paper's naming: plain = leaf-evaluation
/// lock-step simulators, N- = node-expansion model, R- = randomized,
/// Mt- = real std::thread implementations.
enum class Algorithm : std::uint8_t {
  // NOR / SOLVE family (root value is 0 or 1).
  kSequentialSolve,       ///< recursive Sequential SOLVE
  kParallelSolve,         ///< lock-step Parallel SOLVE of width `width`
  kTeamSolve,             ///< lock-step Team SOLVE with `threads` processors
  kParallelSolveBounded,  ///< width `width` on `threads` processors (Brent)
  kNSequentialSolve,      ///< node-expansion sequential (TreeSource)
  kNParallelSolve,        ///< node-expansion width `width`
  kRSequentialSolve,      ///< randomized sequential (`seed`)
  kRParallelSolve,        ///< randomized width `width`
  kMessagePassingSolve,   ///< Section 7 processor-per-level (binary trees)
  kMtSequentialSolve,     ///< real-thread sequential baseline
  kMtParallelSolve,       ///< real-thread width-`width` cascade
  kFlatSolve,             ///< iterative explicit-stack sequential SOLVE
  kFlatSolveBatch,        ///< flat SOLVE with vectorized leaf-frontier batches
  // MIN/MAX family.
  kMinimax,           ///< full minimax, no pruning
  kAlphaBeta,         ///< sequential alpha-beta
  kScout,             ///< Pearl's SCOUT
  kSss,               ///< SSS*
  kParallelSss,       ///< parallel SSS* with `threads` processors
  kSequentialAb,      ///< lock-step sequential alpha-beta (width 0)
  kParallelAb,        ///< lock-step Parallel alpha-beta of width `width`
  kParallelAbBounded, ///< width `width` on `threads` processors
  kNSequentialAb,     ///< node-expansion sequential alpha-beta
  kNParallelAb,       ///< node-expansion width `width`
  kRSequentialAb,     ///< randomized sequential alpha-beta (`seed`)
  kRParallelAb,       ///< randomized width `width`
  kTtAlphaBeta,       ///< alpha-beta with a transposition table
  kDepthLimitedAb,    ///< depth-limited alpha-beta (`depth_limit`)
  kMtSequentialAb,    ///< real-thread sequential alpha-beta
  kMtParallelAb,      ///< real-thread cascading parallel alpha-beta
  kFlatAb,            ///< iterative explicit-stack fail-soft alpha-beta
  kFlatAbBatch,       ///< flat alpha-beta with vectorized leaf-frontier batches
  kIterativeDeepeningAb,  ///< iterative-deepening alpha-beta (game sessions)
};

/// True for the MIN/MAX family, false for the NOR/SOLVE family.
bool is_minimax_algorithm(Algorithm a) noexcept;

/// Stable lower-case identifier (e.g. "mt-parallel-ab"), used by the
/// check registry and the benchmarks.
const char* algorithm_name(Algorithm a) noexcept;

/// One search to run: the workload (an explicit tree and/or an implicit
/// TreeSource), the algorithm, and its knobs. Unused knobs are ignored by
/// algorithms that do not consume them.
struct SearchRequest {
  /// Explicit workload. Required by explicit-tree algorithms; also used to
  /// derive a TreeSource when `source` is null. Must outlive the search.
  const Tree* tree = nullptr;
  /// Implicit workload for the node-expansion algorithms (kN*/kR*/kTt.../
  /// kDepthLimitedAb/kMessagePassingSolve). Null = an ExplicitTreeSource
  /// over `tree`. Must outlive the search.
  const TreeSource* source = nullptr;

  Algorithm algorithm = Algorithm::kMtParallelSolve;

  /// Paper width w for the width-parameterised algorithms; scouts per
  /// level for the Mt cascades.
  unsigned width = 1;
  /// Worker threads (Mt algorithms without an external Executor) or
  /// processor count p (kTeamSolve, k*Bounded, kParallelSss).
  unsigned threads = 4;
  /// Simulated leaf-evaluation cost (Mt algorithms).
  std::uint64_t leaf_cost_ns = 0;
  LeafCostModel cost_model = LeafCostModel::kSpin;
  /// Task granularity for the Mt cascades, in estimated nanoseconds of
  /// sequential work: a subtree is spawned as a scheduler task only when
  /// its estimated sequential evaluation time — subtree leaves times
  /// (calibrated per-leaf kernel cost + leaf_cost_ns) — reaches this
  /// value; smaller subtrees run inline through the flat kernels.
  /// 0 = auto (GrainPolicy::min_task_ns, ~100 us); 1 = always spawn
  /// (scheduler-stress tests and ablations). See engine/granularity.hpp.
  std::uint64_t grain = 0;
  /// Shared transposition table for the Mt alpha-beta cores (exact subtree
  /// values keyed by tree fingerprint + node). Null = the per-search
  /// private memo. The Engine arms this with its own table so concurrent
  /// requests share each other's results; the table must outlive the
  /// search. See engine/tt.hpp.
  TranspositionTable* tt = nullptr;
  /// Promotion ablation knob (kMtParallelAb).
  bool promotion = true;
  /// Seed for the randomized algorithms.
  std::uint64_t seed = 0;
  /// Horizon for kDepthLimitedAb; 0 = below every leaf (exact search).
  unsigned depth_limit = 0;
  /// Extract the principal variation into SearchResult::pv (explicit
  /// trees only).
  bool want_pv = false;
  /// Session context for kIterativeDeepeningAb (session/id_search.hpp):
  /// inputs — position, side, ordering state, PV hint — in id->req,
  /// detailed outputs in id->out. Null = search source->root() for MAX
  /// with fresh per-search state. Mutated by the search; must outlive it
  /// and must not be shared by concurrent requests.
  IdContext* id = nullptr;
  /// Don't advance the engine's shared-table generation when arming this
  /// request with it: a GameSession sets this on every move after its
  /// first, so one long game ages the table once rather than spinning the
  /// 8-bit generation clock once per move (see engine/tt.hpp).
  bool tt_pin_generation = false;

  /// Cooperative cancellation and wall-clock budget (Mt algorithms; the
  /// lock-step simulators run to completion).
  SearchLimits limits;

  /// Leaf-granularity retry budget for transient evaluator faults: the
  /// TreeSource of node-expansion algorithms is wrapped in a retrying,
  /// recording shield, and the Mt cores apply it to leaf_hook throws.
  RetryPolicy retry;
  /// Evaluator hook for the Mt cascades, run once per leaf-evaluation
  /// attempt (fault injection, externalised evaluation). Must be
  /// thread-safe; ignored by the lock-step simulators, whose evaluation is
  /// an in-memory array read with no failure surface.
  LeafHook* leaf_hook = nullptr;
  /// Degrade instead of throw: when a source-based algorithm's evaluator
  /// faults permanently, return an anytime SearchResult carrying the best
  /// bound derivable from the evaluated prefix (see SearchResult::
  /// completeness) rather than rethrowing. Malformed-request errors
  /// (std::invalid_argument and other logic_errors) always propagate.
  /// With false, evaluator exceptions rethrow as before.
  bool anytime = true;
};

/// Uniform outcome of a search.
struct SearchResult {
  Value value = 0;  ///< root value (0/1 for the NOR family)
  /// Total work in the algorithm's own unit (distinct leaves, leaf
  /// evaluations, or node expansions — see check/registry.hpp Traits).
  std::uint64_t work = 0;
  /// Lock-step running time in basic steps; 0 for real-thread algorithms
  /// (which measure wall_ns instead).
  std::uint64_t steps = 0;
  /// Wall-clock duration of the search in nanoseconds.
  std::uint64_t wall_ns = 0;
  /// False if the search stopped early (cancellation, budget, or a
  /// permanent evaluator fault) without determining the root; `value` then
  /// carries the anytime bound described by `completeness`. Always equal
  /// to (completeness == Completeness::kExact).
  bool complete = true;
  /// Principal variation (root to leaf) when requested via want_pv.
  std::vector<NodeId> pv;
  /// Anytime semantics of `value`: exact, a one-sided root bound (minimax
  /// only), or failed (no usable bound — `value` is meaningless).
  Completeness completeness = Completeness::kExact;
  /// Leaf-evaluation retries performed under SearchRequest::retry.
  std::uint64_t retries = 0;
  /// Evaluator faults observed (each retry or terminal failure counts 1).
  std::uint64_t faults = 0;
};

/// Run one search synchronously. Mt algorithms run their scouts on a
/// private work-stealing scheduler of `threads` workers; everything else
/// runs on the calling thread. Throws std::invalid_argument if the
/// request lacks the workload its algorithm needs.
SearchResult search(const SearchRequest& req);

/// As above, but Mt algorithms spawn scouts on `exec` instead of a private
/// scheduler — the building block the Engine uses to run many requests on
/// one shared pool.
SearchResult search(const SearchRequest& req, Executor& exec);

}  // namespace gtpar
