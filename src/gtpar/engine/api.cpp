#include "gtpar/engine/api.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "gtpar/ab/alphabeta.hpp"
#include "gtpar/ab/depth_limited.hpp"
#include "gtpar/ab/minimax_simulator.hpp"
#include "gtpar/ab/sss.hpp"
#include "gtpar/ab/tt_search.hpp"
#include "gtpar/engine/granularity.hpp"
#include "gtpar/engine/work_stealing.hpp"
#include "gtpar/expand/minimax_expansion.hpp"
#include "gtpar/expand/nor_expansion.hpp"
#include "gtpar/mp/message_passing.hpp"
#include "gtpar/rand/randomized.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/session/id_search.hpp"
#include "gtpar/solve/nor_simulator.hpp"
#include "gtpar/solve/sequential_solve.hpp"
#include "gtpar/threads/mt_ab.hpp"
#include "gtpar/threads/mt_solve.hpp"
#include "gtpar/tree/pv.hpp"

namespace gtpar {
namespace {

/// Algorithms that need an implicit tree; everything else reads req.tree.
bool needs_source(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kNSequentialSolve:
    case Algorithm::kNParallelSolve:
    case Algorithm::kRSequentialSolve:
    case Algorithm::kRParallelSolve:
    case Algorithm::kMessagePassingSolve:
    case Algorithm::kNSequentialAb:
    case Algorithm::kNParallelAb:
    case Algorithm::kRSequentialAb:
    case Algorithm::kRParallelAb:
    case Algorithm::kTtAlphaBeta:
    case Algorithm::kDepthLimitedAb:
    case Algorithm::kIterativeDeepeningAb:
      return true;
    default:
      return false;
  }
}

SearchResult from_bool_run(const BoolRun& r) {
  return SearchResult{r.value ? 1 : 0, r.stats.work, r.stats.steps, 0, true, {}};
}

SearchResult from_value_run(const ValueRun& r) {
  return SearchResult{r.value, r.stats.work, r.stats.steps, 0, true, {}};
}

/// Dispatch on the algorithm id. `exec` is non-null iff the caller
/// supplied a scheduler for the Mt cascades.
SearchResult dispatch(const SearchRequest& req, const Tree* t,
                      const TreeSource* src, Executor* exec) {
  switch (req.algorithm) {
    // --- NOR / SOLVE family. ---------------------------------------------
    case Algorithm::kSequentialSolve: {
      const auto r = sequential_solve(*t);
      const auto n = static_cast<std::uint64_t>(r.evaluated.size());
      return SearchResult{r.value ? 1 : 0, n, n, 0, true, {}};
    }
    case Algorithm::kParallelSolve:
      return from_bool_run(run_parallel_solve(*t, req.width));
    case Algorithm::kTeamSolve:
      return from_bool_run(run_team_solve(*t, req.threads));
    case Algorithm::kParallelSolveBounded:
      return from_bool_run(run_parallel_solve_bounded(*t, req.width, req.threads));
    case Algorithm::kNSequentialSolve:
      return from_bool_run(run_n_sequential_solve(*src));
    case Algorithm::kNParallelSolve:
      return from_bool_run(run_n_parallel_solve(*src, req.width));
    case Algorithm::kRSequentialSolve:
      return from_bool_run(run_r_sequential_solve(*src, req.seed));
    case Algorithm::kRParallelSolve:
      return from_bool_run(run_r_parallel_solve(*src, req.width, req.seed));
    case Algorithm::kMessagePassingSolve: {
      const auto r = run_message_passing_solve(*src);
      return SearchResult{r.value ? 1 : 0, r.expansions, r.rounds, 0, true, {}};
    }
    case Algorithm::kMtSequentialSolve:
      return mt_sequential_solve(*t, req);
    case Algorithm::kMtParallelSolve:
      return mt_parallel_solve(*t, req, *exec);
    case Algorithm::kFlatSolve: {
      const FlatSolveRun r = flat_solve(*t);
      return SearchResult{r.value ? 1 : 0, r.leaves_evaluated,
                          r.leaves_evaluated, 0, true, {}};
    }
    case Algorithm::kFlatSolveBatch: {
      const FlatSolveRun r = flat_solve_batch(*t);
      return SearchResult{r.value ? 1 : 0, r.leaves_evaluated,
                          r.leaves_evaluated, 0, true, {}};
    }

    // --- MIN/MAX family. -------------------------------------------------
    case Algorithm::kMinimax: {
      const auto r = full_minimax(*t);
      return SearchResult{r.value, r.distinct_leaves, 0, 0, true, {}};
    }
    case Algorithm::kAlphaBeta: {
      const auto r = alphabeta(*t);
      return SearchResult{r.value, r.distinct_leaves, 0, 0, true, {}};
    }
    case Algorithm::kScout: {
      const auto r = scout(*t);
      return SearchResult{r.value, r.distinct_leaves, 0, 0, true, {}};
    }
    case Algorithm::kSss: {
      const auto r = sss_star(*t);
      return SearchResult{r.value, r.distinct_leaves, r.steps, 0, true, {}};
    }
    case Algorithm::kParallelSss: {
      const auto r = parallel_sss(*t, req.threads);
      return SearchResult{r.value, r.distinct_leaves, r.steps, 0, true, {}};
    }
    case Algorithm::kSequentialAb:
      return from_value_run(run_sequential_ab(*t));
    case Algorithm::kParallelAb:
      return from_value_run(run_parallel_ab(*t, req.width));
    case Algorithm::kParallelAbBounded:
      return from_value_run(run_parallel_ab_bounded(*t, req.width, req.threads));
    case Algorithm::kNSequentialAb:
      return from_value_run(run_n_sequential_ab(*src));
    case Algorithm::kNParallelAb:
      return from_value_run(run_n_parallel_ab(*src, req.width));
    case Algorithm::kRSequentialAb:
      return from_value_run(run_r_sequential_ab(*src, req.seed));
    case Algorithm::kRParallelAb:
      return from_value_run(run_r_parallel_ab(*src, req.width, req.seed));
    case Algorithm::kTtAlphaBeta: {
      const auto r = tt_alphabeta(*src);
      return SearchResult{r.value, r.leaf_evaluations, 0, 0, true, {}};
    }
    case Algorithm::kDepthLimitedAb: {
      unsigned depth = req.depth_limit;
      if (depth == 0) {
        if (t == nullptr)
          throw std::invalid_argument(
              "search: kDepthLimitedAb with depth_limit 0 (full horizon) "
              "requires an explicit tree to derive the horizon");
        depth = t->height() + 1;  // strictly below every leaf: exact search
      }
      const auto r =
          depth_limited_ab(*src, depth, [](const TreeSource::Node&) { return Value{0}; });
      return SearchResult{r.value, r.leaf_evaluations, 0, 0, true, {}};
    }
    case Algorithm::kMtSequentialAb:
      return mt_sequential_ab(*t, req);
    case Algorithm::kMtParallelAb:
      return mt_parallel_ab(*t, req, *exec);
    case Algorithm::kFlatAb: {
      const FlatAbRun r = flat_alphabeta(*t);
      return SearchResult{r.value, r.leaves_evaluated, 0, 0, true, {}};
    }
    case Algorithm::kFlatAbBatch: {
      const FlatAbRun r = flat_alphabeta_batch(*t);
      return SearchResult{r.value, r.leaves_evaluated, 0, 0, true, {}};
    }
    case Algorithm::kIterativeDeepeningAb: {
      // Stateful callers (GameSession) thread the full request/result pair
      // through req.id; a null context is a stateless best-effort search
      // of the source's root.
      IdContext local;
      IdContext* ctx = req.id != nullptr ? req.id : &local;
      if (req.depth_limit != 0) ctx->req.max_depth = req.depth_limit;
      ctx->out = id_search(*src, ctx->req, req.tt, req.limits);
      const IdResult& r = ctx->out;
      SearchResult out;
      out.value = r.value;
      out.work = r.stats.nodes;
      // Mirrors kDepthLimitedAb: a finished horizon-limited search counts
      // as complete even though its value may be a heuristic estimate
      // (IdResult::exact distinguishes proven values for session callers).
      out.complete = r.complete;
      out.completeness =
          r.complete ? Completeness::kExact : Completeness::kFailed;
      return out;
    }
  }
  throw std::invalid_argument("search: unknown algorithm id");
}

SearchResult search_impl(const SearchRequest& req, Executor* exec) {
  const Tree* t = req.tree;
  const TreeSource* src = req.source;
  // Derive the missing workload view where possible.
  std::optional<ExplicitTreeSource> derived;
  if (src == nullptr && t != nullptr && needs_source(req.algorithm)) {
    derived.emplace(*t);
    src = &*derived;
  }
  if (needs_source(req.algorithm)) {
    if (src == nullptr)
      throw std::invalid_argument("search: algorithm needs a TreeSource (or a "
                                  "tree to derive one from)");
  } else if (t == nullptr) {
    throw std::invalid_argument("search: algorithm needs an explicit tree");
  }
  // kDepthLimitedAb / kTtAlphaBeta consult the tree for pv/horizon only.

  // Shield the evaluator of source-based algorithms: leaf reads retry per
  // req.retry and every success is memoised, so a permanent fault can
  // still be answered with a bound over the evaluated prefix.
  std::optional<ResilientSource> shield;
  const TreeSource* active_src = src;
  if (needs_source(req.algorithm) && (req.anytime || req.retry.max_attempts > 1)) {
    shield.emplace(*src, req.retry);
    active_src = &*shield;
  }

  const auto start = std::chrono::steady_clock::now();
  SearchResult r;
  try {
    r = dispatch(req, t, active_src, exec);
  } catch (const std::logic_error&) {
    throw;  // malformed request, not an evaluator failure
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception&) {
    if (!req.anytime || !shield) throw;
    // Anytime degradation: the retry budget is spent (or the fault was
    // permanent). Extract the sharpest root bound from the recorded
    // prefix; NOR bounds are exact-or-failed, minimax bounds may be
    // one-sided (monotonicity — see engine/resilience.hpp).
    const AnytimeOutcome out = is_minimax_algorithm(req.algorithm)
                                   ? anytime_minimax_bounds(*shield)
                                   : anytime_nor_bounds(*shield);
    r = SearchResult{};
    r.value = out.value;
    r.completeness = out.completeness;
    r.complete = out.completeness == Completeness::kExact;
    r.work = shield->evaluated();
  }
  if (shield) {
    r.retries += shield->retries();
    r.faults += shield->faults();
  }
  const auto end = std::chrono::steady_clock::now();
  if (r.wall_ns == 0)
    r.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  if (req.want_pv && t != nullptr && r.complete) {
    r.pv = is_minimax_algorithm(req.algorithm) ? principal_variation(*t)
                                               : nor_principal_path(*t);
  }
  return r;
}

}  // namespace

bool is_minimax_algorithm(Algorithm a) noexcept {
  return a >= Algorithm::kMinimax;
}

const char* algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kSequentialSolve: return "sequential-solve";
    case Algorithm::kParallelSolve: return "parallel-solve";
    case Algorithm::kTeamSolve: return "team-solve";
    case Algorithm::kParallelSolveBounded: return "parallel-solve-bounded";
    case Algorithm::kNSequentialSolve: return "n-sequential-solve";
    case Algorithm::kNParallelSolve: return "n-parallel-solve";
    case Algorithm::kRSequentialSolve: return "r-sequential-solve";
    case Algorithm::kRParallelSolve: return "r-parallel-solve";
    case Algorithm::kMessagePassingSolve: return "message-passing-solve";
    case Algorithm::kMtSequentialSolve: return "mt-sequential-solve";
    case Algorithm::kMtParallelSolve: return "mt-parallel-solve";
    case Algorithm::kFlatSolve: return "flat-solve";
    case Algorithm::kFlatSolveBatch: return "flat-solve-batch";
    case Algorithm::kMinimax: return "full-minimax";
    case Algorithm::kAlphaBeta: return "alphabeta";
    case Algorithm::kScout: return "scout";
    case Algorithm::kSss: return "sss-star";
    case Algorithm::kParallelSss: return "parallel-sss";
    case Algorithm::kSequentialAb: return "sequential-ab";
    case Algorithm::kParallelAb: return "parallel-ab";
    case Algorithm::kParallelAbBounded: return "parallel-ab-bounded";
    case Algorithm::kNSequentialAb: return "n-sequential-ab";
    case Algorithm::kNParallelAb: return "n-parallel-ab";
    case Algorithm::kRSequentialAb: return "r-sequential-ab";
    case Algorithm::kRParallelAb: return "r-parallel-ab";
    case Algorithm::kTtAlphaBeta: return "tt-alphabeta";
    case Algorithm::kDepthLimitedAb: return "depth-limited-ab";
    case Algorithm::kMtSequentialAb: return "mt-sequential-ab";
    case Algorithm::kMtParallelAb: return "mt-parallel-ab";
    case Algorithm::kFlatAb: return "flat-ab";
    case Algorithm::kFlatAbBatch: return "flat-ab-batch";
    case Algorithm::kIterativeDeepeningAb: return "iterative-deepening-ab";
  }
  return "unknown";
}

SearchResult search(const SearchRequest& req) {
  const bool needs_exec = req.algorithm == Algorithm::kMtParallelSolve ||
                          req.algorithm == Algorithm::kMtParallelAb;
  if (!needs_exec) return search_impl(req, nullptr);
  // Whole-workload grain check: when the entire tree is below the spawn
  // cutoff the cascade runs inline through the flat kernels and never
  // submits a task — don't pay for spinning up a private scheduler that
  // would sit idle.
  if (req.tree != nullptr) {
    const std::uint32_t cutoff = min_spawn_leaves(
        default_grain_policy(), req.grain, req.leaf_cost_ns);
    if (req.tree->num_leaves() < cutoff) {
      InlineExecutor inline_exec;
      return search_impl(req, &inline_exec);
    }
  }
  WorkStealingPool pool(std::max(req.threads, 1u));
  return search_impl(req, &pool);
}

SearchResult search(const SearchRequest& req, Executor& exec) {
  return search_impl(req, &exec);
}

}  // namespace gtpar
