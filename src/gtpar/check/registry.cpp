#include "gtpar/check/registry.hpp"

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"

namespace gtpar::check {
namespace {

// The registry is expressed on the unified façade (engine/api.hpp): every
// entry builds a SearchRequest and runs it through gtpar::search (or
// through a batched Engine for the engine-backed variants), so the oracle
// exercises the exact dispatch path production callers use.
//
// `Algorithm` here is the registry-entry struct; the façade's enum is
// referred to by its qualified name.
using SearchAlgorithm = gtpar::Algorithm;

bool is_binary(const Tree& t) {
  for (NodeId v = 0; v < t.size(); ++v)
    if (!t.is_leaf(v) && t.num_children(v) != 2) return false;
  return true;
}

SearchRequest make_request(SearchAlgorithm a, const Tree& t, const TreeSource& src,
                           const RunContext& ctx) {
  SearchRequest req;
  req.algorithm = a;
  req.tree = &t;
  req.source = &src;
  req.leaf_cost_ns = 0;  // counters, not wall-clock, are under test
  // Resilience knobs (no-ops in the default fault-free RunContext).
  req.retry = ctx.retry;
  req.leaf_hook = ctx.leaf_hook;
  req.limits.cancel = ctx.cancel;
  return req;
}

RunOutcome from_search_result(const SearchResult& res) {
  RunOutcome out;
  out.value = res.value;
  out.work = res.work;
  out.completeness = res.completeness;
  out.retries = res.retries;
  return out;
}

RunOutcome run_facade(const SearchRequest& req) {
  return from_search_result(gtpar::search(req));
}

/// Engine-backed batch entry: submit `copies` identical requests to one
/// shared work-stealing Engine so their scouts interleave, then require
/// every *exact* copy to agree. On disagreement returns `sentinel`, a
/// value no correct search can produce, which the oracle flags as a
/// mismatch. Copies degraded by an injected fault or cancellation (see
/// RunContext) are tolerated: the entry reports the first exact copy, or
/// the first copy's anytime outcome when none completed.
RunOutcome run_engine_batch(const SearchRequest& req, unsigned copies,
                            Value sentinel, std::size_t tt_entries = 0) {
  Engine::Options eopt;
  eopt.workers = 4;
  // Entries declaring per-search work units run with the shared TT off
  // (tt_entries 0) so their distinct-leaf counters keep their meaning; the
  // dedicated tt entry opts in and declares Traits::shared_cache.
  eopt.tt_entries = tt_entries;
  Engine eng(eopt);
  std::vector<SearchRequest> reqs(copies, req);
  const std::vector<SearchResult> results = eng.run_all(reqs);
  const SearchResult* pick = nullptr;
  for (const SearchResult& res : results) {
    if (!res.complete) continue;
    if (pick != nullptr && res.value != pick->value)
      return RunOutcome{sentinel, pick->work, Completeness::kExact, res.retries};
    if (pick == nullptr) pick = &res;
  }
  return from_search_result(pick != nullptr ? *pick : results.front());
}

std::vector<Algorithm> build_nor_registry() {
  std::vector<Algorithm> r;

  r.push_back({"sequential-solve",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kSequentialSolve, t, src, ctx));
               }});

  for (unsigned w : {1u, 2u, 4u}) {
    r.push_back({"parallel-solve-w" + std::to_string(w),
                 {WorkUnit::kDistinctLeaves, false, false},
                 nullptr,
                 [w](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                   auto req = make_request(SearchAlgorithm::kParallelSolve, t, src, ctx);
                   req.width = w;
                   return run_facade(req);
                 }});
  }

  for (unsigned p : {3u, 8u}) {
    r.push_back({"team-solve-p" + std::to_string(p),
                 {WorkUnit::kDistinctLeaves, false, false},
                 nullptr,
                 [p](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                   auto req = make_request(SearchAlgorithm::kTeamSolve, t, src, ctx);
                   req.threads = p;
                   return run_facade(req);
                 }});
  }

  r.push_back({"parallel-solve-bounded-w2-p3",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req =
                     make_request(SearchAlgorithm::kParallelSolveBounded, t, src, ctx);
                 req.width = 2;
                 req.threads = 3;
                 return run_facade(req);
               }});

  r.push_back({"n-sequential-solve",
               {WorkUnit::kExpansions, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kNSequentialSolve, t, src, ctx));
               }});

  r.push_back({"n-parallel-solve-w1",
               {WorkUnit::kExpansions, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kNParallelSolve, t, src, ctx));
               }});

  r.push_back({"r-sequential-solve",
               {WorkUnit::kExpansions, false, true},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kRSequentialSolve, t, src, ctx);
                 req.seed = ctx.seed;
                 return run_facade(req);
               }});

  r.push_back({"r-parallel-solve-w1",
               {WorkUnit::kExpansions, false, true},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kRParallelSolve, t, src, ctx);
                 req.seed = ctx.seed;
                 return run_facade(req);
               }});

  r.push_back({"message-passing-solve",
               {WorkUnit::kExpansions, false, false},
               is_binary,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kMessagePassingSolve, t, src, ctx));
               }});

  r.push_back({"mt-sequential-solve",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kMtSequentialSolve, t, src, ctx));
               }});

  for (unsigned w : {1u, 3u}) {
    r.push_back({"mt-parallel-solve-w" + std::to_string(w),
                 {WorkUnit::kDistinctLeaves, true, false},
                 nullptr,
                 [w](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                   auto req = make_request(SearchAlgorithm::kMtParallelSolve, t, src, ctx);
                   req.width = w;
                   req.threads = 4;
                   req.grain = 1;  // always spawn: keep the cascade machinery under test
                   return run_facade(req);
                 }});
  }

  // Auto grain: the fuzz corpus trees sit below the default ~100us cutoff,
  // so this entry pins the inline flat-kernel fallthrough of the cascade.
  r.push_back({"mt-parallel-solve-autograin",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kMtParallelSolve, t, src, ctx);
                 req.threads = 4;
                 return run_facade(req);
               }});

  // The flat iterative kernel standalone: must match the recursive
  // Sequential SOLVE leaf-for-leaf on every tree.
  r.push_back({"flat-solve",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kFlatSolve, t, src, ctx));
               }});

  // Batch-floored flat kernel: leaf-frontier nodes reduced by the
  // vectorized batch reductions (solve/batch_kernels.hpp). The NOR
  // short-circuit fires at block granularity, so the leaf count may exceed
  // S(T) by up to kBatchBlock-1 per frontier cutoff — every scanned leaf is
  // distinct, so the oracle's [certificate, num_leaves] work interval still
  // binds.
  r.push_back({"flat-solve-batch",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kFlatSolveBatch, t, src, ctx));
               }});

  // Engine-backed variant: the same Mt cascade, but dispatched as batched
  // requests on a shared scheduler. The sentinel 2 is outside the NOR value
  // domain {0, 1}, so any cross-copy disagreement fails value checking.
  r.push_back({"engine-mt-parallel-solve-x3",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kMtParallelSolve, t, src, ctx);
                 req.grain = 1;
                 return run_engine_batch(req, 3, /*sentinel=*/2);
               }});

  return r;
}

std::vector<Algorithm> build_minimax_registry() {
  std::vector<Algorithm> r;

  r.push_back({"full-minimax",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(make_request(SearchAlgorithm::kMinimax, t, src, ctx));
               }});

  r.push_back({"alphabeta",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(make_request(SearchAlgorithm::kAlphaBeta, t, src, ctx));
               }});

  r.push_back({"scout",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(make_request(SearchAlgorithm::kScout, t, src, ctx));
               }});

  r.push_back({"sequential-ab",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kSequentialAb, t, src, ctx));
               }});

  for (unsigned w : {1u, 2u}) {
    r.push_back({"parallel-ab-w" + std::to_string(w),
                 {WorkUnit::kDistinctLeaves, false, false},
                 nullptr,
                 [w](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                   auto req = make_request(SearchAlgorithm::kParallelAb, t, src, ctx);
                   req.width = w;
                   return run_facade(req);
                 }});
  }

  r.push_back({"parallel-ab-bounded-w2-p3",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kParallelAbBounded, t, src, ctx);
                 req.width = 2;
                 req.threads = 3;
                 return run_facade(req);
               }});

  r.push_back({"sss-star",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(make_request(SearchAlgorithm::kSss, t, src, ctx));
               }});

  r.push_back({"parallel-sss-p4",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kParallelSss, t, src, ctx);
                 req.threads = 4;
                 return run_facade(req);
               }});

  r.push_back({"n-sequential-ab",
               {WorkUnit::kExpansions, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kNSequentialAb, t, src, ctx));
               }});

  r.push_back({"n-parallel-ab-w1",
               {WorkUnit::kExpansions, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kNParallelAb, t, src, ctx));
               }});

  r.push_back({"r-sequential-ab",
               {WorkUnit::kExpansions, false, true},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kRSequentialAb, t, src, ctx);
                 req.seed = ctx.seed;
                 return run_facade(req);
               }});

  r.push_back({"r-parallel-ab-w1",
               {WorkUnit::kExpansions, false, true},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kRParallelAb, t, src, ctx);
                 req.seed = ctx.seed;
                 return run_facade(req);
               }});

  r.push_back({"tt-alphabeta",
               {WorkUnit::kOther, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kTtAlphaBeta, t, src, ctx));
               }});

  r.push_back({"depth-limited-ab-full",
               {WorkUnit::kOther, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 // depth_limit 0 = horizon strictly below every leaf: the
                 // heuristic is never consulted, so the result must be the
                 // exact minimax value.
                 return run_facade(
                     make_request(SearchAlgorithm::kDepthLimitedAb, t, src, ctx));
               }});

  r.push_back({"mt-sequential-ab",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kMtSequentialAb, t, src, ctx));
               }});

  for (const bool promotion : {true, false}) {
    r.push_back({promotion ? "mt-parallel-ab" : "mt-parallel-ab-nopromo",
                 {WorkUnit::kDistinctLeaves, true, false},
                 nullptr,
                 [promotion](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                   auto req = make_request(SearchAlgorithm::kMtParallelAb, t, src, ctx);
                   req.threads = 4;
                   req.promotion = promotion;
                   req.grain = 1;  // always spawn: keep the cascade machinery under test
                   return run_facade(req);
                 }});
  }

  // Auto grain: pins the cascade's inline flat-kernel fallthrough.
  r.push_back({"mt-parallel-ab-autograin",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kMtParallelAb, t, src, ctx);
                 req.threads = 4;
                 return run_facade(req);
               }});

  // The flat iterative kernel standalone: must match the recursive
  // alpha-beta value (and visit a pruning-valid leaf set) on every tree.
  r.push_back({"flat-ab",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(make_request(SearchAlgorithm::kFlatAb, t, src, ctx));
               }});

  // Batch-floored flat alpha-beta: exact root value, pruning-valid leaf
  // set; block-granularity cutoffs may scan up to kBatchBlock-1 extra
  // distinct leaves per frontier node vs the per-element kernel (see
  // flat-solve-batch above for the dispatch-path coverage story).
  r.push_back({"flat-ab-batch",
               {WorkUnit::kDistinctLeaves, false, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 return run_facade(
                     make_request(SearchAlgorithm::kFlatAbBatch, t, src, ctx));
               }});

  // Engine-backed variants; kPlusInf is unreachable for tree values, so a
  // cross-copy disagreement fails value checking.
  r.push_back({"engine-mt-parallel-ab-x3",
               {WorkUnit::kDistinctLeaves, true, false},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kMtParallelAb, t, src, ctx);
                 req.grain = 1;
                 return run_engine_batch(req, 3, /*sentinel=*/kPlusInf);
               }});

  // Shared transposition table across the three concurrent copies: the
  // copies race probe/store on one table and reuse each other's exact
  // subtree values. Work bounds don't apply (Traits::shared_cache); the
  // value must still be exact on every copy.
  r.push_back({"engine-mt-parallel-ab-tt-x3",
               {WorkUnit::kOther, true, false, /*shared_cache=*/true},
               nullptr,
               [](const Tree& t, const TreeSource& src, const RunContext& ctx) {
                 auto req = make_request(SearchAlgorithm::kMtParallelAb, t, src, ctx);
                 req.grain = 1;
                 return run_engine_batch(req, 3, /*sentinel=*/kPlusInf,
                                         /*tt_entries=*/std::size_t{1} << 14);
               }});

  return r;
}

}  // namespace

const std::vector<Algorithm>& nor_registry() {
  static const std::vector<Algorithm> registry = build_nor_registry();
  return registry;
}

const std::vector<Algorithm>& minimax_registry() {
  static const std::vector<Algorithm> registry = build_minimax_registry();
  return registry;
}

}  // namespace gtpar::check
