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
// Leaf evaluation cost is configurable (SearchRequest::leaf_cost_ns under
// cost_model) so that the workload models the paper's unit-cost leaf
// evaluations; with 0 cost the run degenerates to memory traffic and
// speed-ups vanish, exactly as one would expect.
//
// The cores read the SearchRequest the façade holds (width, leaf cost,
// grain, leaf hook, retry budget, limits) and run their scouts on the
// Executor they are given; the stop, leaf-cost, retry and scout-latch
// code they share with mt_ab.hpp lives in threads/cascade.hpp. Callers
// reach them through gtpar::search (engine/api.hpp) or gtpar::Engine.
#pragma once

#include "gtpar/engine/api.hpp"

namespace gtpar {

/// Width-`req.width` Parallel SOLVE with scouts on `exec` (the spine runs
/// on the calling thread). Safe to run many instances concurrently on one
/// shared executor. `work` counts distinct leaves evaluated.
SearchResult mt_parallel_solve(const Tree& t, const SearchRequest& req,
                               Executor& exec);

/// Single-threaded Sequential SOLVE with the same leaf-cost model, leaf
/// hook and limits, for apples-to-apples wall-clock baselines. width and
/// grain are ignored.
SearchResult mt_sequential_solve(const Tree& t, const SearchRequest& req);

}  // namespace gtpar
