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
// Promotion (the paper's P-SOLVE case two, SearchRequest::promotion): when
// the spine catches up with a still-running scout, abort it and re-search
// the sibling in parallel, reusing the scout's exactly-memoised subtrees.
// With promotion off the spine join-waits for the sequential scout instead
// — the E17 ablation shows this serialises the top levels and caps the
// speed-up near 2x.
//
// SearchRequest::tt replaces the per-search exact-value memo with a shared
// transposition table (engine/tt.hpp): concurrent and subsequent searches
// reuse each other's completed subtrees, keyed by tree fingerprint + node.
// With a table, `work` counts scanned leaves, re-scans included: a hooked
// or costed request evaluates and stores every leaf it reaches
// (replacement may evict the record), and a request with free leaves (no
// leaf_hook, leaf_cost_ns 0) keeps leaves and leaf-frontier nodes out of
// the table and re-scans them whenever the search reaches them again.
// With the private memo, `work` counts distinct leaves.
//
// As in mt_solve.hpp, the cores read the SearchRequest the façade holds,
// run their scouts on the Executor they are given, and share their stop,
// leaf-cost, retry and scout-latch code through threads/cascade.hpp.
#pragma once

#include "gtpar/engine/api.hpp"

namespace gtpar {

/// Cascading parallel alpha-beta with scouts on `exec`. Safe to run many
/// instances concurrently on one shared executor.
SearchResult mt_parallel_ab(const Tree& t, const SearchRequest& req,
                            Executor& exec);

/// Single-threaded alpha-beta with the same leaf-cost model, leaf hook,
/// table and limits. width, grain and promotion are ignored.
SearchResult mt_sequential_ab(const Tree& t, const SearchRequest& req);

}  // namespace gtpar
