// gtpar/solve/batch_kernels.hpp
//
// Vectorized SoA batch reductions — the leaf-frontier floor of the flat
// kernels (flat_kernels.hpp). A frontier node (every child a leaf,
// Tree::is_leaf_frontier) has its children's values gathered into one
// contiguous slice of HotView::child_values at build time; these routines
// reduce such a slice with wide min/max/NOR loops instead of one stack
// frame + one context call per child.
//
// Every reduction follows ONE canonical early-exit semantic, which
// test_batch_kernels.cpp re-implements as a reference model:
//
//   - full blocks of kBatchBlock (= 8) elements are folded into the running
//     reduction, and the early-exit condition (alpha-beta bound tripped,
//     NOR saw a 1) is checked only at block boundaries against the whole
//     prefix processed so far;
//   - the tail (< kBatchBlock elements) is processed element-wise with a
//     per-element early-exit check.
//
// Block-granularity exits over-scan at most kBatchBlock-1 leaves relative
// to the per-element scalar kernels. That is sound everywhere they are
// used: a fail-soft best over a *prefix* of children is still a valid
// bound (max over more children only tightens it), every scanned leaf is
// distinct so the differential oracle's work interval
// [certificate, num_leaves] still holds, and exact (no-cutoff) results are
// unaffected because they always scan the full span.
#pragma once

#include <cstdint>

#include "gtpar/common.hpp"

namespace gtpar {

/// Early-exit granularity (elements per block).
inline constexpr std::uint32_t kBatchBlock = 8;

/// Result of a bounded max/min reduction over a leaf-value span.
struct BatchReduce {
  Value best = 0;             ///< reduction over the scanned prefix
  std::uint32_t scanned = 0;  ///< elements examined (== n iff no cutoff)
  bool cutoff = false;        ///< bound tripped before the span ended
};

/// Result of a NOR any-one scan over a leaf-value span.
struct BatchNor {
  bool any_one = false;       ///< a nonzero element exists in the scanned prefix
  std::uint32_t scanned = 0;  ///< elements examined (== n iff !any_one)
};

/// Max-reduce v[0..n); early-exit when the running max >= bound (the
/// alpha-beta cutoff test at a MAX node whose window is (alpha, bound)).
/// n == 0 returns {kMinusInf, 0, false}.
BatchReduce batch_max(const Value* v, std::uint32_t n, Value bound) noexcept;

/// Min-reduce v[0..n); early-exit when the running min <= bound (the
/// cutoff test at a MIN node whose window is (bound, beta)).
/// n == 0 returns {kPlusInf, 0, false}.
BatchReduce batch_min(const Value* v, std::uint32_t n, Value bound) noexcept;

/// NOR short-circuit scan of v[0..n): stop as soon as a nonzero element is
/// known to exist. The parent NOR node's value is !any_one.
BatchNor batch_nor_any(const Value* v, std::uint32_t n) noexcept;

}  // namespace gtpar
