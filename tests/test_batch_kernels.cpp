// Batch leaf reductions (solve/batch_kernels.hpp): the SoA kernels that
// floor the flat searches at leaf-frontier nodes. The kernels implement
// the canonical block-of-kBatchBlock early-exit reduction — full blocks
// folded with no intra-block exit, the cutoff test applied to the
// accumulated prefix at block boundaries, the ragged tail element-wise —
// which a straight-line reference model re-implements below.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "gtpar/ab/alphabeta.hpp"
#include "gtpar/solve/batch_kernels.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/solve/sequential_solve.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/tree.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

// --- Reference model: the canonical block-granularity semantics. ------------

BatchReduce ref_max(const std::vector<Value>& v, Value bound) {
  BatchReduce r{kMinusInf, 0, false};
  const auto n = static_cast<std::uint32_t>(v.size());
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    for (std::uint32_t j = 0; j < kBatchBlock; ++j)
      if (v[i + j] > r.best) r.best = v[i + j];
    i += kBatchBlock;
    if (r.best >= bound) {
      r.scanned = i;
      r.cutoff = true;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] > r.best) r.best = v[i];
    if (r.best >= bound) {
      r.scanned = i + 1;
      r.cutoff = true;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

BatchReduce ref_min(const std::vector<Value>& v, Value bound) {
  BatchReduce r{kPlusInf, 0, false};
  const auto n = static_cast<std::uint32_t>(v.size());
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    for (std::uint32_t j = 0; j < kBatchBlock; ++j)
      if (v[i + j] < r.best) r.best = v[i + j];
    i += kBatchBlock;
    if (r.best <= bound) {
      r.scanned = i;
      r.cutoff = true;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] < r.best) r.best = v[i];
    if (r.best <= bound) {
      r.scanned = i + 1;
      r.cutoff = true;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

BatchNor ref_nor(const std::vector<Value>& v) {
  BatchNor r{false, 0};
  const auto n = static_cast<std::uint32_t>(v.size());
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    Value acc = 0;
    for (std::uint32_t j = 0; j < kBatchBlock; ++j) acc |= v[i + j];
    i += kBatchBlock;
    if (acc != 0) {
      r.any_one = true;
      r.scanned = i;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] != 0) {
      r.any_one = true;
      r.scanned = i + 1;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

/// Randomized spans that concentrate on the interesting boundaries: empty,
/// single element, one-below/at/one-above a block multiple, and long.
std::vector<Value> random_span(std::mt19937_64& rng, bool extremes) {
  static const std::uint32_t kSizes[] = {0,  1,  2,  7,  8,  9,  15, 16,
                                         17, 23, 24, 31, 32, 63, 64, 257};
  const std::uint32_t n = kSizes[rng() % (sizeof(kSizes) / sizeof(kSizes[0]))];
  std::vector<Value> v(n);
  std::uniform_int_distribution<Value> dist(-1000, 1000);
  for (auto& x : v) x = dist(rng);
  if (extremes && n > 0) {
    // Sprinkle sentinel extremes: the kernels must not wrap or saturate
    // around the +-inf sentinels.
    for (int k = 0; k < 3; ++k) {
      v[rng() % n] = (rng() & 1) ? kPlusInf : kMinusInf;
    }
  }
  return v;
}

Value random_bound(std::mt19937_64& rng) {
  static const Value kBounds[] = {kMinusInf, kMinusInf + 1, -1000, -3, 0,
                                  3,         1000,          kPlusInf - 1,
                                  kPlusInf};
  return kBounds[rng() % (sizeof(kBounds) / sizeof(kBounds[0]))];
}

// --- Span-level properties. -------------------------------------------------

TEST(BatchKernels, MaxMatchesReference) {
  std::mt19937_64 rng(0xb17c4u);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<Value> v = random_span(rng, iter % 2 == 0);
    const Value bound = random_bound(rng);
    const BatchReduce want = ref_max(v, bound);
    const BatchReduce got =
        batch_max(v.data(), static_cast<std::uint32_t>(v.size()), bound);
    EXPECT_EQ(got.best, want.best) << "iter " << iter;
    EXPECT_EQ(got.scanned, want.scanned) << "iter " << iter;
    EXPECT_EQ(got.cutoff, want.cutoff) << "iter " << iter;
  }
}

TEST(BatchKernels, MinMatchesReference) {
  std::mt19937_64 rng(0xb17c5u);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<Value> v = random_span(rng, iter % 2 == 0);
    const Value bound = random_bound(rng);
    const BatchReduce want = ref_min(v, bound);
    const BatchReduce got =
        batch_min(v.data(), static_cast<std::uint32_t>(v.size()), bound);
    EXPECT_EQ(got.best, want.best) << "iter " << iter;
    EXPECT_EQ(got.scanned, want.scanned) << "iter " << iter;
    EXPECT_EQ(got.cutoff, want.cutoff) << "iter " << iter;
  }
}

TEST(BatchKernels, NorMatchesReference) {
  std::mt19937_64 rng(0xb17c6u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<Value> v = random_span(rng, false);
    // NOR spans carry {0, 1}: bias towards all-zero so the no-exit path
    // (full scan, any_one == false) is exercised about half the time.
    const bool all_zero = (rng() & 1) != 0;
    for (auto& x : v) x = all_zero ? 0 : Value(rng() % 4 == 0);
    const BatchNor want = ref_nor(v);
    const BatchNor got =
        batch_nor_any(v.data(), static_cast<std::uint32_t>(v.size()));
    EXPECT_EQ(got.any_one, want.any_one) << "iter " << iter;
    EXPECT_EQ(got.scanned, want.scanned) << "iter " << iter;
  }
}

TEST(BatchKernels, EmptyAndDegenerateSpans) {
  const BatchReduce mx = batch_max(nullptr, 0, 0);
  EXPECT_EQ(mx.best, kMinusInf);
  EXPECT_EQ(mx.scanned, 0u);
  EXPECT_FALSE(mx.cutoff);
  const BatchReduce mn = batch_min(nullptr, 0, 0);
  EXPECT_EQ(mn.best, kPlusInf);
  EXPECT_EQ(mn.scanned, 0u);
  EXPECT_FALSE(mn.cutoff);
  const BatchNor nr = batch_nor_any(nullptr, 0);
  EXPECT_FALSE(nr.any_one);
  EXPECT_EQ(nr.scanned, 0u);

  // Single element at the sentinel extremes, bound at the sentinels: the
  // tightest wrap-around hazard.
  const Value one_lo = kMinusInf, one_hi = kPlusInf;
  EXPECT_TRUE(batch_max(&one_hi, 1, kPlusInf).cutoff);
  EXPECT_FALSE(batch_max(&one_lo, 1, kPlusInf).cutoff);
  EXPECT_EQ(batch_max(&one_lo, 1, kPlusInf).best, kMinusInf);
  EXPECT_TRUE(batch_min(&one_lo, 1, kMinusInf).cutoff);
  EXPECT_FALSE(batch_min(&one_hi, 1, kMinusInf).cutoff);
  EXPECT_EQ(batch_min(&one_hi, 1, kMinusInf).best, kPlusInf);
}

// --- Tree-level properties: the batch-floored flat kernels. -----------------

TEST(BatchFlatSolve, MatchesPlainFlatSolveOnGeneratedTrees) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Tree t = make_uniform_iid_nor(4, 5, golden_bias(), seed);
    const FlatSolveRun plain = flat_solve(t);
    const FlatSolveRun batch = flat_solve_batch(t);
    EXPECT_EQ(batch.value, plain.value) << "seed " << seed;
    EXPECT_EQ(batch.value, nor_value(t)) << "seed " << seed;
    // NOR values are exact either way, so over-scanning a frontier block
    // never changes the traversal elsewhere: the batch kernel's count is
    // the plain count plus at most kBatchBlock-1 extra leaves per
    // frontier short-circuit, and never exceeds the whole tree.
    EXPECT_GE(batch.leaves_evaluated, plain.leaves_evaluated) << "seed " << seed;
    EXPECT_LE(batch.leaves_evaluated, t.num_leaves()) << "seed " << seed;
  }
}

TEST(BatchFlatSolve, RaggedShapes) {
  RandomShapeParams p;
  p.d_min = 1;
  p.d_max = 12;  // spans well past one block, plus unit-width spines
  p.n_min = 2;
  p.n_max = 6;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Tree t = make_random_shape_nor(p, 0.55, seed);
    EXPECT_EQ(flat_solve_batch(t).value, nor_value(t)) << "seed " << seed;
  }
}

TEST(BatchFlatSolve, WorstCaseScansEveryLeaf) {
  const Tree t = make_worst_case_nor(2, 10, false);
  const FlatSolveRun r = flat_solve_batch(t);
  EXPECT_EQ(r.value, nor_value(t));
  EXPECT_EQ(r.leaves_evaluated, t.num_leaves());
}

TEST(BatchFlatAb, ExactValueOnGeneratedTrees) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Tree t = make_uniform_iid_minimax(4, 5, -100, 100, seed);
    const Value want = minimax_value(t);
    const FlatAbRun batch = flat_alphabeta_batch(t);
    EXPECT_EQ(batch.value, want) << "seed " << seed;
    EXPECT_LE(batch.leaves_evaluated, t.num_leaves()) << "seed " << seed;
    EXPECT_GE(batch.leaves_evaluated, 1u) << "seed " << seed;
  }
}

TEST(BatchFlatAb, RaggedShapes) {
  RandomShapeParams p;
  p.d_min = 1;
  p.d_max = 12;
  p.n_min = 2;
  p.n_max = 6;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Tree t = make_random_shape_minimax(p, -50, 50, seed);
    EXPECT_EQ(flat_alphabeta_batch(t).value, minimax_value(t))
        << "seed " << seed;
  }
}

TEST(BatchFlatAb, NarrowWindowFailSoftBound) {
  // Under a null window around the true value the batch kernel, like the
  // plain one, must still bracket correctly: a (truth-1, truth+1) window
  // yields the exact value.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Tree t = make_uniform_iid_minimax(3, 6, -100, 100, seed);
    const Value truth = minimax_value(t);
    const FlatAbRun r = flat_alphabeta_batch(t, truth - 1, truth + 1);
    EXPECT_EQ(r.value, truth) << "seed " << seed;
  }
}

TEST(BatchFlatAb, SingleLeafAndSingleFrontierTree) {
  // Height-1 uniform trees are one leaf-frontier node: the whole search
  // is a single batch reduction.
  for (unsigned d : {1u, 7u, 8u, 9u, 31u}) {
    const Tree t = make_uniform_iid_minimax(d, 1, -10, 10, 77 + d);
    EXPECT_EQ(flat_alphabeta_batch(t).value, minimax_value(t)) << "d=" << d;
    const Tree nor = make_uniform_iid_nor(d, 1, 0.3, 99 + d);
    EXPECT_EQ(flat_solve_batch(nor).value, nor_value(nor)) << "d=" << d;
  }
}

TEST(BatchFlatAb, LeafFrontierMetadataAgreesWithShape) {
  // The build-time frontier bitset the kernels key on: set exactly for
  // internal nodes whose every child is a leaf, and the gathered
  // child_values SoA mirror carries those leaves' values.
  RandomShapeParams p;
  p.d_min = 1;
  p.d_max = 6;
  p.n_min = 1;
  p.n_max = 5;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Tree t = make_random_shape_minimax(p, -9, 9, seed);
    const Tree::HotView h = t.hot_view();
    for (NodeId v = 0; v < t.size(); ++v) {
      if (t.is_leaf(v)) {
        EXPECT_FALSE(t.is_leaf_frontier(v)) << "leaf " << v;
        continue;
      }
      bool all_leaves = true;
      for (const NodeId c : t.children(v))
        if (!t.is_leaf(c)) all_leaves = false;
      EXPECT_EQ(t.is_leaf_frontier(v), all_leaves) << "node " << v;
      if (all_leaves) {
        const std::uint32_t begin = h.child_begin[v];
        for (std::uint32_t i = 0; i < h.child_count[v]; ++i)
          EXPECT_EQ(h.child_values[begin + i],
                    t.leaf_value(h.children[begin + i]))
              << "node " << v << " child " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gtpar
