// gtpar/solve/flat_kernels.hpp
//
// Flat iterative sequential kernels: explicit-stack, allocation-free (the
// frame stack is reused thread-locally) left-to-right SOLVE and fail-soft
// alpha-beta over the Tree arena. The inner loops are plain index
// arithmetic on the arena's hot arrays (Tree::HotView) — no recursion, no
// std::function, no per-node span construction.
//
// These kernels are the *sequential floor* of the real-thread cascades
// (threads/mt_solve.cpp, threads/mt_ab.cpp): every scout task and every
// below-grain-cutoff subtree (engine/granularity.hpp) runs one of them.
// They are templated on a small context so the mt cores can plug in their
// shared memo / transposition table, leaf-cost model and cancellation
// without paying an indirect call per node:
//
//   NOR SOLVE context                     alpha-beta context
//   -----------------                     ------------------
//   int  lookup(NodeId)  // -1/0/1        bool probe(NodeId, Value&)
//   void store(NodeId, bool)              void store(NodeId, Value)  // exact only
//   bool leaf(NodeId, bool&)              bool leaf(NodeId, Value&)
//   bool stop()                           bool stop()
//
// leaf() returns false when the search must stop (cancellation, budget,
// permanent fault) — the kernel unwinds immediately and reports !ok, and
// no truncated value is ever stored. stop() is polled at node granularity.
//
// The standalone entry points flat_solve / flat_alphabeta (flat_kernels.cpp)
// run the same cores with a trivial counting context; they are registered
// in the differential registry so the oracle and fuzzer cross-check the
// iterative kernels against the recursive references on every tree.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gtpar/common.hpp"
#include "gtpar/solve/batch_kernels.hpp"
#include "gtpar/tree/tree.hpp"

// One-frame-ahead prefetch: issued while descending into an internal child,
// so its child-id and SoA leaf-value rows are in cache by the time its own
// frame is entered.
#if defined(__GNUC__)
#define GTPAR_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define GTPAR_PREFETCH(addr) ((void)0)
#endif

namespace gtpar {

namespace detail {

/// Reusable frame stacks. One pair per thread: kernels never run nested on
/// one thread (a scout is a leaf task; the spine calls the kernel only as
/// its sequential floor), so a thread-local scratch is safe and keeps the
/// steady state allocation-free.
struct FlatScratch {
  struct SolveFrame {
    NodeId v;
    std::uint32_t next;
  };
  struct AbFrame {
    NodeId v;
    std::uint32_t next;
    Value alpha;
    Value beta;
    Value best;
    bool maxing;
    bool all_exact;
  };
  std::vector<SolveFrame> solve;
  std::vector<AbFrame> ab;
  /// Re-entrancy sentinel: the kernels never nest on one thread (scouts
  /// are leaf tasks and the spines call a kernel only as their sequential
  /// floor, never from inside one), so the thread-local stacks are safe to
  /// reuse. Checked in all build types — see ScratchGuard.
  bool in_use = false;
};

FlatScratch& flat_scratch() noexcept;

/// Nesting guard. A nested entry would clear and reuse the outer kernel's
/// live frame stack mid-walk — silent stack corruption, not a recoverable
/// condition — so the check stays on in release builds too. It costs one
/// predictable branch per kernel *invocation* (not per node), which is
/// noise next to the tree walk itself.
struct ScratchGuard {
  explicit ScratchGuard(FlatScratch& s) noexcept : s_(s) {
    if (s_.in_use) {
      std::fprintf(stderr,
                   "gtpar fatal: flat kernel re-entered on one thread "
                   "(a search context called back into flat_solve/"
                   "flat_alphabeta from leaf()/stop())\n");
      std::abort();
    }
    s_.in_use = true;
  }
  ~ScratchGuard() { s_.in_use = false; }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  FlatScratch& s_;
};

/// Packed leaf-frontier bit test on the hot view (Tree::is_leaf_frontier).
inline bool leaf_frontier_bit(const Tree::HotView& h, NodeId v) noexcept {
  return (h.leaf_frontier[v >> 6] >> (v & 63)) & 1u;
}

}  // namespace detail

/// Iterative left-to-right SOLVE of the subtree rooted at `root`.
/// Semantics are identical to the recursive memoising solver: a node is 1
/// iff all children are 0 (NOR), children are visited left to right with
/// short-circuit on the first 1-child, and every *completed* subtree value
/// is stored through the context. Returns the subtree value; `ok` is false
/// if the run was stopped mid-way (the value is then meaningless and
/// nothing truncated was stored).
///
/// With kBatch = true, a leaf-frontier node (all children leaves) is
/// reduced in one call to batch_nor_any over its contiguous
/// HotView::child_values slice instead of one leaf() call per child. The
/// context must then also provide `void batch_leaves(std::uint32_t)` for
/// work accounting, and its leaves must be *free*: leaf() only reads and
/// counts the tree's value (no memo traffic per leaf, no per-leaf cost,
/// hook or fault), and cancellation is observed through stop(), which the
/// kernel polls at node granularity. The standalone counting contexts
/// qualify, and so does mt_ab's context for a request with no leaf hook
/// and no leaf cost on a shared table (threads/mt_ab.cpp); hooked or
/// costed requests, private-memo searches and mt_solve instantiate
/// kBatch = false.
template <bool kBatch = false, class Ctx>
bool flat_solve_core(const Tree& t, NodeId root, Ctx& ctx, bool& ok) {
  const Tree::HotView h = t.hot_view();
  detail::FlatScratch& scratch = detail::flat_scratch();
  const detail::ScratchGuard guard(scratch);
  auto& stack = scratch.solve;
  stack.clear();
  ok = true;

  // `ret` carries the value of the last completed subtree up the stack.
  bool ret = false;
  {
    const int cached = ctx.lookup(root);
    if (cached >= 0) return cached != 0;
  }
  stack.push_back({root, 0});
  while (!stack.empty()) {
    auto& f = stack.back();
    if (f.next == 0) {
      // First entry of f.v (cache already consulted before pushing).
      if (ctx.stop()) {
        ok = false;
        return false;
      }
      if (h.child_count[f.v] == 0) {
        bool out = false;
        if (!ctx.leaf(f.v, out)) {
          ok = false;
          return false;
        }
        ret = out;
        stack.pop_back();
        continue;
      }
      if constexpr (kBatch) {
        if (detail::leaf_frontier_bit(h, f.v)) {
          // Whole-frontier floor: NOR-reduce the contiguous leaf-value
          // slice in one vectorized scan (short-circuits at block
          // granularity on the first 1-child).
          const BatchNor r = batch_nor_any(
              h.child_values + h.child_begin[f.v], h.child_count[f.v]);
          ctx.batch_leaves(r.scanned);
          const bool val = !r.any_one;
          ctx.store(f.v, val);
          ret = val;
          stack.pop_back();
          continue;
        }
      }
    } else {
      // Returning from child f.next - 1.
      if (ctx.stop()) {
        ok = false;
        return false;
      }
      if (ret) {
        // A 1-child settles the NOR node to 0 (short-circuit).
        ctx.store(f.v, false);
        ret = false;
        stack.pop_back();
        continue;
      }
    }
    if (f.next == h.child_count[f.v]) {
      // All children 0: the NOR node is 1.
      ctx.store(f.v, true);
      ret = true;
      stack.pop_back();
      continue;
    }
    const NodeId c = h.children[h.child_begin[f.v] + f.next];
    ++f.next;
    const int cached = ctx.lookup(c);
    if (cached >= 0) {
      ret = cached != 0;
      // Feed the memoised value through the merge path on the next spin:
      // emulate "returned from child" by leaving f on top. The merge code
      // runs because f.next > 0 now.
      if (ret) {
        ctx.store(f.v, false);
        ret = false;
        stack.pop_back();
      } else if (f.next == h.child_count[f.v]) {
        ctx.store(f.v, true);
        ret = true;
        stack.pop_back();
      }
      continue;
    }
    GTPAR_PREFETCH(h.children + h.child_begin[c]);
    GTPAR_PREFETCH(h.child_values + h.child_begin[c]);
    stack.push_back({c, 0});
  }
  return ret;
}

/// Iterative fail-soft alpha-beta of the subtree rooted at `root` under
/// window (alpha, beta). Mirrors the recursive mt_ab sequential scout
/// exactly: an optional dynamic bound published by a spawning spine is
/// re-read at every node entry (`dyn`/`dyn_is_alpha`), exact subtree
/// values are probed/stored through the context, and a stop unwinds
/// without storing. On return `exact` is true iff the value is the true
/// minimax value of the subtree (no cutoff at or below it, and no stop).
///
/// Leaves are never probed by the kernel: leaf() owns a leaf's memo
/// traffic, so a context with a memo pays one probe per leaf.
///
/// With kBatch = true, a leaf-frontier node is reduced in one bounded
/// batch_max/batch_min scan over its contiguous HotView::child_values
/// slice under the node's (alpha, beta) window: no cutoff means the exact
/// node value, a cutoff means a fail-soft bound exactly like the per-child
/// loop — except the early exit fires at kBatchBlock granularity, so up to
/// kBatchBlock-1 extra (distinct) leaves are scanned and the fail-soft
/// bound can be tighter. A leaf-frontier node is then neither probed nor
/// stored: the scan costs less than a table probe. `dyn` is read once at
/// the frontier node's entry, not again between its leaves, which can only
/// loosen the fail-soft bound, never make it unsound. The context must
/// provide `void batch_leaves(std::uint32_t)` and have free leaves (see
/// flat_solve_core).
template <bool kBatch = false, class Ctx>
Value flat_ab_core(const Tree& t, NodeId root, Value alpha0, Value beta0,
                   const std::atomic<Value>* dyn, bool dyn_is_alpha, Ctx& ctx,
                   bool& exact) {
  const Tree::HotView h = t.hot_view();
  detail::FlatScratch& scratch = detail::flat_scratch();
  const detail::ScratchGuard guard(scratch);
  auto& stack = scratch.ab;
  stack.clear();
  exact = false;

  Value ret = 0;       // value of the last completed child
  bool ret_exact = false;

  // Entering a node: probe / clamp / descend-or-evaluate. Returns true if
  // the node resolved immediately (ret/ret_exact set), false if a frame
  // was pushed. Sets `stopped` when the search must unwind.
  // (Hand-inlined below twice — root entry and child descent — to keep the
  // loop allocation- and lambda-free.)

  // Root entry.
  {
    if (ctx.stop()) return 0;
    const bool frontier = kBatch && detail::leaf_frontier_bit(h, root);
    Value cached;
    if (h.child_count[root] != 0 && !frontier && ctx.probe(root, cached)) {
      exact = true;
      return cached;
    }
    Value a = alpha0, b = beta0;
    if (dyn != nullptr) {
      const Value d = dyn->load(std::memory_order_relaxed);
      if (dyn_is_alpha)
        a = a > d ? a : d;
      else
        b = b < d ? b : d;
      if (a >= b) return dyn_is_alpha ? a : b;  // dead window
    }
    if (h.child_count[root] == 0) {
      Value out;
      if (!ctx.leaf(root, out)) return 0;
      exact = true;
      return out;
    }
    const bool maxing = (h.depth[root] % 2) == 0;
    if constexpr (kBatch) {
      if (frontier) {
        const Value* vals = h.child_values + h.child_begin[root];
        const std::uint32_t n = h.child_count[root];
        const BatchReduce r =
            maxing ? batch_max(vals, n, b) : batch_min(vals, n, a);
        ctx.batch_leaves(r.scanned);
        exact = !r.cutoff;
        return r.best;
      }
    }
    stack.push_back({root, 0, a, b, maxing ? kMinusInf : kPlusInf, maxing, true});
  }

  while (!stack.empty()) {
    auto& f = stack.back();
    if (f.next > 0) {
      // Merge the completed child into f.
      if (ctx.stop()) {
        exact = false;
        return 0;
      }
      f.all_exact = f.all_exact && ret_exact;
      if (f.maxing) {
        if (ret > f.best) f.best = ret;
        if (f.best > f.alpha) f.alpha = f.best;
      } else {
        if (ret < f.best) f.best = ret;
        if (f.best < f.beta) f.beta = f.best;
      }
      if (f.alpha >= f.beta) {
        // Cutoff: fail-soft return, not exact, never stored.
        ret = f.best;
        ret_exact = false;
        stack.pop_back();
        continue;
      }
    }
    if (f.next == h.child_count[f.v]) {
      ret = f.best;
      ret_exact = f.all_exact;
      if (f.all_exact) ctx.store(f.v, f.best);
      stack.pop_back();
      continue;
    }
    const NodeId c = h.children[h.child_begin[f.v] + f.next];
    ++f.next;

    // Child entry (mirrors the root entry above).
    if (ctx.stop()) {
      exact = false;
      return 0;
    }
    const bool frontier = kBatch && detail::leaf_frontier_bit(h, c);
    Value cached;
    if (h.child_count[c] != 0 && !frontier && ctx.probe(c, cached)) {
      ret = cached;
      ret_exact = true;
      continue;
    }
    Value a = f.alpha, b = f.beta;
    if (dyn != nullptr) {
      const Value d = dyn->load(std::memory_order_relaxed);
      if (dyn_is_alpha)
        a = a > d ? a : d;
      else
        b = b < d ? b : d;
      if (a >= b) {
        ret = dyn_is_alpha ? a : b;
        ret_exact = false;
        continue;
      }
    }
    if (h.child_count[c] == 0) {
      Value out;
      if (!ctx.leaf(c, out)) {
        exact = false;
        return 0;
      }
      ret = out;
      ret_exact = true;
      continue;
    }
    const bool maxing = (h.depth[c] % 2) == 0;
    if constexpr (kBatch) {
      if (frontier) {
        const Value* vals = h.child_values + h.child_begin[c];
        const std::uint32_t n = h.child_count[c];
        const BatchReduce r =
            maxing ? batch_max(vals, n, b) : batch_min(vals, n, a);
        ctx.batch_leaves(r.scanned);
        ret = r.best;
        ret_exact = !r.cutoff;
        continue;
      }
    }
    GTPAR_PREFETCH(h.children + h.child_begin[c]);
    GTPAR_PREFETCH(h.child_values + h.child_begin[c]);
    stack.push_back({c, 0, a, b, maxing ? kMinusInf : kPlusInf, maxing, true});
  }
  exact = ret_exact;
  return ret;
}

/// Standalone flat SOLVE: value + leaves evaluated. Evaluates exactly the
/// leaf sequence of Sequential SOLVE (S-SOLVE), so its work equals S(T).
struct FlatSolveRun {
  bool value = false;
  std::uint64_t leaves_evaluated = 0;
};
FlatSolveRun flat_solve(const Tree& t);

/// Standalone flat fail-soft alpha-beta over the full window: exact root
/// value + distinct leaves evaluated (identical to the recursive
/// sequential alpha-beta's leaf set).
struct FlatAbRun {
  Value value = 0;
  std::uint64_t leaves_evaluated = 0;
};
FlatAbRun flat_alphabeta(const Tree& t, Value alpha = kMinusInf,
                         Value beta = kPlusInf);

/// Batch-floored variants of the two standalone kernels: identical root
/// values, but leaf-frontier nodes are reduced by the vectorized batch
/// kernels (solve/batch_kernels.hpp) instead of per-child context calls.
/// leaves_evaluated counts every scanned leaf (each distinct leaf at most
/// once); block-granularity early exits may scan up to kBatchBlock-1 more
/// leaves per cutoff than the per-element kernels, so the count lies in
/// [scalar kernel's count, num_leaves]. Registered in the differential
/// registry as flat-solve-batch / flat-ab-batch.
FlatSolveRun flat_solve_batch(const Tree& t);
FlatAbRun flat_alphabeta_batch(const Tree& t, Value alpha = kMinusInf,
                               Value beta = kPlusInf);

}  // namespace gtpar
