#include "gtpar/threads/mt_ab.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "gtpar/engine/tt.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/threads/cascade.hpp"

namespace gtpar {
namespace {

/// Shared alpha-beta state: the cascade's control block plus the exact
/// memo (or the shared table standing in for it).
struct AbShared : CascadeControl {
  /// Private exact-value memo, one slot per node: bit 40 marks presence,
  /// the low 32 bits hold the value. Only *exact* minimax values are
  /// stored (a value computed without any cutoff below it), so a hit is
  /// usable under any window. This is what makes promotion (abort scout,
  /// re-search in parallel) cheap: the re-search walks the scout's
  /// completed subtrees out of the cache instead of re-paying their
  /// leaves. Empty when a shared TranspositionTable is supplied — the TT
  /// then plays the memo's role across every search sharing it. Slots
  /// start empty (0) from the vector's value-initialisation alone:
  /// std::atomic's default constructor zero-fills since C++20.
  std::vector<std::atomic<std::int64_t>> memo;
  /// Shared TT (null = private memo) and the tree's content fingerprint
  /// for its keys.
  TranspositionTable* tt;
  std::uint64_t fp = 0;
  /// Free leaves on a shared table: no leaf hook, no leaf cost. Leaves and
  /// leaf-frontier nodes then cost less to recompute than to probe, so
  /// they bypass the table and the batch kernel reduces the frontiers.
  bool free_leaves;

  static constexpr std::int64_t kHasBit = std::int64_t{1} << 40;

  AbShared(const Tree& tree, const SearchRequest& request, Executor& executor)
      : CascadeControl(tree, request, executor),
        memo(request.tt == nullptr ? tree.size() : 0), tt(request.tt),
        free_leaves(request.tt != nullptr && request.leaf_hook == nullptr &&
                    request.leaf_cost_ns == 0) {
    if (tt != nullptr) fp = tree.fingerprint();
  }

  bool memo_lookup(NodeId v, Value& out) const {
    if (tt != nullptr) return tt->probe(TranspositionTable::node_key(fp, v), out);
    const std::int64_t e = memo[v].load(std::memory_order_acquire);
    if (!(e & kHasBit)) return false;
    out = static_cast<Value>(static_cast<std::uint32_t>(e & 0xFFFFFFFFll));
    return true;
  }

  void memo_store(NodeId v, Value val) {
    if (tt != nullptr) {
      tt->store(TranspositionTable::node_key(fp, v), val, t.subtree_leaves(v));
      return;
    }
    memo[v].store(kHasBit | static_cast<std::uint32_t>(val),
                  std::memory_order_release);
  }

  /// Evaluate a leaf through the memo. Returns false on stop; `out`
  /// carries the value on success. With the private memo the CAS dedups
  /// the count (distinct leaves); with a shared TT, replacement may evict
  /// the record, so every paid evaluation counts — multiplicity, the real
  /// cost.
  bool eval_leaf(NodeId leaf, Value& out) {
    if (memo_lookup(leaf, out)) return true;
    if (!pay_leaf(leaf)) return false;
    const Value v = t.leaf_value(leaf);
    if (tt != nullptr) {
      tt->store(TranspositionTable::node_key(fp, leaf), v, 1);
      leaf_evals.add();
    } else {
      std::int64_t expected = 0;
      if (memo[leaf].compare_exchange_strong(
              expected, kHasBit | static_cast<std::uint32_t>(v),
              std::memory_order_release, std::memory_order_acquire)) {
        leaf_evals.add();
      }
    }
    out = v;
    return true;
  }

  /// Anytime recovery: the memo holds only exact subtree values, so
  /// interval propagation over it gives a sound root bound; if the interval
  /// collapses, the stopped search still reports the exact value.
  SearchResult finish(Value value, Clock::time_point start) const {
    return CascadeControl::finish(value, start, [this] {
      return anytime_minimax_tree_bounds(
          t, [this](NodeId n, Value& v) { return memo_lookup(n, v); });
    });
  }
};

/// Adapts the shared memo/TT, cost model and cancellation to the flat
/// alpha-beta kernel's context interface (solve/flat_kernels.hpp).
struct AbCtx {
  AbShared& sh;
  const std::atomic<bool>& cancel;
  bool probe(NodeId v, Value& out) const { return sh.memo_lookup(v, out); }
  void store(NodeId v, Value val) const { sh.memo_store(v, val); }
  bool leaf(NodeId v, Value& out) const { return sh.eval_leaf(v, out); }
  bool stop() const {
    return cancel.load(std::memory_order_relaxed) || sh.stopped();
  }
};

/// The batch kernel's context for free-leaf requests (AbShared::
/// free_leaves): internal nodes above the leaf frontier go through the
/// shared table, leaves are read straight from the tree, and the leaves
/// scanned are counted here and added to leaf_evals once per kernel call.
/// eval_leaf is never called, so stop() polls the request's cancel flag
/// and deadline itself.
struct FreeLeafAbCtx {
  AbShared& sh;
  const std::atomic<bool>& cancel;
  std::uint64_t leaves = 0;
  bool probe(NodeId v, Value& out) const { return sh.memo_lookup(v, out); }
  void store(NodeId v, Value val) const { sh.memo_store(v, val); }
  bool leaf(NodeId v, Value& out) {
    ++leaves;
    out = sh.t.leaf_value(v);
    return true;
  }
  void batch_leaves(std::uint32_t k) { leaves += k; }
  bool stop() const {
    return cancel.load(std::memory_order_relaxed) || sh.poll_stop();
  }
};

/// Sequential fail-soft alpha-beta with a dynamic bound published by the
/// spawning spine (re-read at every node entry), cancellation, and exact
/// memoisation: the flat iterative kernel plugged into the shared state.
/// `exact` is set iff the returned value is the true minimax value of the
/// subtree (no cutoff occurred at or below v).
Value seq_ab(AbShared& sh, NodeId v, Value alpha, Value beta,
             const std::atomic<Value>* dyn, bool dyn_is_alpha,
             const std::atomic<bool>& cancel, bool& exact) {
  if (sh.free_leaves) {
    FreeLeafAbCtx ctx{sh, cancel};
    const Value r = flat_ab_core<true>(sh.t, v, alpha, beta, dyn,
                                       dyn_is_alpha, ctx, exact);
    if (ctx.leaves != 0) sh.leaf_evals.add(0, ctx.leaves);
    return r;
  }
  AbCtx ctx{sh, cancel};
  return flat_ab_core(sh.t, v, alpha, beta, dyn, dyn_is_alpha, ctx, exact);
}

/// A scout's latch plus its fail-soft result, written before the latch's
/// finish() publishes it.
struct AbScout : ScoutLatch {
  Value result = 0;
  bool valid = false;  // worker produced a usable fail-soft result
  bool exact = false;  // ... and it is the exact subtree value
};

/// Spine search: full live window, one scout per level on the next
/// sibling, with promotion (P-SOLVE case two) when the scout is still
/// running once the spine catches up.
Value pab(AbShared& sh, NodeId v, Value alpha, Value beta, bool& exact) {
  exact = false;
  // Adaptive granularity: a subtree too small to repay a scheduler round
  // trip runs inline through the flat iterative kernel, which probes v
  // itself (this also covers leaves under any cutoff > 1). With free
  // leaves, a leaf or leaf-frontier node always goes to the batch kernel,
  // which neither probes nor stores it.
  if (sh.t.subtree_leaves(v) < sh.min_spawn ||
      (sh.free_leaves && (sh.t.is_leaf(v) || sh.t.is_leaf_frontier(v))))
    return seq_ab(sh, v, alpha, beta, nullptr, true, sh.never, exact);
  if (sh.t.is_leaf(v)) {  // eval_leaf probes the memo itself
    Value out = 0;
    if (!sh.eval_leaf(v, out)) return 0;
    exact = true;
    return out;
  }
  {
    Value cached;
    if (sh.memo_lookup(v, cached)) {
      exact = true;
      return cached;
    }
  }
  const bool maxing = node_kind(sh.t, v) == NodeKind::Max;
  const auto children = sh.t.children(v);
  Value best = maxing ? kMinusInf : kPlusInf;
  bool all_exact = true;
  std::atomic<Value> dyn{maxing ? alpha : beta};

  auto merge = [&](Value r, bool r_exact) {
    all_exact = all_exact && r_exact;
    if (maxing) {
      best = std::max(best, r);
      alpha = std::max(alpha, best);
      dyn.store(alpha, std::memory_order_relaxed);
    } else {
      best = std::min(best, r);
      beta = std::min(beta, best);
      dyn.store(beta, std::memory_order_relaxed);
    }
  };

  auto launch_scout = [&](NodeId sc, Value a0, Value b0) {
    auto scout = std::make_shared<AbScout>();
    std::atomic<Value>* dynp = &dyn;
    const bool dia = maxing;
    submit_scout(sh, scout, [&sh, sc, a0, b0, dynp, dia](AbScout& s) {
      bool ex = false;
      const Value r = seq_ab(sh, sc, a0, b0, dynp, dia, s.cancel, ex);
      if (!s.cancel.load(std::memory_order_relaxed)) {
        s.result = r;
        s.valid = true;
        s.exact = ex;
      }
    });
    return scout;
  };

  const unsigned width = std::max(sh.req.width, 1u);
  std::size_t i = 0;
  while (i < children.size()) {
    // No scouts of this level are outstanding here, so stopping is safe;
    // `exact` stays false, so no ancestor memoises a truncated value.
    if (sh.stopped()) return best;
    // Scouts on the next `width` siblings; the spine joins them in order.
    // Grain gating: scouts[0] must be children[i+1] (the promotion target),
    // so when that sibling is below the cutoff no scouts launch this round
    // and the spine folds it in sequentially; further-right below-cutoff
    // siblings are merely skipped (extra scouts only warm the memo).
    std::vector<std::shared_ptr<AbScout>> scouts;
    if (i + 1 < children.size() &&
        sh.t.subtree_leaves(children[i + 1]) >= sh.min_spawn) {
      for (std::size_t j = i + 1; j < children.size() && scouts.size() < width;
           ++j) {
        if (j > i + 1 && sh.t.subtree_leaves(children[j]) < sh.min_spawn)
          continue;
        scouts.push_back(launch_scout(children[j], alpha, beta));
      }
    }
    const bool have_scout = !scouts.empty();
    const std::shared_ptr<AbScout> scout = have_scout ? scouts[0] : nullptr;
    auto cancel_extra_scouts = [&](std::size_t from) {
      for (std::size_t j = from; j < scouts.size(); ++j) scouts[j]->abort();
    };

    bool spine_exact = false;
    const Value x = pab(sh, children[i], alpha, beta, spine_exact);
    merge(x, spine_exact);
    if (alpha >= beta) {
      cancel_extra_scouts(0);
      return best;  // fail-soft cutoff
    }

    if (have_scout) {
      // Promotion: if the scout already finished, merge its result; else
      // abort it and re-search the sibling in parallel mode. The memo lets
      // the re-search reuse every subtree the scout completed exactly.
      // With promotion off (the ablation) the spine join-waits for the
      // sequential scout instead.
      const bool finished = (scout->done() && scout->valid) ||
                            (sh.req.promotion ? scout->abort() : scout->join());
      if (finished && scout->valid) {
        merge(scout->result, scout->exact);
      } else {
        bool sib_exact = false;
        const Value r = pab(sh, children[i + 1], alpha, beta, sib_exact);
        merge(r, sib_exact);
      }
      cancel_extra_scouts(1);
      if (alpha >= beta) return best;
      i += 2;
      continue;
    }
    ++i;
  }
  if (sh.stopped()) return best;
  if (all_exact) {
    exact = true;
    sh.memo_store(v, best);
  }
  return best;
}

}  // namespace

SearchResult mt_parallel_ab(const Tree& t, const SearchRequest& req,
                            Executor& exec) {
  AbShared sh(t, req, exec);
  const auto start = CascadeControl::Clock::now();
  bool exact = false;
  const Value v = pab(sh, t.root(), kMinusInf, kPlusInf, exact);
  return sh.finish(v, start);
}

SearchResult mt_sequential_ab(const Tree& t, const SearchRequest& req) {
  InlineExecutor inline_exec;
  AbShared sh(t, req, inline_exec);
  const auto start = CascadeControl::Clock::now();
  bool exact = false;
  const Value v = seq_ab(sh, t.root(), kMinusInf, kPlusInf, nullptr, true,
                         sh.never, exact);
  return sh.finish(v, start);
}

}  // namespace gtpar
