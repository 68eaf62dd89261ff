#include "gtpar/threads/mt_solve.hpp"

#include <memory>
#include <vector>

#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/threads/cascade.hpp"

namespace gtpar {
namespace {

/// lookup()'s answer for a node whose value is not yet known.
constexpr std::int8_t kUnknown = -1;

/// Shared solver state: the cascade's control block plus the NOR memo.
/// Node values determined by any thread are memoised in `val`
/// (release/acquire), so aborted scouts leave their completed progress
/// behind for the promoting spine.
struct Shared : CascadeControl {
  /// Node value + 1, so 0 means unknown: the vector's value-initialisation
  /// (std::atomic's default constructor zero-fills since C++20) is the
  /// only pass over the memo before the search starts.
  std::vector<std::atomic<std::int8_t>> val;

  Shared(const Tree& tree, const SearchRequest& request, Executor& executor)
      : CascadeControl(tree, request, executor), val(tree.size()) {}

  /// Evaluate a leaf (cache-aware; pay_leaf models the evaluation cost).
  /// Returns false on stop (cancellation/deadline/permanent fault); `out`
  /// carries the leaf value on success.
  bool eval_leaf(NodeId leaf, bool& out) {
    const std::int8_t cached = lookup(leaf);
    if (cached != kUnknown) {
      out = cached != 0;
      return true;
    }
    if (!pay_leaf(leaf)) return false;
    const bool b = t.leaf_value(leaf) != 0;
    std::int8_t expected = 0;
    if (val[leaf].compare_exchange_strong(expected, encode(b),
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
      leaf_evals.add();
      out = b;
    } else {
      out = expected == encode(true);  // another thread beat us to it
    }
    return true;
  }

  static std::int8_t encode(bool b) { return b ? 2 : 1; }

  void store(NodeId v, bool b) {
    std::int8_t expected = 0;
    val[v].compare_exchange_strong(expected, encode(b), std::memory_order_release,
                                   std::memory_order_acquire);
  }

  /// -1 = unknown (kUnknown), 0/1 = the NOR value.
  std::int8_t lookup(NodeId v) const {
    return static_cast<std::int8_t>(val[v].load(std::memory_order_acquire) - 1);
  }

  /// Sequential left-to-right SOLVE with memoisation and cancellation:
  /// the flat iterative kernel plugged into the shared memo. Returns the
  /// subtree value; meaningless if cancelled mid-way (callers check the
  /// flag). Completed subtree values are always memoised.
  bool ssolve(NodeId v, const std::atomic<bool>& cancel);

  /// Anytime recovery: the memo holds only completed subtree values, so a
  /// three-valued walk over it is sound. If the evaluated prefix already
  /// determines the root (common when a stop lands during the last
  /// subtree), the stopped search still reports the exact value.
  SearchResult finish(bool value, Clock::time_point start) const {
    return CascadeControl::finish(value ? 1 : 0, start, [this] {
      return anytime_nor_tree_bounds(
          t, [this](NodeId v) { return static_cast<int>(lookup(v)); });
    });
  }
};

/// Adapts the Shared memo / cost model / cancellation to the flat kernel's
/// context interface (solve/flat_kernels.hpp). All calls inline; the hot
/// loop stays free of indirect calls.
struct SolveCtx {
  Shared& sh;
  const std::atomic<bool>& cancel;
  int lookup(NodeId v) const { return sh.lookup(v); }  // kUnknown == -1
  void store(NodeId v, bool b) const { sh.store(v, b); }
  bool leaf(NodeId v, bool& out) const { return sh.eval_leaf(v, out); }
  bool stop() const {
    return cancel.load(std::memory_order_relaxed) || sh.stopped();
  }
};

bool Shared::ssolve(NodeId v, const std::atomic<bool>& cancel) {
  SolveCtx ctx{*this, cancel};
  bool ok = true;
  return flat_solve_core(t, v, ctx, ok);
}

/// The spine: P-SOLVE of width 1. Runs in the calling thread; spawns one
/// scout (sequential task) on the leftmost undetermined right-sibling of
/// the child it is working on, per the cascade structure.
bool psolve(Shared& sh, NodeId v) {
  {
    const std::int8_t cached = sh.lookup(v);
    if (cached != kUnknown) return cached != 0;
  }
  // Adaptive granularity: a subtree too small to repay a scheduler round
  // trip runs inline through the flat iterative kernel — the cascade's
  // sequential floor.
  if (sh.t.subtree_leaves(v) < sh.min_spawn) return sh.ssolve(v, sh.never);
  if (sh.t.is_leaf(v)) {
    bool out = false;
    sh.eval_leaf(v, out);
    return out;
  }

  const auto children = sh.t.children(v);
  while (true) {
    // No scouts of this level are outstanding here, so stopping is safe.
    if (sh.stopped()) return false;
    // Leftmost child whose value is still unknown = the base-path child.
    NodeId spine_child = kNoNode;
    std::size_t spine_idx = 0;
    bool any_one = false;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const std::int8_t cached = sh.lookup(children[i]);
      if (cached == 1) {
        any_one = true;
        break;
      }
      if (cached == kUnknown) {
        spine_child = children[i];
        spine_idx = i;
        break;
      }
    }
    if (any_one) {
      sh.store(v, false);
      return false;
    }
    if (spine_child == kNoNode) {
      sh.store(v, true);  // all children 0
      return true;
    }

    // Scout the next `width` unknown siblings while the spine descends
    // (width 1 is the paper's cascade).
    std::vector<std::shared_ptr<ScoutLatch>> scouts;
    for (std::size_t i = spine_idx + 1;
         i < children.size() && scouts.size() < sh.req.width; ++i) {
      const NodeId scout_child = children[i];
      if (sh.lookup(scout_child) != kUnknown) continue;
      // Below-grain siblings are not worth a task: the spine will fold
      // them into its own flat run when it reaches them.
      if (sh.t.subtree_leaves(scout_child) < sh.min_spawn) continue;
      auto scout = std::make_shared<ScoutLatch>();
      submit_scout(sh, scout, [&sh, scout_child](ScoutLatch& s) {
        sh.ssolve(scout_child, s.cancel);
      });
      scouts.push_back(std::move(scout));
    }

    const bool l = psolve(sh, spine_child);

    // Abort the scouts (pre-emption); their memoised progress persists,
    // so the next loop iteration promotes into their subtrees without
    // redoing completed work — P-SOLVE's case two.
    for (const auto& scout : scouts) scout->abort();
    if (l) {
      sh.store(v, false);
      return false;
    }
    // l == 0: loop; the next unknown child (often the scouted one) becomes
    // the new spine child.
  }
}

}  // namespace

SearchResult mt_parallel_solve(const Tree& t, const SearchRequest& req,
                               Executor& exec) {
  Shared sh(t, req, exec);
  const auto start = CascadeControl::Clock::now();
  const bool value = psolve(sh, t.root());
  return sh.finish(value, start);
}

SearchResult mt_sequential_solve(const Tree& t, const SearchRequest& req) {
  // The sequential baseline spawns no scouts, so any executor satisfies
  // it; an inline one keeps the run strictly single-threaded.
  InlineExecutor inline_exec;
  Shared sh(t, req, inline_exec);
  const auto start = CascadeControl::Clock::now();
  const bool value = sh.ssolve(t.root(), sh.never);
  return sh.finish(value, start);
}

}  // namespace gtpar
