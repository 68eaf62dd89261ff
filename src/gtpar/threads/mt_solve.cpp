#include "gtpar/threads/mt_solve.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "gtpar/engine/granularity.hpp"
#include "gtpar/engine/sharded_counter.hpp"
#include "gtpar/solve/flat_kernels.hpp"

namespace gtpar {
namespace {

/// Pay the simulated unit leaf cost under the configured model.
void pay_leaf_cost(std::uint64_t ns, LeafCostModel model) {
  if (ns == 0) return;
  if (model == LeafCostModel::kSleep) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  const auto end = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// lookup()'s answer for a node whose value is not yet known.
constexpr std::int8_t kUnknown = -1;

/// Shared solver state. Node values determined by any thread are memoised
/// in `val` (release/acquire), so aborted scouts leave their completed
/// progress behind for the promoting spine.
struct Shared {
  const Tree& t;
  const MtSolveOptions& opt;
  Executor& exec;
  SearchLimits limits;
  /// Node value + 1, so 0 means unknown: the vector's value-initialisation
  /// (std::atomic's default constructor zero-fills since C++20) is the
  /// only pass over the memo before the search starts.
  std::vector<std::atomic<std::int8_t>> val;
  /// Paid leaf evaluations. Every worker of the search counts one per
  /// leaf, so the count is sharded per thread (sharded_counter.hpp) and
  /// summed once the search has finished.
  ShardedCounters<1> leaf_evals;
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> faults{0};
  /// Latched stop: set once cancellation, the deadline, or a permanent
  /// leaf fault is observed.
  std::atomic<bool> stop{false};
  std::chrono::steady_clock::time_point deadline{};
  /// Grain cutoff: subtrees with fewer leaves run inline (never scouted).
  std::uint32_t min_spawn;
  /// The spine's never-set cancel flag (inline flat runs are uncancellable
  /// below scout granularity; the latched stop still applies).
  std::atomic<bool> never{false};

  Shared(const Tree& tree, const MtSolveOptions& options, Executor& executor,
         const SearchLimits& lim)
      : t(tree), opt(options), exec(executor), limits(lim), val(tree.size()),
        min_spawn(min_spawn_leaves(default_grain_policy(), options.grain_ns,
                                   options.leaf_cost_ns)) {
    if (limits.budget_ns != 0)
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(limits.budget_ns);
  }

  bool stopped() const { return stop.load(std::memory_order_relaxed); }

  /// Re-read the external limits; latch and report a stop. Called at leaf
  /// granularity — the clock read is noise next to the leaf cost.
  bool poll_stop() {
    if (stopped()) return true;
    if ((limits.cancel && limits.cancel->load(std::memory_order_relaxed)) ||
        (limits.budget_ns != 0 && std::chrono::steady_clock::now() >= deadline)) {
      stop.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Run the evaluator hook with the retry budget. Returns false once the
  /// budget is exhausted (or retry_on rejects the exception): the fault
  /// latches a stop like a cancellation, and finish() extracts an anytime
  /// bound from the memo instead of unwinding through the cascade.
  bool run_leaf_hook(NodeId leaf) {
    const unsigned attempts = std::max(opt.retry.max_attempts, 1u);
    for (unsigned attempt = 0;; ++attempt) {
      try {
        opt.leaf_hook->on_leaf(leaf, attempt);
        return true;
      } catch (const std::exception& e) {
        faults.fetch_add(1, std::memory_order_relaxed);
        if (attempt + 1 < attempts &&
            (!opt.retry.retry_on || opt.retry.retry_on(e))) {
          retries.fetch_add(1, std::memory_order_relaxed);
          retry_backoff(opt.retry, attempt);
          continue;
        }
      } catch (...) {
        faults.fetch_add(1, std::memory_order_relaxed);
      }
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
  }

  /// Evaluate a leaf (cache-aware; the spin models the evaluation cost).
  /// Returns false on stop (cancellation/deadline/permanent fault); `out`
  /// carries the leaf value on success.
  bool eval_leaf(NodeId leaf, bool& out) {
    const std::int8_t cached = lookup(leaf);
    if (cached != kUnknown) {
      out = cached != 0;
      return true;
    }
    if (poll_stop()) return false;
    if (opt.leaf_hook != nullptr && !run_leaf_hook(leaf)) return false;
    pay_leaf_cost(opt.leaf_cost_ns, opt.cost_model);
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

/// A scout running on the scheduler: sequential SOLVE of one sibling
/// subtree with its own abort flag and a claim/completion latch. The claim
/// lets a joining spine "steal" a scout that is still sitting in a queue:
/// a cancelled scout that never started must not make the spine wait for a
/// busy worker to pick it up just to discard it.
struct Scout {
  std::atomic<bool> cancel{false};
  enum : int { kQueued = 0, kRunning = 1, kDone = 2 };
  std::atomic<int> state{kQueued};

  /// Worker side: returns true if this call won the right to run the body.
  bool claim() {
    int expected = kQueued;
    return state.compare_exchange_strong(expected, kRunning,
                                         std::memory_order_acq_rel);
  }

  void finish() { state.store(kDone, std::memory_order_release); }

  /// Spine side: abort-join. Steals the task if it has not started.
  void wait() {
    int expected = kQueued;
    if (state.compare_exchange_strong(expected, kDone, std::memory_order_acq_rel))
      return;  // never started; nothing to wait for
    while (state.load(std::memory_order_acquire) != kDone)
      std::this_thread::yield();
  }
};

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
    std::vector<std::shared_ptr<Scout>> scouts;
    for (std::size_t i = spine_idx + 1;
         i < children.size() && scouts.size() < sh.opt.width; ++i) {
      const NodeId scout_child = children[i];
      if (sh.lookup(scout_child) != kUnknown) continue;
      // Below-grain siblings are not worth a task: the spine will fold
      // them into its own flat run when it reaches them.
      if (sh.t.subtree_leaves(scout_child) < sh.min_spawn) continue;
      auto scout = std::make_shared<Scout>();
      sh.exec.submit([&sh, scout, scout_child] {
        if (!scout->claim()) return;  // stolen by the joining spine
        try {
          sh.ssolve(scout_child, scout->cancel);
        } catch (...) {
          // A throwing evaluator must not leave the latch open: the spine's
          // wait() would spin forever and the pool worker would die. Latch
          // a stop; finish() degrades the result to an anytime bound.
          sh.stop.store(true, std::memory_order_relaxed);
        }
        scout->finish();
      });
      scouts.push_back(std::move(scout));
    }

    const bool l = psolve(sh, spine_child);

    for (const auto& scout : scouts) {
      // Abort the scouts (pre-emption); their memoised progress persists,
      // so the next loop iteration promotes into their subtrees without
      // redoing completed work — P-SOLVE's case two.
      scout->cancel.store(true, std::memory_order_relaxed);
      scout->wait();
    }
    if (l) {
      sh.store(v, false);
      return false;
    }
    // l == 0: loop; the next unknown child (often the scouted one) becomes
    // the new spine child.
  }
}

MtSolveResult finish(Shared& sh, bool value,
                     std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  MtSolveResult r;
  r.value = value;
  r.leaf_evaluations = sh.leaf_evals.sum();
  r.retries = sh.retries.load();
  r.faults = sh.faults.load();
  r.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  if (!sh.stopped()) {
    r.complete = true;
    r.completeness = Completeness::kExact;
    return r;
  }
  // Anytime recovery: the memo holds only completed subtree values, so a
  // three-valued walk over it is sound. If the evaluated prefix already
  // determines the root (common when a stop lands during the last
  // subtree), the stopped search still reports the exact value.
  const AnytimeOutcome out = anytime_nor_tree_bounds(
      sh.t, [&sh](NodeId v) { return static_cast<int>(sh.lookup(v)); });
  r.value = out.value != 0;
  r.completeness = out.completeness;
  r.complete = out.completeness == Completeness::kExact;
  return r;
}

}  // namespace

MtSolveResult mt_parallel_solve(const Tree& t, const MtSolveOptions& opt,
                                Executor& exec, const SearchLimits& limits) {
  Shared sh(t, opt, exec, limits);
  const auto start = std::chrono::steady_clock::now();
  const bool value = psolve(sh, t.root());
  return finish(sh, value, start);
}

MtSolveResult mt_sequential_solve(const Tree& t, const MtSolveOptions& opt,
                                  const SearchLimits& limits) {
  // The sequential baseline spawns no scouts, so any executor satisfies
  // it; an inline one keeps the run strictly single-threaded.
  InlineExecutor inline_exec;
  Shared sh(t, opt, inline_exec, limits);
  std::atomic<bool> never{false};
  const auto start = std::chrono::steady_clock::now();
  const bool value = sh.ssolve(t.root(), never);
  return finish(sh, value, start);
}

}  // namespace gtpar
