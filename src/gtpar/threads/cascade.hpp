// gtpar/threads/cascade.hpp
//
// The per-search control block of the real-thread cascades. Karp & Zhang
// describe P-SOLVE on NOR trees (Section 2) and parallel alpha-beta
// (Section 4) as one cascade: a spine, one scout per level, and promotion
// into the scout's finished work. Everything around the search itself is
// the same for both families, so it lives here once:
//
//  - the per-leaf prologue: the stop poll, the leaf hook with its retry
//    budget and fault/retry counters, and the simulated leaf cost;
//  - the deadline, the latched stop and poll_stop;
//  - the sharded paid-leaf counter, the grain cutoff and the spine's
//    never-set cancel flag;
//  - the scout claim/finish/join latch and the task wrapper that keeps a
//    throwing evaluator from leaving it open;
//  - the common part of the result: wall time, counters, and exact or
//    anytime.
//
// mt_solve.cpp and mt_ab.cpp derive their shared state from
// CascadeControl and add only what differs: the memo (or table) and the
// family's anytime recovery. Everything here is inline and non-virtual:
// the per-leaf prologue runs on the hot path of every costed or hooked
// search, and poll_stop on the free-leaf batch path.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/granularity.hpp"
#include "gtpar/engine/sharded_counter.hpp"

namespace gtpar {

struct CascadeControl {
  using Clock = std::chrono::steady_clock;

  const Tree& t;
  const SearchRequest& req;
  Executor& exec;
  /// req.limits, held by value: poll_stop runs per node on mt_ab's
  /// free-leaf batch path.
  const SearchLimits limits;
  /// Paid leaf evaluations. Every worker of the search counts its leaves,
  /// so the count is sharded per thread (sharded_counter.hpp) and summed
  /// once the search has finished.
  ShardedCounters<1> leaf_evals;
  /// Leaf-hook retries performed / faults observed.
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> faults{0};
  /// Latched stop: set once cancellation, the deadline, or a permanent
  /// leaf fault is observed.
  std::atomic<bool> stop{false};
  Clock::time_point deadline{};
  /// Grain cutoff: subtrees with fewer leaves run inline through the flat
  /// kernels and are never scouted.
  std::uint32_t min_spawn;
  /// The spine's never-set cancel flag (inline flat runs are uncancellable
  /// below scout granularity; the latched stop still applies).
  std::atomic<bool> never{false};

  CascadeControl(const Tree& tree, const SearchRequest& request,
                 Executor& executor)
      : t(tree), req(request), exec(executor), limits(request.limits),
        min_spawn(min_spawn_leaves(default_grain_policy(), request.grain,
                                   request.leaf_cost_ns)) {
    if (limits.budget_ns != 0)
      deadline = Clock::now() + std::chrono::nanoseconds(limits.budget_ns);
  }

  bool stopped() const { return stop.load(std::memory_order_relaxed); }
  void latch_stop() { stop.store(true, std::memory_order_relaxed); }

  /// Re-read the external limits; latch and report a stop. Called at leaf
  /// granularity — the clock read is noise next to the leaf cost.
  bool poll_stop() {
    if (stopped()) return true;
    if ((limits.cancel && limits.cancel->load(std::memory_order_relaxed)) ||
        (limits.budget_ns != 0 && Clock::now() >= deadline)) {
      latch_stop();
      return true;
    }
    return false;
  }

  /// Everything a per-leaf evaluation does before the leaf's value is read:
  /// poll the limits, run the leaf hook under the retry budget, and pay the
  /// simulated cost. False means the search must stop. A hook that throws
  /// past its budget (or whose exception retry_on rejects) latches a stop
  /// like a cancellation, and finish() degrades the result to an anytime
  /// bound instead of unwinding through the cascade.
  bool pay_leaf(NodeId leaf) {
    if (poll_stop()) return false;
    if (req.leaf_hook != nullptr && !run_leaf_hook(leaf)) return false;
    pay_leaf_cost(req.leaf_cost_ns, req.cost_model);
    return true;
  }

  /// Wall time, counters, and exact-or-anytime: a search that stopped
  /// takes its value and completeness from `recover()`, the family's
  /// anytime walk over its memo.
  template <class Recover>
  SearchResult finish(Value value, Clock::time_point start,
                      Recover&& recover) const {
    const auto end = Clock::now();
    SearchResult r;
    r.value = value;
    r.work = leaf_evals.sum();
    r.retries = retries.load();
    r.faults = faults.load();
    r.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    if (stopped()) {
      const AnytimeOutcome out = recover();
      r.value = out.value;
      r.completeness = out.completeness;
      r.complete = out.completeness == Completeness::kExact;
    }
    return r;
  }

 private:
  bool run_leaf_hook(NodeId leaf) {
    const RetryPolicy& retry = req.retry;
    const unsigned attempts = std::max(retry.max_attempts, 1u);
    for (unsigned attempt = 0;; ++attempt) {
      try {
        req.leaf_hook->on_leaf(leaf, attempt);
        return true;
      } catch (const std::exception& e) {
        faults.fetch_add(1, std::memory_order_relaxed);
        if (attempt + 1 < attempts && (!retry.retry_on || retry.retry_on(e))) {
          retries.fetch_add(1, std::memory_order_relaxed);
          retry_backoff(retry, attempt);
          continue;
        }
      } catch (...) {
        faults.fetch_add(1, std::memory_order_relaxed);
      }
      latch_stop();
      return false;
    }
  }

  static void pay_leaf_cost(std::uint64_t ns, LeafCostModel model) {
    if (ns == 0) return;
    if (model == LeafCostModel::kSleep) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
      return;
    }
    const auto end = Clock::now() + std::chrono::nanoseconds(ns);
    while (Clock::now() < end) {
    }
  }
};

/// A scout's abort flag and claim/finish/join latch. The claim lets a
/// joining spine steal a scout that is still sitting in a queue: a
/// cancelled scout that never started must not make the spine wait for a
/// busy worker to pick it up just to discard it.
struct ScoutLatch {
  std::atomic<bool> cancel{false};
  enum : int { kQueued = 0, kRunning = 1, kDone = 2 };
  std::atomic<int> state{kQueued};

  /// Worker side: true if this call won the right to run the body.
  bool claim() {
    int expected = kQueued;
    return state.compare_exchange_strong(expected, kRunning,
                                         std::memory_order_acq_rel);
  }
  void finish() { state.store(kDone, std::memory_order_release); }
  bool done() const { return state.load(std::memory_order_acquire) == kDone; }

  /// Spine side: join, stealing the task if it has not started. Returns
  /// false if the body never ran.
  bool join() {
    int expected = kQueued;
    if (state.compare_exchange_strong(expected, kDone,
                                      std::memory_order_acq_rel))
      return false;
    while (!done()) std::this_thread::yield();
    return true;
  }
  /// Pre-empt the scout, then join it.
  bool abort() {
    cancel.store(true, std::memory_order_relaxed);
    return join();
  }
};

/// Submit `body(*scout)` to the search's executor behind the scout's
/// latch. A throwing evaluator must not leave the latch open — the spine's
/// join() would spin forever and the pool worker would die — so a throw
/// latches a stop and the result degrades to an anytime bound.
template <class Scout, class Body>
void submit_scout(CascadeControl& c, std::shared_ptr<Scout> scout, Body body) {
  c.exec.submit([&c, scout = std::move(scout), body] {
    if (!scout->claim()) return;  // stolen by the joining spine
    try {
      body(*scout);
    } catch (...) {
      c.latch_stop();
    }
    scout->finish();
  });
}

}  // namespace gtpar
