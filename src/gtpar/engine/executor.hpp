// gtpar/engine/executor.hpp
//
// Execution-context primitives shared by the real-thread search cores
// (reached through search(req, exec), engine/api.hpp) and the batched
// evaluation engine (engine/engine.hpp):
//
//  - Executor: the minimal scheduler interface a driver needs to spawn
//    scout tasks. The work-stealing pool (engine/work_stealing.hpp)
//    implements it, so many searches can share one scheduler (the
//    engine's cross-request load balancing). InlineExecutor runs every
//    task on the submitting thread, for drivers that must not spawn.
//
//  - SearchLimits: cooperative cancellation and wall-clock budget
//    (SearchRequest::limits). Every real-thread core polls these on its
//    hot path (threads/cascade.hpp); lock-step simulators are atomic
//    single calls and ignore them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace gtpar {

/// Minimal task-scheduler interface: fire-and-forget task submission.
/// Completion is signalled through state captured by the task (the search
/// drivers use per-scout claim/completion latches), so implementations
/// stay free of task-handle bookkeeping on the hot path.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Enqueue a task. Must not block indefinitely; bounded implementations
  /// run the task on the calling thread when full (caller-runs policy).
  virtual void submit(std::function<void()> task) = 0;

  /// Number of worker threads executing submitted tasks.
  virtual unsigned workers() const noexcept = 0;
};

/// Runs each task on the submitting thread before submit() returns: the
/// executor for sequential baselines and for searches too small to be
/// worth a scheduler.
class InlineExecutor final : public Executor {
 public:
  void submit(std::function<void()> task) override { task(); }
  unsigned workers() const noexcept override { return 0; }
};

/// Cooperative limits on one search request.
struct SearchLimits {
  /// Wall-clock budget in nanoseconds from the start of the search;
  /// 0 = unlimited. A search that exhausts its budget stops early and
  /// reports an incomplete result.
  std::uint64_t budget_ns = 0;
  /// Optional external cancellation flag (e.g. an engine job handle).
  /// The search stops early once it reads true.
  const std::atomic<bool>* cancel = nullptr;

  bool unlimited() const noexcept { return budget_ns == 0 && cancel == nullptr; }
};

}  // namespace gtpar
