// gtpar/engine/work_stealing.hpp
//
// The work-stealing scheduler: the one Executor that runs scout tasks,
// whether owned by the batched evaluation engine, by gtpar::search, or by
// a caller that runs the Mt cascades directly.
//
// Design (after Chase & Lev, "Dynamic Circular Work-Stealing Deque", and
// the structured-parallelism MCTS/PNS literature):
//
//  - One bounded lock-free deque per worker. The owning worker pushes and
//    pops at the bottom (LIFO: the scout it just spawned is the hottest
//    work), thieves CAS the top (FIFO: the oldest task — in a cascade the
//    highest, largest subtree — is stolen first, which is the
//    breadth-first dispatch that makes the cascade parallel).
//  - Tasks submitted from non-worker threads (engine requests, cascade
//    spines running on a caller's thread) enter a shared injection queue
//    that workers drain when their deque and all steal attempts come up
//    empty. This doubles as the engine's request queue.
//  - Bounded everywhere, caller-runs on overflow: a full deque or a full
//    injection queue never blocks and never grows without bound — the
//    submitting thread executes the task inline instead, which for scout
//    tasks degenerates gracefully to the sequential search.
//  - Workers park on a condition variable only when a full sweep (local
//    pop, steals from every sibling, injection queue) finds nothing.
//    Wake-ups are throttled through a single pending-wake flag so that a
//    burst of submissions costs one futex wake, not one per task; a short
//    timed wait backstops the throttle so no task can languish.
//
// All cross-thread state is std::atomic (no standalone fences), so the
// scheduler is data-race-free by construction and TSan-clean.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtpar/engine/executor.hpp"

namespace gtpar {

/// Scheduler counters (monotonic; read with stats()).
struct WorkStealingStats {
  std::uint64_t executed = 0;     ///< tasks run by workers
  std::uint64_t steals = 0;       ///< tasks obtained from another worker's deque
  std::uint64_t inline_runs = 0;  ///< caller-runs executions (overflow policy)
  std::uint64_t injected = 0;     ///< tasks that went through the injection queue
  std::uint64_t parks = 0;        ///< times a worker went to sleep
  /// Parks whose timed wait expired without a wake and whose next sweep
  /// then found a task: work that only the backstop timer picked up, so a
  /// wake the throttled chain missed. Never exceeds `parks`.
  std::uint64_t backstop_rescues = 0;
  /// Tasks that exited by exception. The pool swallows the exception and
  /// keeps the worker alive (tasks report failures through captured state,
  /// as the Mt cascades' scout wrappers do); a non-zero count means some
  /// task lacked its own catch.
  std::uint64_t task_exceptions = 0;
};

/// Fixed-size work-stealing pool implementing Executor.
class WorkStealingPool final : public Executor {
 public:
  struct Options {
    unsigned threads = 4;
    /// Per-worker deque capacity (rounded up to a power of two).
    std::uint32_t deque_capacity = 1024;
    /// Injection-queue bound; 0 = unbounded. When full, submit() runs the
    /// task on the calling thread (caller-runs).
    std::size_t injection_bound = 0;
    /// Pin worker i to online CPU (i mod N) with sched_setaffinity. Off by
    /// default: pinning helps steady-state NUMA locality and tail latency
    /// on dedicated machines but hurts on shared/oversubscribed ones.
    /// No-op on non-Linux platforms.
    bool pin_workers = false;
  };

  explicit WorkStealingPool(Options opt);
  explicit WorkStealingPool(unsigned threads) : WorkStealingPool(Options{threads}) {}

  /// Drains outstanding tasks, then joins the workers. Callers must not
  /// submit concurrently with destruction.
  ~WorkStealingPool() override;

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueue a task. From a worker thread of this pool: lock-free push to
  /// the worker's own deque (caller-runs when full). From any other
  /// thread: push to the injection queue (caller-runs when over bound).
  void submit(std::function<void()> task) override;

  // Reads workers_ (fully built before any thread is spawned), not
  // threads_: workers already running call this while the constructor is
  // still appending to threads_.
  unsigned workers() const noexcept override {
    return static_cast<unsigned>(workers_.size());
  }

  WorkStealingStats stats() const;

 private:
  using Task = std::function<void()>;

  /// Bounded Chase–Lev deque of Task*. Owner pushes/pops bottom; thieves
  /// CAS top. Slots are atomic so a thief's speculative read of a slot
  /// being recycled is well-defined (the failed CAS discards it).
  ///
  /// First-touch placement: the constructor only *allocates* the slot
  /// array; the elements are constructed by first_touch() on the owning
  /// worker thread, so under the kernel's first-touch NUMA policy the
  /// pages land on that worker's node. Deferring is safe because no
  /// thread reads a slot before the owner's first push publishes bottom
  /// (seq_cst), which happens-after first_touch on the owner thread.
  struct Deque {
    explicit Deque(std::uint32_t capacity);
    ~Deque();
    Deque(const Deque&) = delete;
    Deque& operator=(const Deque&) = delete;
    void first_touch() noexcept;  ///< owner thread, before any push
    bool push(Task* t) noexcept;  ///< owner; false when full
    Task* pop() noexcept;         ///< owner; LIFO
    Task* steal() noexcept;       ///< any thread; FIFO; nullptr if empty/lost race

    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};
    std::atomic<Task*>* slots = nullptr;  ///< elements live after first_touch()
    std::int64_t mask = 0;
    std::size_t capacity = 0;
  };

  struct Worker {
    explicit Worker(std::uint32_t capacity) : deque(capacity) {}
    Deque deque;
    std::uint64_t rng = 0;  ///< victim-selection state (worker-private)
  };

  void worker_loop(unsigned index);
  Task* next_task(unsigned self);  ///< one sweep: local, steals, injection
  Task* pop_injected();
  void maybe_wake();
  /// Run the task inside a catch-all (see WorkStealingStats::
  /// task_exceptions): a throwing task must never kill a worker thread or
  /// propagate into a caller-runs submit().
  void run_and_delete(Task* t) noexcept;

  Options opt_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mu_;
  std::deque<Task*> inject_;
  std::atomic<std::size_t> inject_size_{0};

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> backstop_rescues_{0};
  std::atomic<std::uint64_t> task_exceptions_{0};
};

}  // namespace gtpar
