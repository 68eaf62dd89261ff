#include "gtpar/engine/work_stealing.hpp"

#include <algorithm>
#include <chrono>
#include <new>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "gtpar/common.hpp"

namespace gtpar {
namespace {

/// Per-thread identity: which pool (if any) owns the current thread, and
/// the worker index inside it. Lets submit() take the lock-free local-push
/// fast path for tasks spawned from within a worker.
struct WorkerTls {
  const void* pool = nullptr;
  unsigned index = 0;
};
thread_local WorkerTls g_worker_tls;

std::uint32_t round_up_pow2(std::uint32_t x) {
  std::uint32_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bounded Chase–Lev deque.
//
// Memory-ordering scheme: top/bottom use seq_cst throughout. This is
// slightly stronger than the minimal fenced version of Lê et al., but it
// keeps the proof simple, avoids standalone fences (which ThreadSanitizer
// does not model), and the cost on the owner's fast path is one
// store-load barrier per push/pop — noise next to a leaf evaluation.
// ---------------------------------------------------------------------------

WorkStealingPool::Deque::Deque(std::uint32_t cap) {
  capacity = round_up_pow2(std::max<std::uint32_t>(cap, 2));
  mask = static_cast<std::int64_t>(capacity) - 1;
  // Allocate only: element construction (the first write to each page) is
  // deferred to first_touch() on the owning worker thread.
  slots = static_cast<std::atomic<Task*>*>(
      ::operator new(capacity * sizeof(std::atomic<Task*>),
                     std::align_val_t{alignof(std::atomic<Task*>)}));
}

WorkStealingPool::Deque::~Deque() {
  // std::atomic<Task*> is trivially destructible; release the raw buffer.
  ::operator delete(slots, std::align_val_t{alignof(std::atomic<Task*>)});
}

void WorkStealingPool::Deque::first_touch() noexcept {
  for (std::size_t i = 0; i < capacity; ++i)
    ::new (static_cast<void*>(slots + i)) std::atomic<Task*>(nullptr);
}

bool WorkStealingPool::Deque::push(Task* t) noexcept {
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  const std::int64_t tp = top.load(std::memory_order_seq_cst);
  if (b - tp > mask) return false;  // full
  slots[b & mask].store(t, std::memory_order_relaxed);
  bottom.store(b + 1, std::memory_order_seq_cst);  // publish
  return true;
}

WorkStealingPool::Task* WorkStealingPool::Deque::pop() noexcept {
  const std::int64_t b = bottom.load(std::memory_order_seq_cst) - 1;
  bottom.store(b, std::memory_order_seq_cst);
  std::int64_t tp = top.load(std::memory_order_seq_cst);
  if (tp > b) {  // empty; restore
    bottom.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  Task* t = slots[b & mask].load(std::memory_order_relaxed);
  if (tp == b) {
    // Last element: race the thieves for it via top.
    if (!top.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst))
      t = nullptr;  // a thief won
    bottom.store(b + 1, std::memory_order_seq_cst);
  }
  return t;
}

WorkStealingPool::Task* WorkStealingPool::Deque::steal() noexcept {
  std::int64_t tp = top.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  if (tp >= b) return nullptr;  // empty
  // Read the slot before claiming it: after a successful CAS the owner may
  // recycle the slot. If the CAS fails the value is discarded, so the
  // speculative read is harmless (and well-defined: slots are atomic).
  Task* t = slots[tp & mask].load(std::memory_order_relaxed);
  if (!top.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                   std::memory_order_seq_cst))
    return nullptr;  // lost the race; caller retries elsewhere
  return t;
}

// ---------------------------------------------------------------------------
// Pool.
// ---------------------------------------------------------------------------

WorkStealingPool::WorkStealingPool(Options opt) : opt_(opt) {
  const unsigned n = std::max(opt_.threads, 1u);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>(opt_.deque_capacity));
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
  }
  park_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::run_and_delete(Task* t) noexcept {
  try {
    (*t)();
  } catch (...) {
    // Containment: a task that throws must not take the worker thread (or
    // a caller-runs submitter) down with it. Tasks are expected to carry
    // their own error channel; count the escape so it is observable.
    task_exceptions_.fetch_add(1, std::memory_order_relaxed);
  }
  delete t;
}

void WorkStealingPool::submit(std::function<void()> task) {
  Task* t = new Task(std::move(task));
  if (g_worker_tls.pool == this) {
    // Lock-free fast path: push onto our own deque; thieves take the
    // oldest (FIFO) end while we keep LIFO locality.
    if (workers_[g_worker_tls.index]->deque.push(t)) {
      maybe_wake();
      return;
    }
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    run_and_delete(t);  // deque full: caller-runs
    return;
  }
  // External thread: injection queue (bounded, caller-runs on overflow).
  if (opt_.injection_bound != 0 &&
      inject_size_.load(std::memory_order_seq_cst) >= opt_.injection_bound) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    run_and_delete(t);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_.push_back(t);
  }
  inject_size_.fetch_add(1, std::memory_order_seq_cst);  // publish
  injected_.fetch_add(1, std::memory_order_relaxed);
  maybe_wake();
}

WorkStealingPool::Task* WorkStealingPool::pop_injected() {
  if (inject_size_.load(std::memory_order_seq_cst) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (inject_.empty()) return nullptr;
  Task* t = inject_.front();
  inject_.pop_front();
  inject_size_.fetch_sub(1, std::memory_order_seq_cst);
  return t;
}

void WorkStealingPool::maybe_wake() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  // Throttle: collapse a burst of submissions into one wake. The worker
  // that consumes the flag re-arms the chain (see worker_loop) if it
  // observes more pending work, and the timed park backstops the rest.
  if (wake_pending_.exchange(true, std::memory_order_seq_cst)) return;
  {
    std::lock_guard<std::mutex> lock(park_mu_);
  }
  park_cv_.notify_one();
}

WorkStealingPool::Task* WorkStealingPool::next_task(unsigned self) {
  if (Task* t = workers_[self]->deque.pop()) return t;
  // Steal sweep, random start so thieves spread across victims.
  const unsigned n = workers();
  std::uint64_t& rng = workers_[self]->rng;
  rng = mix64(rng + self + 1);
  const unsigned start = static_cast<unsigned>(rng % n);
  for (unsigned k = 0; k < n; ++k) {
    const unsigned v = (start + k) % n;
    if (v == self) continue;
    if (Task* t = workers_[v]->deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      // Wake-up propagation: if the victim still has work queued, another
      // sleeper can be productive too.
      if (workers_[v]->deque.top.load(std::memory_order_seq_cst) <
          workers_[v]->deque.bottom.load(std::memory_order_seq_cst))
        maybe_wake();
      return t;
    }
  }
  if (Task* t = pop_injected()) {
    if (inject_size_.load(std::memory_order_seq_cst) > 0) maybe_wake();
    return t;
  }
  return nullptr;
}

void WorkStealingPool::worker_loop(unsigned index) {
  g_worker_tls.pool = this;
  g_worker_tls.index = index;
#if defined(__linux__)
  if (opt_.pin_workers) {
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    if (online > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(index % static_cast<unsigned long>(online)),
              &set);
      // Best-effort: a restricted affinity mask (cgroups, taskset) can
      // make this fail; the worker then just runs unpinned.
      (void)sched_setaffinity(0, sizeof(set), &set);
    }
  }
#endif
  // First-touch: construct this worker's deque slots on its own (possibly
  // just-pinned) CPU so the pages are placed NUMA-local to it.
  workers_[index]->deque.first_touch();
  // Set when the last park ended by timeout rather than by a wake; the
  // sweep right after it decides whether that park was a backstop rescue.
  bool timed_out = false;
  while (true) {
    Task* const next = next_task(index);
    if (timed_out && next != nullptr)
      backstop_rescues_.fetch_add(1, std::memory_order_relaxed);
    timed_out = false;
    if (next != nullptr) {
      executed_.fetch_add(1, std::memory_order_relaxed);
      run_and_delete(next);
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst)) {
      // Drain semantics: exit only when a stopping sweep finds nothing. A
      // task that appeared between the sweeps is already claimed by this
      // one, so run it here.
      Task* t = next_task(index);
      if (t == nullptr) break;
      executed_.fetch_add(1, std::memory_order_relaxed);
      run_and_delete(t);
      continue;
    }
    // Park. Order matters for the no-lost-wakeup argument: register as a
    // sleeper first (seq_cst), THEN re-sweep. A submitter publishes its
    // task first, THEN reads sleepers_. In the seq_cst total order either
    // the submitter sees our registration (and wakes us) or our re-sweep
    // sees its task.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (Task* t = next_task(index)) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      executed_.fetch_add(1, std::memory_order_relaxed);
      run_and_delete(t);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      parks_.fetch_add(1, std::memory_order_relaxed);
      // Timed wait: liveness backstop for the wake throttle. The predicate
      // consumes the pending-wake flag.
      timed_out = !park_cv_.wait_for(
          lock, std::chrono::milliseconds(1), [this] {
            return stopping_.load(std::memory_order_seq_cst) ||
                   wake_pending_.load(std::memory_order_seq_cst);
          });
    }
    wake_pending_.store(false, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    // Loop: the next sweep (seq_cst-after clearing the flag) sees any task
    // whose submitter skipped its wake because the flag was already set.
  }
  g_worker_tls.pool = nullptr;
}

WorkStealingStats WorkStealingPool::stats() const {
  WorkStealingStats s;
  s.executed = executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  s.injected = injected_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.backstop_rescues = backstop_rescues_.load(std::memory_order_relaxed);
  s.task_exceptions = task_exceptions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gtpar
