// gtpar/engine/engine.hpp
//
// The batched evaluation engine: accepts a stream of SearchRequests and
// evaluates many game trees concurrently on one shared scheduler. Each
// request runs as a task on the pool and spawns its scouts on the same
// pool, so the scouts of concurrent requests interleave freely — a worker
// that runs out of local work steals from whichever request currently has
// runnable scouts (cross-request load balancing).
//
//   Engine eng({.workers = 8});
//   SearchJob job = eng.submit(req);    // returns immediately
//   ...
//   job.cancel();                       // optional, cooperative
//   const SearchResult& r = job.wait();
//
// The scheduler is the work-stealing pool (engine/work_stealing.hpp); the
// Engine owns exactly one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/tt.hpp"
#include "gtpar/engine/work_stealing.hpp"

namespace gtpar {

class Engine;

/// Thrown from SearchJob::wait() when admission control rejected the
/// request (Options::max_in_flight reached under ShedPolicy::kRejectNew,
/// or the admission deadline expired under kBlockWithDeadline).
class EngineOverloadedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown from SearchJob::wait() when the watchdog failed a job that
/// exceeded Options::stall_timeout_ns without finishing. The job is also
/// cancelled cooperatively so its workers unwind.
class EngineStalledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What submit() does when Options::max_in_flight jobs are already in
/// flight.
enum class ShedPolicy : std::uint8_t {
  /// Fail fast: the returned job is already done and wait() throws
  /// EngineOverloadedError. Load-shedding default.
  kRejectNew,
  /// Run the search synchronously on the calling thread (backpressure by
  /// making the producer pay), still on the shared scheduler for scouts.
  kCallerRuns,
  /// Block submit() until a slot frees or Options::admission_timeout_ns
  /// expires (then reject as kRejectNew). 0 = block indefinitely.
  kBlockWithDeadline,
};

/// Handle to one submitted request. Cheap to copy (shared state); valid
/// after the Engine is destroyed (the Engine drains in-flight jobs first).
/// Per-job completion hook (see Engine::submit). Invoked exactly once per
/// submitted job, with the job's outcome: `result` is non-null on success,
/// `error` is non-null when wait() would throw (malformed request,
/// EngineOverloadedError rejection, EngineStalledError watchdog failure).
/// Exactly one of the two is non-null.
///
/// Ordering guarantees, pinned by test_engine.cpp:
///  1. exactly-once: for every job returned by submit(), the callback runs
///     exactly once, no matter how the job ends (completion, rejection,
///     watchdog failure, cancellation);
///  2. publication-first: when the callback runs, SearchJob::done() is
///     already true and SearchJob::wait() returns (or throws) immediately
///     without blocking — the callback may safely call wait();
///  3. drain-covered: for every admitted job that finishes normally, the
///     callback returns before Engine::drain() (and hence ~Engine) does,
///     so a drain-then-flush sequence observes every callback's side
///     effects. (Watchdog-failed jobs run their callback on the watchdog
///     thread concurrently with the wedged worker; drain still waits for
///     the *worker* to unwind.)
///
/// The callback runs on whichever thread decided the outcome (a pool
/// worker, the submitting thread for rejected jobs, or the watchdog). It
/// must not block for long — it runs inside the engine's completion path —
/// and must not submit to the same Engine recursively from a rejection
/// callback while holding locks the submit path needs. Exceptions thrown
/// by the callback are swallowed (the job outcome is already published).
using CompletionFn =
    std::function<void(const SearchResult* result, std::exception_ptr error)>;

class SearchJob {
 public:
  SearchJob() = default;

  /// Request cooperative cancellation. The search observes the flag at
  /// leaf granularity and returns with SearchResult::complete == false.
  /// Lock-step simulator requests run to completion regardless.
  void cancel() noexcept;

  /// True once the result is available.
  bool done() const noexcept;

  /// Block until the search finishes; returns the result. Rethrows any
  /// exception the search raised (e.g. std::invalid_argument for a
  /// malformed request).
  const SearchResult& wait();

  /// Queue latency: nanoseconds between submit() and the first instruction
  /// of the search on a worker. 0 until the job has started.
  std::uint64_t dispatch_ns() const noexcept;

  /// End-to-end latency: nanoseconds between submit() and the publication
  /// of the job's outcome (completion, rejection, or watchdog failure) —
  /// what a client waiting on this job experienced. 0 until done().
  std::uint64_t completion_ns() const noexcept;

 private:
  friend class Engine;
  struct State;
  std::shared_ptr<State> st_;
};

/// Aggregate accounting across all jobs an Engine has run.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Jobs that finished with complete == false (cancelled / out of budget).
  std::uint64_t incomplete = 0;
  std::uint64_t total_work = 0;
  std::uint64_t total_wall_ns = 0;
  std::uint64_t total_dispatch_ns = 0;
  std::uint64_t max_dispatch_ns = 0;
  /// Admissions refused (kRejectNew, or kBlockWithDeadline timeout).
  std::uint64_t rejected = 0;
  /// Submissions executed inline on the caller under kCallerRuns.
  std::uint64_t shed_caller_runs = 0;
  /// Jobs the watchdog failed for exceeding stall_timeout_ns.
  std::uint64_t watchdog_failed = 0;
  /// Leaf-evaluation retries / evaluator faults summed over finished jobs.
  std::uint64_t total_retries = 0;
  std::uint64_t total_faults = 0;
  /// Work-stealing scheduler counters.
  WorkStealingStats scheduler{};
  /// Shared transposition-table counters; all zero when Options::tt_entries
  /// is 0 (table disabled).
  TranspositionTable::Stats tt{};
};

class Engine {
 public:
  struct Options {
    unsigned workers = 4;
    /// Per-worker deque capacity; overflow caller-runs.
    std::size_t deque_capacity = 1024;
    /// Bound on the pool's injection queue, where submit() puts jobs;
    /// 0 = unbounded.
    std::size_t queue_bound = 0;
    /// Overload control: maximum jobs in flight before submit() applies
    /// `shed`; 0 = unbounded admission (no shedding).
    std::uint64_t max_in_flight = 0;
    ShedPolicy shed = ShedPolicy::kRejectNew;
    /// kBlockWithDeadline: how long submit() may wait for a slot before
    /// rejecting; 0 = wait indefinitely.
    std::uint64_t admission_timeout_ns = 0;
    /// Watchdog: fail (cancel + EngineStalledError) any job still running
    /// this long after it started on a worker; 0 = no watchdog. Guards
    /// wait() against hanging on a wedged evaluator.
    std::uint64_t stall_timeout_ns = 0;
    /// Shared transposition table size (entries, rounded up to a power of
    /// two; 16 bytes each). Every Mt alpha-beta request whose
    /// SearchRequest::tt is null is armed with this table, so concurrent
    /// and repeat searches reuse each other's exact subtree values. 0
    /// disables the table (per-search private memos, the old behaviour).
    std::size_t tt_entries = std::size_t{1} << 16;
    /// Pin scheduler workers round-robin over online CPUs
    /// (WorkStealingPool::Options::pin_workers; Linux only). Off by
    /// default — see the option's comment there.
    bool pin_workers = false;
    /// Back the shared transposition table with transparent huge pages
    /// (madvise(MADV_HUGEPAGE); Linux only, best-effort). Worth switching
    /// on when tt_entries is large enough that random probes thrash the
    /// TLB (the table is 16 bytes/entry: 1<<17 entries = 2 MiB, the first
    /// size where a huge page can back the whole table).
    bool tt_huge_pages = false;
  };

  Engine();  // all-default Options
  explicit Engine(const Options& opt);
  /// Blocks until every in-flight job has finished, then joins the pool.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue one request; returns immediately (unless admission control
  /// blocks or sheds per Options::max_in_flight/shed — a rejected job's
  /// wait() throws EngineOverloadedError). The job handle owns the
  /// cancellation flag: the engine points req.limits.cancel at it, so
  /// cancel through the handle (a caller-supplied cancel pointer is
  /// replaced — use plain search() for externally-owned flags).
  SearchJob submit(SearchRequest req);

  /// As above, with a completion callback invoked exactly once when the
  /// job's outcome is decided (see CompletionFn for the ordering
  /// guarantees). This is the push-style seam the networked service uses
  /// to stream results without parking a waiter thread per request.
  SearchJob submit(SearchRequest req, CompletionFn on_complete);

  /// Convenience: submit + wait.
  SearchResult run(const SearchRequest& req);

  /// Submit every request, then wait for all; results in request order.
  std::vector<SearchResult> run_all(const std::vector<SearchRequest>& reqs);

  /// Block until no job is in flight (the queue may refill afterwards).
  void drain();

  /// Request cooperative cancellation of every job currently in flight
  /// (admitted and not yet finished). Jobs observe the flag at leaf
  /// granularity and finish with complete == false; lock-step simulator
  /// jobs run to completion regardless. The drain hook for a graceful
  /// shutdown that must not wait out long searches: cancel_all() then
  /// drain().
  void cancel_all() noexcept;

  EngineStats stats() const;
  unsigned workers() const noexcept;
  /// The engine-owned shared transposition table armed into requests, or
  /// null when Options::tt_entries == 0. Outlives every job (same lifetime
  /// as the engine); benchmarks and tests use it to inspect hit rates or
  /// clear state between measurements.
  TranspositionTable* shared_tt() noexcept;
  /// The underlying scheduler, for running ad-hoc tasks or direct
  /// search(req, exec) calls next to engine jobs.
  Executor& executor() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gtpar
