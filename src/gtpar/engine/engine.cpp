#include "gtpar/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gtpar {

using Clock = std::chrono::steady_clock;

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

WorkStealingPool::Options pool_options(const Engine::Options& o) {
  WorkStealingPool::Options p;
  p.threads = o.workers;
  p.deque_capacity = o.deque_capacity;
  p.injection_bound = o.queue_bound;
  p.pin_workers = o.pin_workers;
  return p;
}

}  // namespace

struct SearchJob::State {
  SearchRequest req;
  std::atomic<bool> cancel{false};
  std::atomic<bool> done{false};
  /// Publication arbiter: exactly one of {worker completion, watchdog
  /// failure, admission rejection} wins this CAS and writes result/error.
  /// Losers still run their accounting but leave the outcome alone.
  std::atomic<bool> published{false};
  std::atomic<std::uint64_t> dispatch_ns{0};
  /// Submit-to-outcome latency: stamped by whichever path publishes the
  /// job's outcome (worker completion, admission rejection, watchdog
  /// failure). 0 while the job is still in flight. This is the end-to-end
  /// number a client sees, and what the throughput benchmark's p99/p99.9
  /// completion columns aggregate.
  std::atomic<std::uint64_t> completion_ns{0};
  /// Steady-clock ns of the first instruction on a worker; 0 while still
  /// queued. The watchdog measures stalls from here, not from submit, so
  /// queue latency under load does not count against stall_timeout_ns.
  std::atomic<std::int64_t> start_ns{0};
  Clock::time_point submit_time{};
  std::mutex mu;
  std::condition_variable cv;
  SearchResult result;
  std::exception_ptr error;
  /// Completion hook (may be null). Consumed exactly once, by whichever
  /// path wins the `published` CAS (worker completion, watchdog failure,
  /// admission rejection), strictly after the outcome is visible through
  /// done()/wait().
  CompletionFn on_complete;
};

void SearchJob::cancel() noexcept {
  if (st_) st_->cancel.store(true, std::memory_order_relaxed);
}

bool SearchJob::done() const noexcept {
  return st_ && st_->done.load(std::memory_order_acquire);
}

const SearchResult& SearchJob::wait() {
  std::unique_lock<std::mutex> lock(st_->mu);
  st_->cv.wait(lock, [this] { return st_->done.load(std::memory_order_acquire); });
  if (st_->error) std::rethrow_exception(st_->error);
  return st_->result;
}

std::uint64_t SearchJob::dispatch_ns() const noexcept {
  return st_ ? st_->dispatch_ns.load(std::memory_order_relaxed) : 0;
}

std::uint64_t SearchJob::completion_ns() const noexcept {
  return st_ ? st_->completion_ns.load(std::memory_order_relaxed) : 0;
}

struct Engine::Impl {
  Options opt;
  WorkStealingPool pool;
  /// Shared transposition table, armed into every Mt alpha-beta request
  /// whose own tt pointer is null; null when Options::tt_entries == 0.
  std::unique_ptr<TranspositionTable> tt;

  mutable std::mutex mu;
  std::condition_variable idle_cv;
  std::condition_variable admit_cv;
  std::uint64_t in_flight = 0;
  EngineStats agg;  // `scheduler` filled in on read
  /// Jobs admitted and not yet finished; scanned by the watchdog. A
  /// watchdog-failed job stays here (and in in_flight) until its worker
  /// actually unwinds — drain() waits for real completion, not publication.
  std::vector<std::shared_ptr<SearchJob::State>> active;

  std::thread watchdog;
  bool wd_stop = false;
  std::condition_variable wd_cv;

  explicit Impl(const Options& o) : opt(o), pool(pool_options(o)) {
    if (opt.tt_entries != 0)
      tt = std::make_unique<TranspositionTable>(opt.tt_entries,
                                                opt.tt_huge_pages);
    if (opt.stall_timeout_ns != 0)
      watchdog = std::thread([this] { watchdog_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      wd_stop = true;
    }
    wd_cv.notify_all();
    if (watchdog.joinable()) watchdog.join();
    // The pool member is destroyed after this body; it joins its workers.
  }

  /// Invoke and release a job's completion callback. Called only by the
  /// publication winner, after done has been stored: the callback may call
  /// wait() without blocking. Callback exceptions are swallowed — the
  /// outcome is already published and has nowhere better to go.
  static void run_completion(const std::shared_ptr<SearchJob::State>& st,
                             std::exception_ptr error) {
    CompletionFn cb = std::move(st->on_complete);
    st->on_complete = nullptr;
    if (!cb) return;
    try {
      if (error)
        cb(nullptr, error);
      else
        cb(&st->result, nullptr);
    } catch (...) {
    }
  }

  /// Publish an admission rejection: the job never enters in_flight, its
  /// wait() throws EngineOverloadedError. Caller must NOT hold `mu`.
  static void publish_rejected(const std::shared_ptr<SearchJob::State>& st,
                               const char* what) {
    st->published.store(true, std::memory_order_relaxed);
    stamp_completion(st);
    const auto err = std::make_exception_ptr(EngineOverloadedError(what));
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->error = err;
      st->done.store(true, std::memory_order_release);
    }
    st->cv.notify_all();
    run_completion(st, err);
  }

  /// Stamp submit-to-now as the job's completion latency. Called by the
  /// path that wins publication, just before done is stored.
  static void stamp_completion(const std::shared_ptr<SearchJob::State>& st) {
    st->completion_ns.store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - st->submit_time)
                .count()),
        std::memory_order_relaxed);
  }

  /// Body of one admitted job, on a worker (or the caller under
  /// kCallerRuns).
  void execute_job(const std::shared_ptr<SearchJob::State>& st) {
    const auto start = Clock::now();
    st->start_ns.store(steady_now_ns(), std::memory_order_relaxed);
    st->dispatch_ns.store(
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       start - st->submit_time)
                                       .count()),
        std::memory_order_relaxed);
    SearchResult result;
    std::exception_ptr error;
    if (st->cancel.load(std::memory_order_acquire)) {
      // Cancelled while still queued: deterministic failed result without
      // starting the search (a cancel() racing dispatch must never hang or
      // yield a half-run result).
      result.complete = false;
      result.completeness = Completeness::kFailed;
    } else {
      try {
        result = search(st->req, pool);
      } catch (...) {
        error = std::current_exception();
      }
    }
    finish_job(st, std::move(result), error);
  }

  void finish_job(const std::shared_ptr<SearchJob::State>& st,
                  SearchResult&& result, std::exception_ptr error) {
    const bool won = !st->published.exchange(true, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(mu);
      agg.completed += 1;
      if (won && !error) {
        if (!result.complete) agg.incomplete += 1;
        agg.total_work += result.work;
        agg.total_wall_ns += result.wall_ns;
        agg.total_retries += result.retries;
        agg.total_faults += result.faults;
      }
      const std::uint64_t d = st->dispatch_ns.load(std::memory_order_relaxed);
      agg.total_dispatch_ns += d;
      if (d > agg.max_dispatch_ns) agg.max_dispatch_ns = d;
      active.erase(std::remove(active.begin(), active.end(), st), active.end());
    }
    if (won) {
      stamp_completion(st);
      {
        // Publish done under the job mutex so a concurrent wait() cannot
        // miss the notification between its predicate check and the cv
        // sleep.
        std::lock_guard<std::mutex> lock(st->mu);
        st->result = std::move(result);
        st->error = error;
        st->done.store(true, std::memory_order_release);
      }
      st->cv.notify_all();
      run_completion(st, error);
    }
    // Lost the race: the watchdog already failed this job (and ran its
    // callback); keep the published outcome.
    //
    // The in-flight decrement comes *after* publication and the completion
    // callback, so drain() returning implies every normally-finished job's
    // callback has returned (CompletionFn ordering guarantee 3).
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight -= 1;
      admit_cv.notify_one();
      if (in_flight == 0) idle_cv.notify_all();
    }
  }

  void watchdog_loop() {
    std::unique_lock<std::mutex> lock(mu);
    const auto interval = std::chrono::nanoseconds(
        std::max<std::uint64_t>(opt.stall_timeout_ns / 4, 1));
    while (!wd_stop) {
      wd_cv.wait_for(lock, interval);
      if (wd_stop) break;
      const std::int64_t now = steady_now_ns();
      std::vector<std::shared_ptr<SearchJob::State>> expired;
      for (const auto& st : active) {
        const std::int64_t s = st->start_ns.load(std::memory_order_relaxed);
        if (s == 0) continue;  // still queued
        if (now - s < static_cast<std::int64_t>(opt.stall_timeout_ns)) continue;
        if (st->published.exchange(true, std::memory_order_acq_rel))
          continue;  // completion beat us
        agg.watchdog_failed += 1;
        expired.push_back(st);
      }
      if (expired.empty()) continue;
      lock.unlock();
      for (const auto& st : expired) {
        // Fail the waiter now, and cancel cooperatively so the worker
        // unwinds instead of wedging the pool.
        st->cancel.store(true, std::memory_order_release);
        stamp_completion(st);
        const auto err = std::make_exception_ptr(EngineStalledError(
            "engine watchdog: job exceeded stall_timeout_ns"));
        {
          std::lock_guard<std::mutex> jl(st->mu);
          st->error = err;
          st->done.store(true, std::memory_order_release);
        }
        st->cv.notify_all();
        run_completion(st, err);
      }
      lock.lock();
    }
  }
};

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(const Options& opt) : impl_(std::make_unique<Impl>(opt)) {}

Engine::~Engine() {
  drain();
  // Impl dtor joins the watchdog; the pool destructor drains its deques
  // and joins the workers.
}

SearchJob Engine::submit(SearchRequest req) {
  return submit(std::move(req), CompletionFn{});
}

SearchJob Engine::submit(SearchRequest req, CompletionFn on_complete) {
  auto st = std::make_shared<SearchJob::State>();
  st->req = std::move(req);
  st->on_complete = std::move(on_complete);
  st->req.limits.cancel = &st->cancel;
  if (impl_->tt && st->req.tt == nullptr) {
    // Arm the shared table (ignored by algorithms that don't consume it)
    // and age the replacement priority of previous submissions' entries —
    // unless the request pins the generation (session follow-up moves).
    st->req.tt = impl_->tt.get();
    if (!st->req.tt_pin_generation) impl_->tt->new_generation();
  }
  st->submit_time = Clock::now();
  SearchJob job;
  job.st_ = st;

  Impl* impl = impl_.get();
  bool caller_runs = false;
  {
    std::unique_lock<std::mutex> lock(impl->mu);
    impl->agg.submitted += 1;
    if (impl->opt.max_in_flight != 0 &&
        impl->in_flight >= impl->opt.max_in_flight) {
      switch (impl->opt.shed) {
        case ShedPolicy::kRejectNew:
          impl->agg.rejected += 1;
          lock.unlock();
          Impl::publish_rejected(st, "engine overloaded: max_in_flight reached");
          return job;
        case ShedPolicy::kCallerRuns:
          caller_runs = true;
          break;
        case ShedPolicy::kBlockWithDeadline: {
          const auto fits = [impl] {
            return impl->in_flight < impl->opt.max_in_flight;
          };
          if (impl->opt.admission_timeout_ns == 0) {
            impl->admit_cv.wait(lock, fits);
          } else if (!impl->admit_cv.wait_for(
                         lock,
                         std::chrono::nanoseconds(impl->opt.admission_timeout_ns),
                         fits)) {
            impl->agg.rejected += 1;
            lock.unlock();
            Impl::publish_rejected(
                st, "engine overloaded: admission deadline expired");
            return job;
          }
          break;
        }
      }
    }
    impl->in_flight += 1;
    if (caller_runs) impl->agg.shed_caller_runs += 1;
    impl->active.push_back(st);
  }
  if (caller_runs) {
    // Backpressure: the producer pays for its own overload; the search
    // still spawns scouts on the shared scheduler.
    impl->execute_job(st);
    return job;
  }
  impl->pool.submit([impl, st] { impl->execute_job(st); });
  return job;
}

SearchResult Engine::run(const SearchRequest& req) { return submit(req).wait(); }

std::vector<SearchResult> Engine::run_all(const std::vector<SearchRequest>& reqs) {
  std::vector<SearchJob> jobs;
  jobs.reserve(reqs.size());
  for (const auto& r : reqs) jobs.push_back(submit(r));
  std::vector<SearchResult> out;
  out.reserve(jobs.size());
  for (auto& j : jobs) out.push_back(j.wait());
  return out;
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle_cv.wait(lock, [this] { return impl_->in_flight == 0; });
}

void Engine::cancel_all() noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& st : impl_->active)
    st->cancel.store(true, std::memory_order_release);
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    s = impl_->agg;
  }
  s.scheduler = impl_->pool.stats();
  if (impl_->tt) s.tt = impl_->tt->stats();
  return s;
}

unsigned Engine::workers() const noexcept { return impl_->pool.workers(); }

TranspositionTable* Engine::shared_tt() noexcept { return impl_->tt.get(); }

Executor& Engine::executor() noexcept { return impl_->pool; }

}  // namespace gtpar
