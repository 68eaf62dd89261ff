// gtbench/src/trace.hpp
//
// In-memory span recorder for the traced run. The benchmark records a
// span around each of its own calls into a gtpar layer; nothing inside
// the library is instrumented. A span's name is "<module>.<what>"; spans
// of one request share its request id, and `parent` links a span to the
// span that caused it. Spans are kept in memory and written out as JSON
// lines when the run ends.
//
// Two kinds of span: measured ones, opened and closed by the benchmark
// around a call; and derived ones, placed from a duration the library
// reports (SearchJob::dispatch_ns, SearchResult::wall_ns) anchored at a
// measured timestamp. Derived spans carry derived=true in the output.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gtbench {

struct Span {
  const char* name = "";
  std::uint64_t req = 0;     ///< request id; 0 = not part of a request
  std::uint32_t parent = 0;  ///< parent span id; 0 = root
  std::int64_t start = 0, end = 0;
  bool derived = false;
};

class Tracer {
 public:
  /// Span ids are 1-based; 0 means "no span" (tracing off).
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

  std::uint32_t open(const char* name, std::uint64_t req, std::uint32_t parent,
                     std::int64_t start);
  void close(std::uint32_t id, std::int64_t end);
  std::uint32_t add(const char* name, std::uint64_t req, std::uint32_t parent,
                    std::int64_t start, std::int64_t end, bool derived = false);

  /// Self time per module, summed over the spans of requests with ids in
  /// [req_lo, req_hi): each span's duration minus the union of its
  /// children's intervals.
  std::map<std::string, double> self_ns_by_module(std::uint64_t req_lo,
                                                  std::uint64_t req_hi) const;
  /// Spans of requests with ids in [req_lo, req_hi).
  std::size_t count(std::uint64_t req_lo, std::uint64_t req_hi) const;

  std::size_t size() const;
  /// Write every span as one JSON object per line; false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The run's tracer; off unless --trace 1.
Tracer& tracer();

/// Measured span for a scope: opened on construction, closed on
/// destruction. A no-op while tracing is off.
class Scoped {
 public:
  Scoped(const char* name, std::uint64_t req, std::uint32_t parent = 0);
  ~Scoped();
  std::uint32_t id() const noexcept { return id_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::uint32_t id_ = 0;
};

}  // namespace gtbench
