// gtpar/engine/sharded_counter.hpp
//
// Exact event counters for the search hot path, sharded per thread.
//
// A single std::atomic counter that every worker bumps on every TT probe
// or leaf evaluation turns the hot path into a stream of contended
// read-modify-writes on one cache line; at 4 workers a TT op measured ~8x
// its single-threaded cost, nearly all of it that line moving between
// cores. ShardedCounters<N> keeps N counters in each of kShards
// cache-line-sized slots. A thread always adds into its own slot (a
// thread_local index handed out round-robin from a global counter), so
// concurrent writers touch different lines; sum() adds the slots up on the
// rare read.
//
// Counts stay exact: each add is a relaxed fetch_add, so threads that end
// up sharing a slot (more threads than shards) never lose an increment.
// A sum() taken while writers run is a snapshot slot by slot, not of the
// whole; it is exact once the writers have been joined.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gtpar {

namespace detail {

/// The calling thread's shard, fixed for the thread's lifetime.
inline std::size_t counter_shard(std::size_t shards) noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine % shards;
}

}  // namespace detail

template <std::size_t N>
class ShardedCounters {
 public:
  /// Slots per counter set: enough for a pool's workers plus the threads
  /// submitting to it, few enough that sum() stays 16 loads. Threads
  /// beyond 16 share slots, still exactly.
  static constexpr std::size_t kShards = 16;

  void add(std::size_t counter = 0, std::uint64_t n = 1) noexcept {
    slots_[detail::counter_shard(kShards)].c[counter].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t sum(std::size_t counter = 0) const noexcept {
    std::uint64_t s = 0;
    for (const Slot& slot : slots_)
      s += slot.c[counter].load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, N> c{};
  };

  std::array<Slot, kShards> slots_{};
};

}  // namespace gtpar
