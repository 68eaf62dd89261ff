// gtpar/engine/tt.hpp
//
// Shared lock-free transposition table for the real-thread alpha-beta
// cascades. One table is owned by the Engine and shared by every in-flight
// mt_ab search, replacing the per-search memo: exact subtree values
// computed by one request are reused by concurrent and subsequent requests
// on the same position (the arena Tree's content fingerprint keys entries,
// so two requests over structurally identical trees share them even when
// the Tree objects differ).
//
// Entry layout (16 bytes, two std::atomic<uint64_t> words):
//
//   check = key ^ data        data = [63] presence bit
//                                    [62:55] generation
//                                    [54:32] weight (clamped subtree leaves)
//                                    [31:0]  value (exact minimax value)
//
// The XOR-checksum scheme (Hyatt's lockless hashing) makes torn
// check/data pairs self-detecting: a probe recomputes key ^ data and a
// mismatch — a slot mid-rewrite, or a different key hashed to the same
// slot — reads as a miss, never as a wrong value. Since the value lives
// inside one atomic word it can never itself tear.
//
// Replacement is depth-preferred within the current generation: a store
// overwrites an empty slot, any slot from another generation (aged out),
// or a same-generation slot of smaller-or-equal weight. The 8-bit
// generation counter is bumped by the engine as requests are admitted, so
// long-gone requests' entries lose their protection; rollover (256
// generations) is benign — it only re-protects stale entries until they
// lose a weight comparison.
//
// Only *exact* values are stored (computed with no cutoff below the node),
// so a hit is usable under any (alpha, beta) window — the same contract
// the per-search memo had.
//
// Requests with free leaves (no leaf hook, zero leaf cost) never probe or
// store leaves or leaf-frontier nodes: recomputing those costs less than
// a probe, so the cascade reduces them with the batch kernel and only the
// internal nodes above the frontier reach the table (threads/mt_ab.cpp).
// Hooked or costed requests probe and store every leaf they evaluate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "gtpar/common.hpp"
#include "gtpar/engine/sharded_counter.hpp"

namespace gtpar {

class TranspositionTable {
 public:
  /// Monotonic event counters, summed by stats(). Each thread counts into
  /// its own cache-line shard (sharded_counter.hpp), so probes and stores
  /// never contend on a shared counter. The sums are exact once the
  /// probing threads have been joined; read while they run, they are a
  /// shard-by-shard snapshot.
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t stores = 0;
    /// Probes that found a live slot holding a different key (index
    /// collision or torn write detected by the checksum).
    std::uint64_t collisions = 0;
    /// Stores refused by depth-preferred replacement (the incumbent entry
    /// of the current generation outweighed the candidate).
    std::uint64_t kept = 0;
  };

  /// `entries` is rounded up to a power of two (minimum 16). Each entry is
  /// 16 bytes; the default 1<<16 entries = 1 MiB. The slot array lives in
  /// a page-aligned buffer (no entry ever straddles a page, and the base
  /// address is THP-eligible); `huge_pages` additionally issues
  /// madvise(MADV_HUGEPAGE) on Linux so a table much larger than one TLB
  /// reach — the random-probe access pattern's worst enemy — can be backed
  /// by 2 MiB pages. Best-effort and advisory: on kernels without THP, on
  /// other platforms, or when the madvise fails, the table just runs on
  /// normal pages.
  explicit TranspositionTable(std::size_t entries = std::size_t{1} << 16,
                              bool huge_pages = false);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Look up `key`; true + value on a checksum-valid hit.
  bool probe(std::uint64_t key, Value& out) noexcept;

  /// Store an exact value under `key`. `weight` is the replacement
  /// priority (the cascades pass the node's subtree-leaf count): within
  /// one generation, heavier entries — whose recomputation costs more —
  /// survive lighter stores.
  void store(std::uint64_t key, Value value, std::uint32_t weight) noexcept;

  /// Advance the generation counter (wraps at 256, see header comment).
  void new_generation() noexcept { gen_.fetch_add(1, std::memory_order_relaxed); }

  std::uint8_t generation() const noexcept {
    return gen_.load(std::memory_order_relaxed);
  }

  /// Drop every entry (not thread-safe against concurrent probe/store).
  void clear() noexcept;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  Stats stats() const noexcept;

  /// Key for node `node` of a tree with content fingerprint `fp`.
  static std::uint64_t node_key(std::uint64_t fp, NodeId node) noexcept {
    return mix64(fp ^ (0x9e3779b97f4a7c15ull * (std::uint64_t{node} + 1)));
  }

 private:
  struct Entry {
    std::atomic<std::uint64_t> check{0};
    std::atomic<std::uint64_t> data{0};
  };

  static constexpr std::uint64_t kPresent = std::uint64_t{1} << 63;
  static constexpr unsigned kGenShift = 55;
  static constexpr unsigned kWeightShift = 32;
  static constexpr std::uint64_t kWeightMax = (std::uint64_t{1} << 23) - 1;

  static std::uint64_t pack(Value value, std::uint32_t weight,
                            std::uint8_t gen) noexcept {
    const std::uint64_t w =
        weight > kWeightMax ? kWeightMax : static_cast<std::uint64_t>(weight);
    return kPresent | (static_cast<std::uint64_t>(gen) << kGenShift) |
           (w << kWeightShift) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(value));
  }
  static Value unpack_value(std::uint64_t data) noexcept {
    return static_cast<Value>(static_cast<std::uint32_t>(data & 0xFFFFFFFFull));
  }
  static std::uint64_t unpack_weight(std::uint64_t data) noexcept {
    return (data >> kWeightShift) & kWeightMax;
  }
  static std::uint8_t unpack_gen(std::uint64_t data) noexcept {
    return static_cast<std::uint8_t>((data >> kGenShift) & 0xFF);
  }

  /// Page-aligned slot buffer (see constructor). Deleter releases with the
  /// matching aligned operator delete.
  // (No default member initializer: an NSDMI in a nested class is parsed
  // only once the enclosing class is complete, which would make the
  // deleter look non-default-constructible right where unique_ptr is
  // instantiated below. unique_ptr's default constructor value-initializes
  // the deleter, so `bytes` is still zeroed on the empty path.)
  struct AlignedFree {
    std::size_t bytes;
    void operator()(Entry* p) const noexcept;
  };
  // Read by every probe and store, written only by the constructor.
  std::unique_ptr<Entry[], AlignedFree> slots_;
  std::uint64_t mask_ = 0;
  // Written once per admitted request: its own line, so the bump does not
  // invalidate the read-only line above in every worker's cache.
  alignas(64) std::atomic<std::uint8_t> gen_{0};

  // Written on every probe and store, one shard per thread.
  enum Counter : std::size_t {
    kProbes, kHits, kStores, kCollisions, kKept, kCounters
  };
  ShardedCounters<kCounters> counters_;
};

}  // namespace gtpar
