#include "gtpar/engine/tt.hpp"

#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace gtpar {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t kPageAlign = 4096;

}  // namespace

void TranspositionTable::AlignedFree::operator()(Entry* p) const noexcept {
  // Entries are trivially destructible (two atomics); release the buffer
  // with the matching aligned form.
  ::operator delete(p, bytes, std::align_val_t{kPageAlign});
}

TranspositionTable::TranspositionTable(std::size_t entries, bool huge_pages) {
  const std::size_t cap = round_up_pow2(entries);
  const std::size_t bytes = cap * sizeof(Entry);
  Entry* raw = static_cast<Entry*>(
      ::operator new(bytes, std::align_val_t{kPageAlign}));
#if defined(__linux__)
  if (huge_pages) {
    // Advisory only; fails (harmlessly) when THP is disabled or the
    // region is too small for a 2 MiB page.
    (void)madvise(raw, bytes, MADV_HUGEPAGE);
  }
#else
  (void)huge_pages;
#endif
  // Construct (and thereby first-touch) the entries after the madvise so
  // the pages can be populated as huge from the start.
  for (std::size_t i = 0; i < cap; ++i) ::new (static_cast<void*>(raw + i)) Entry;
  slots_ = std::unique_ptr<Entry[], AlignedFree>(raw, AlignedFree{bytes});
  mask_ = cap - 1;
}

bool TranspositionTable::probe(std::uint64_t key, Value& out) noexcept {
  counters_.add(kProbes);
  const Entry& e = slots_[key & mask_];
  // Read order doesn't matter: any torn / mismatched pair fails the
  // checksum. Relaxed is sufficient — the value is validated by content,
  // not by happens-before (a stale-but-consistent pair is a correct hit,
  // since only exact values are ever stored).
  const std::uint64_t check = e.check.load(std::memory_order_relaxed);
  const std::uint64_t data = e.data.load(std::memory_order_relaxed);
  if ((data & kPresent) == 0) return false;
  if ((check ^ data) != key) {
    counters_.add(kCollisions);
    return false;
  }
  counters_.add(kHits);
  out = unpack_value(data);
  return true;
}

void TranspositionTable::store(std::uint64_t key, Value value,
                               std::uint32_t weight) noexcept {
  Entry& e = slots_[key & mask_];
  const std::uint8_t gen = gen_.load(std::memory_order_relaxed);
  const std::uint64_t data = pack(value, weight, gen);

  const std::uint64_t old_data = e.data.load(std::memory_order_relaxed);
  if ((old_data & kPresent) != 0 && unpack_gen(old_data) == gen &&
      unpack_weight(old_data) > unpack_weight(data)) {
    // Depth-preferred: a heavier same-generation incumbent survives. The
    // incumbent may be a different key — that's the policy working, not a
    // bug: the heavier subtree costs more to recompute.
    counters_.add(kKept);
    return;
  }
  // Two plain stores; a concurrent probe of a half-written pair fails the
  // checksum and misses. Concurrent stores to the same slot can interleave
  // into a mismatched pair, which likewise reads as a miss until the next
  // store — safe, merely a lost entry.
  e.check.store(key ^ data, std::memory_order_relaxed);
  e.data.store(data, std::memory_order_relaxed);
  counters_.add(kStores);
}

void TranspositionTable::clear() noexcept {
  const std::size_t cap = mask_ + 1;
  for (std::size_t i = 0; i < cap; ++i) {
    slots_[i].check.store(0, std::memory_order_relaxed);
    slots_[i].data.store(0, std::memory_order_relaxed);
  }
}

TranspositionTable::Stats TranspositionTable::stats() const noexcept {
  Stats s;
  s.probes = counters_.sum(kProbes);
  s.hits = counters_.sum(kHits);
  s.stores = counters_.sum(kStores);
  s.collisions = counters_.sum(kCollisions);
  s.kept = counters_.sum(kKept);
  return s;
}

}  // namespace gtpar
