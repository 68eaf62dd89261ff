#include "gtpar/solve/batch_kernels.hpp"

namespace gtpar {

// The full-block inner loops carry no early exit and no data-dependent
// control flow, so the compiler is free to vectorize them; the early-exit
// test runs once per block against the accumulated prefix.

BatchReduce batch_max(const Value* v, std::uint32_t n, Value bound) noexcept {
  BatchReduce r{kMinusInf, 0, false};
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    Value block = v[i];
    for (std::uint32_t j = 1; j < kBatchBlock; ++j)
      block = v[i + j] > block ? v[i + j] : block;
    if (block > r.best) r.best = block;
    i += kBatchBlock;
    if (r.best >= bound) {
      r.scanned = i;
      r.cutoff = true;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] > r.best) r.best = v[i];
    if (r.best >= bound) {
      r.scanned = i + 1;
      r.cutoff = true;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

BatchReduce batch_min(const Value* v, std::uint32_t n, Value bound) noexcept {
  BatchReduce r{kPlusInf, 0, false};
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    Value block = v[i];
    for (std::uint32_t j = 1; j < kBatchBlock; ++j)
      block = v[i + j] < block ? v[i + j] : block;
    if (block < r.best) r.best = block;
    i += kBatchBlock;
    if (r.best <= bound) {
      r.scanned = i;
      r.cutoff = true;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] < r.best) r.best = v[i];
    if (r.best <= bound) {
      r.scanned = i + 1;
      r.cutoff = true;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

BatchNor batch_nor_any(const Value* v, std::uint32_t n) noexcept {
  BatchNor r{false, 0};
  std::uint32_t i = 0;
  while (n - i >= kBatchBlock) {
    Value acc = 0;
    for (std::uint32_t j = 0; j < kBatchBlock; ++j) acc |= v[i + j];
    i += kBatchBlock;
    if (acc != 0) {
      r.any_one = true;
      r.scanned = i;
      return r;
    }
  }
  for (; i < n; ++i) {
    if (v[i] != 0) {
      r.any_one = true;
      r.scanned = i + 1;
      return r;
    }
  }
  r.scanned = n;
  return r;
}

}  // namespace gtpar
