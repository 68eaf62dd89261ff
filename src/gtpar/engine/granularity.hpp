// gtpar/engine/granularity.hpp
//
// Adaptive task granularity for the real-thread cascades. Spawning a scout
// costs a scheduler round trip (enqueue, steal/pop, latch); a subtree whose
// sequential evaluation is cheaper than a multiple of that overhead should
// run inline through the flat kernels instead. The cutoff is expressed in
// *estimated nanoseconds of sequential work*:
//
//   est(v) = subtree_leaves(v) * (base_leaf_ns + leaf_cost_ns)
//
// where base_leaf_ns is the machine's measured per-leaf cost of the flat
// kernels at zero simulated cost (calibrated once per process, see
// default_grain_policy()) and leaf_cost_ns is the workload's simulated
// evaluation cost. A subtree spawns only when est(v) >= grain_ns.
//
// grain_ns comes from SearchRequest::grain:
//   0  -> auto: GrainPolicy::min_task_ns (default 100 us — roughly 30-100x
//         the work-stealing pool's per-task overhead, the classic grain
//         rule of thumb)
//   1  -> effectively "always spawn" (any nonempty subtree estimate is
//         >= base_leaf_ns >= 1 ns); used by tests that exist to stress the
//         scheduler, and by the bench's grain-off ablation
//   n  -> explicit cutoff in nanoseconds
#pragma once

#include <cstdint>

namespace gtpar {

struct GrainPolicy {
  /// Measured sequential per-leaf cost of the flat kernels (ns).
  double base_leaf_ns = 25.0;
  /// Minimum estimated sequential work for a spawned task (ns).
  std::uint64_t min_task_ns = 100'000;
};

/// Process-wide policy with base_leaf_ns calibrated on first use by timing
/// the flat SOLVE kernel over a small worst-case NOR tree. Thread-safe
/// (static init); the measurement is a few hundred microseconds once.
const GrainPolicy& default_grain_policy();

/// Smallest subtree-leaf count worth spawning as a task: a subtree with
/// fewer leaves than this is evaluated inline by a flat kernel.
/// `grain_ns` 0 selects the policy's min_task_ns (see header comment).
std::uint32_t min_spawn_leaves(const GrainPolicy& policy, std::uint64_t grain_ns,
                               std::uint64_t leaf_cost_ns) noexcept;

}  // namespace gtpar
