// gtpar/engine/resilience.hpp
//
// The resilience primitives shared by the search façade (engine/api.hpp),
// the real-thread cores (threads/cascade.hpp, which they share), and the
// batched Engine: production searchers treat the leaf evaluator as an
// unreliable dependency, so a transient throw, a latency spike, or an
// expired budget must degrade the answer instead of discarding it.
//
//  - RetryPolicy: bounded-attempt, exponential-backoff retry applied at
//    *leaf* granularity — a flaky evaluator is re-asked for one leaf, the
//    search above it never restarts.
//  - Completeness: how much of the root value survived. A stopped or
//    faulted search reports the sharpest bound derivable from the work it
//    completed (anytime semantics) instead of a meaningless value.
//  - LeafHook: an injection point called once per leaf-evaluation attempt
//    by the Mt cores (SearchRequest::leaf_hook, retried per
//    SearchRequest::retry). The fault-injection substrate
//    (check/faults.hpp) implements it to throw / sleep on a seeded
//    deterministic schedule; production callers can use it for
//    externalised evaluation. LeafCostModel, beside it, says how the
//    cores pay the simulated cost of that evaluation.
//  - ResilientSource: a recording, retrying TreeSource wrapper. Successful
//    leaf values are memoised, so after a permanent fault the façade can
//    re-walk the already-evaluated prefix fault-free and extract bounds.
//  - anytime_*_bounds: the bound extraction itself. Minimax values are
//    monotone in every leaf, so substituting -inf/+inf for unknown leaves
//    and re-running the depth-limited searcher (ab/depth_limited.hpp)
//    yields valid lower/upper root bounds. NOR is *antitone* per level, so
//    sentinel substitution is unsound there; the NOR walk is a
//    three-valued (Kleene) evaluation that is either exact or undetermined.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "gtpar/common.hpp"
#include "gtpar/expand/tree_source.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {

/// Leaf-granularity retry budget for transient evaluator faults.
struct RetryPolicy {
  /// Total attempts per leaf (1 = no retries).
  unsigned max_attempts = 1;
  /// Backoff before retry k is base_backoff_ns << k, capped at
  /// max_backoff_ns (0 = no sleep between attempts).
  std::uint64_t base_backoff_ns = 0;
  std::uint64_t max_backoff_ns = 0;
  /// Which exceptions are worth retrying; null = all std::exceptions.
  /// Non-std exceptions are never retried.
  std::function<bool(const std::exception&)> retry_on;
};

/// Backoff before retry `attempt` (0-based) under `policy`, in ns.
std::uint64_t retry_backoff_ns(const RetryPolicy& policy, unsigned attempt) noexcept;

/// Sleep for retry_backoff_ns (no-op at 0).
void retry_backoff(const RetryPolicy& policy, unsigned attempt);

/// How much of the root value a SearchResult carries.
enum class Completeness : std::uint8_t {
  kExact,       ///< the true root value (possibly recovered despite a stop)
  kLowerBound,  ///< value <= true root value (minimax only)
  kUpperBound,  ///< value >= true root value (minimax only)
  kFailed,      ///< no usable bound; the value is meaningless
};

const char* completeness_name(Completeness c) noexcept;

/// Injection point called by the Mt cores once per leaf-evaluation
/// attempt, *before* the simulated leaf cost is paid. May throw (the core
/// retries per its RetryPolicy, then degrades on a permanent fault) or
/// block (latency spike). `attempt` is 0-based. Must be thread-safe: the
/// cascade evaluates leaves from many workers at once.
class LeafHook {
 public:
  virtual ~LeafHook() = default;
  virtual void on_leaf(NodeId leaf, unsigned attempt) = 0;
};

/// How the Mt cores pay SearchRequest::leaf_cost_ns per leaf evaluation.
/// The values are on the wire (net/wire.hpp): spin = 0, sleep = 1.
enum class LeafCostModel : std::uint8_t {
  kSpin = 0,   ///< busy-spin: models CPU-bound evaluation (needs real cores)
  kSleep = 1,  ///< sleep: models latency-bound evaluation (I/O, remote
               ///< calls); concurrency overlaps the waits even on one core
};

/// Anytime bound extracted from a partial search.
struct AnytimeOutcome {
  Value value = 0;
  Completeness completeness = Completeness::kFailed;
};

/// Recording, retrying TreeSource wrapper. leaf_value() retries the inner
/// evaluator per `retry` and memoises every success, so a later bound
/// extraction re-reads the evaluated prefix without touching the faulty
/// evaluator again. Thread-safe; structure queries forward unprotected
/// (TreeSource implementations are const).
class ResilientSource final : public TreeSource {
 public:
  ResilientSource(const TreeSource& inner, const RetryPolicy& retry)
      : inner_(inner), retry_(retry) {}

  Node root() const override { return inner_.root(); }
  unsigned num_children(const Node& v) const override {
    return inner_.num_children(v);
  }
  Node child(const Node& v, unsigned i) const override {
    return inner_.child(v, i);
  }
  std::uint64_t state_key(const Node& v) const override {
    return inner_.state_key(v);
  }
  std::uint64_t move_label(const Node& v, unsigned i) const override {
    return inner_.move_label(v, i);
  }
  void move_labels(const Node& v, unsigned d,
                   std::uint64_t* out) const override {
    inner_.move_labels(v, d, out);
  }
  /// Retry loop with bounded exponential backoff; rethrows once the
  /// attempt budget is exhausted or retry_on rejects the exception.
  Value leaf_value(const Node& v) const override;

  /// Retries performed / faults observed / distinct leaves evaluated.
  std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t faults() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }
  std::uint64_t evaluated() const;

  /// The memoised value of v, if an evaluation of v ever succeeded.
  bool recorded(const Node& v, Value& out) const;

 private:
  struct NodeHash {
    std::size_t operator()(const Node& n) const noexcept {
      return static_cast<std::size_t>(hash_combine(n.path, n.depth));
    }
  };

  const TreeSource& inner_;
  RetryPolicy retry_;
  mutable std::mutex mu_;
  mutable std::unordered_map<Node, Value, NodeHash> record_;
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> faults_{0};
};

/// Best minimax root bound over an implicit tree whose evaluated prefix is
/// memoised in `rec`: two depth-limited alpha-beta passes with unknown
/// leaves pinned to -inf (lower bound) and +inf (upper bound) — sound
/// because the minimax value is monotone nondecreasing in every leaf.
/// Never calls the wrapped evaluator.
AnytimeOutcome anytime_minimax_bounds(const ResilientSource& rec);

/// Three-valued NOR evaluation over the memoised prefix: exact if the
/// evaluated leaves determine the root, kFailed otherwise (the NOR value
/// domain {0,1} admits no informative one-sided bound).
AnytimeOutcome anytime_nor_bounds(const ResilientSource& rec);

/// Same bound extractions over an explicit tree with partial node
/// knowledge, for the Mt cores' memo tables. `known` returns the node's
/// determined value: -1 = unknown, 0/1 = the NOR value.
AnytimeOutcome anytime_nor_tree_bounds(const Tree& t,
                                       const std::function<int(NodeId)>& known);

/// `known` yields true and fills `out` for nodes whose exact minimax value
/// is memoised. Interval propagation: [lo,hi] per node, max/min of child
/// intervals per node kind, unknown leaves = [-inf,+inf].
AnytimeOutcome anytime_minimax_tree_bounds(
    const Tree& t, const std::function<bool(NodeId, Value&)>& known);

}  // namespace gtpar
