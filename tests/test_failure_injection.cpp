// Failure injection: the library must fail loudly and leave no corrupted
// state when its inputs misbehave — throwing tree sources, invalid
// batches, model violations — and the resilience layer (engine/
// resilience.hpp, check/faults.hpp) must turn injected evaluator faults
// into retried-exact or honestly-degraded anytime results across every
// registry algorithm.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gtpar/ab/minimax_simulator.hpp"
#include "gtpar/check/faults.hpp"
#include "gtpar/check/registry.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/expand/nor_expansion.hpp"
#include "gtpar/expand/tree_source.hpp"
#include "gtpar/net/client.hpp"
#include "gtpar/net/server.hpp"
#include "gtpar/solve/nor_simulator.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

/// A source that throws after a budget of leaf evaluations — models an
/// oracle that becomes unavailable mid-search.
class FailingSource final : public TreeSource {
 public:
  FailingSource(const TreeSource& inner, std::uint64_t budget)
      : inner_(&inner), budget_(budget) {}

  Node root() const override { return inner_->root(); }
  unsigned num_children(const Node& v) const override {
    return inner_->num_children(v);
  }
  Node child(const Node& v, unsigned i) const override { return inner_->child(v, i); }
  Value leaf_value(const Node& v) const override {
    if (evals_++ >= budget_) throw std::runtime_error("oracle unavailable");
    return inner_->leaf_value(v);
  }

  mutable std::uint64_t evals_ = 0;

 private:
  const TreeSource* inner_;
  std::uint64_t budget_;
};

TEST(FailureInjection, ThrowingSourcePropagatesCleanly) {
  const auto inner = make_iid_nor_source(2, 8, 0.618, 1);
  const FailingSource failing(inner, 5);
  EXPECT_THROW(run_n_sequential_solve(failing), std::runtime_error);
}

TEST(FailureInjection, ZeroBudgetFailsOnFirstLeaf) {
  const auto inner = make_iid_nor_source(2, 4, 0.5, 2);
  const FailingSource failing(inner, 0);
  EXPECT_THROW(run_n_parallel_solve(failing, 1), std::runtime_error);
}

TEST(FailureInjection, GenerousBudgetSucceeds) {
  const auto inner = make_iid_nor_source(2, 6, 0.618, 3);
  const Tree t = materialize(inner);
  const FailingSource failing(inner, 1u << 20);
  EXPECT_EQ(run_n_sequential_solve(failing).value, nor_value(t));
}

TEST(FailureInjection, SimulatorRejectsForeignAndRepeatedLeaves) {
  const Tree t = make_uniform_iid_nor(2, 4, 0.5, 1);
  NorSimulator sim(t);
  // Internal node in a batch.
  const NodeId internal = t.root();
  const NodeId leaf = t.leaves().front();
  EXPECT_THROW(sim.evaluate_leaves(std::vector<NodeId>{internal}), std::invalid_argument);
  // Out-of-range id.
  EXPECT_THROW(sim.evaluate_leaves(std::vector<NodeId>{NodeId(t.size() + 5)}),
               std::invalid_argument);
  // Valid evaluation, then a repeat of the same leaf.
  sim.evaluate_leaves(std::vector<NodeId>{leaf});
  EXPECT_THROW(sim.evaluate_leaves(std::vector<NodeId>{leaf}), std::invalid_argument);
}

TEST(FailureInjection, SimulatorStateSurvivesARejectedBatch) {
  // A rejected batch must not change any state: the run can continue and
  // still produce the right answer.
  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 5);
  NorSimulator sim(t);
  std::vector<NodeId> batch;
  sim.collect_width_leaves(1, batch);
  EXPECT_THROW(sim.evaluate_leaves(std::vector<NodeId>{t.root()}), std::invalid_argument);
  // Continue normally.
  while (!sim.done()) {
    sim.collect_width_leaves(1, batch);
    sim.evaluate_leaves(batch);
  }
  EXPECT_EQ(sim.root_value(), nor_value(t));
}

TEST(FailureInjection, MinimaxSimulatorRejectsPrunedLeaves) {
  // Drive a run until something is pruned, then try to evaluate a deleted
  // leaf.
  const Tree t = make_best_case_minimax(2, 6);
  MinimaxSimulator sim(t);
  std::vector<NodeId> batch;
  NodeId pruned_leaf = kNoNode;
  while (!sim.done() && pruned_leaf == kNoNode) {
    sim.collect_width_leaves(0, batch);
    sim.evaluate_leaves(batch);
    for (NodeId leaf : t.leaves()) {
      if (!sim.finished(leaf) && !sim.in_pruned_tree(leaf)) {
        pruned_leaf = leaf;
        break;
      }
    }
  }
  ASSERT_NE(pruned_leaf, kNoNode) << "best-case ordering must prune quickly";
  EXPECT_THROW(sim.evaluate_leaves(std::vector<NodeId>{pruned_leaf}),
               std::invalid_argument);
}

TEST(FailureInjection, MaterializeEnforcesNodeCap) {
  const auto src = make_iid_nor_source(2, 20, 0.5, 1);
  EXPECT_THROW(materialize(src, /*max_nodes=*/1000), std::length_error);
}

// ---------------------------------------------------------------------------
// Chaos harness: every registry algorithm under a seeded FaultPlan
// (check/faults.hpp). Faults reach source-based algorithms through
// FaultySource and the Mt cascades through the leaf hook; lock-step
// simulators read leaf values from memory and are trivially exact.
// ---------------------------------------------------------------------------

class ChaosRegistry : public ::testing::TestWithParam<bool> {};

TEST_P(ChaosRegistry, TransientFaultsRecoverExactValueEverywhere) {
  const bool minimax = GetParam();
  const Tree t = minimax ? make_uniform_iid_minimax(2, 5, -8, 8, 11)
                         : make_uniform_iid_nor(2, 6, 0.618, 11);
  check::FaultPlan plan;
  plan.seed = 42;
  plan.transient_rate = 0.35;
  plan.flaky_attempts = 2;  // retry budget (4 attempts) clears this
  const auto report = check::check_tree_under_faults(t, minimax, plan);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Under purely transient faults with a sufficient retry budget, every
  // algorithm must recover the exact root value — no degraded results.
  EXPECT_EQ(report.lower_bounds + report.upper_bounds + report.failed, 0u)
      << report.summary();
  EXPECT_GT(report.faults_injected, 0u) << "plan injected nothing";
}

TEST_P(ChaosRegistry, PermanentFaultsDegradeConsistentlyEverywhere) {
  const bool minimax = GetParam();
  const Tree t = minimax ? make_uniform_iid_minimax(2, 5, -8, 8, 23)
                         : make_uniform_iid_nor(2, 6, 0.618, 23);
  check::FaultPlan plan;
  plan.seed = 7;
  plan.permanent_rate = 0.15;
  // check_tree_under_faults fails on any escaped exception, any wrong
  // "exact" claim, and any bound inconsistent with ground truth.
  const auto report = check::check_tree_under_faults(t, minimax, plan);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.faults_injected, 0u) << "plan injected nothing";
}

TEST_P(ChaosRegistry, MixedFaultsWithLatencySpikesStayConsistent) {
  const bool minimax = GetParam();
  const Tree t = minimax ? make_uniform_iid_minimax(2, 4, -4, 4, 31)
                         : make_uniform_iid_nor(2, 5, 0.618, 31);
  check::FaultPlan plan;
  plan.seed = 99;
  plan.transient_rate = 0.2;
  plan.flaky_attempts = 1;
  plan.permanent_rate = 0.05;
  plan.slow_rate = 0.1;
  plan.slow_ns = 20'000;
  const auto report = check::check_tree_under_faults(t, minimax, plan);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_P(ChaosRegistry, InjectedCancellationNeverYieldsWrongExactValue) {
  const bool minimax = GetParam();
  const Tree t = minimax ? make_uniform_iid_minimax(2, 6, -8, 8, 47)
                         : make_uniform_iid_nor(2, 7, 0.618, 47);
  check::FaultPlan plan;
  plan.seed = 5;
  plan.cancel_after_evals = 10;  // trip the cancel flag early in each run
  const auto report = check::check_tree_under_faults(t, minimax, plan);
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, ChaosRegistry, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "minimax" : "nor";
                         });

TEST(ChaosRegistry, FaultSchedulesAreDeterministic) {
  // Determinism lives in the *schedule*, not the sweep: which leaves a
  // stopped parallel search touches before the stop latches is
  // timing-dependent, but every per-leaf fault decision is a pure
  // function of (seed, stream, key, attempt). Drive two independent
  // FaultStates over the same key/attempt sequence and require
  // identical classifications at every step.
  check::FaultPlan plan;
  plan.seed = 1234;
  plan.transient_rate = 0.3;
  plan.flaky_attempts = 2;
  plan.permanent_rate = 0.1;
  check::FaultState a(plan);
  check::FaultState b(plan);
  const auto classify = [](check::FaultState& s, std::uint64_t key) -> int {
    try {
      s.on_attempt(key);
      return 0;
    } catch (const check::TransientFault&) {
      return 1;
    } catch (const check::PermanentFault&) {
      return 2;
    }
  };
  unsigned transients = 0, permanents = 0;
  for (std::uint64_t key = 0; key < 2048; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const int ca = classify(a, key);
      const int cb = classify(b, key);
      ASSERT_EQ(ca, cb) << "key " << key << " attempt " << attempt;
      transients += ca == 1;
      permanents += ca == 2;
    }
  }
  // The rates are high enough that a silent all-clear schedule would
  // mean the streams are broken, not lucky.
  EXPECT_GT(transients, 0u);
  EXPECT_GT(permanents, 0u);
}

TEST(ChaosFacade, PermanentFaultYieldsAnytimeBoundNotThrow) {
  // Direct façade check of the anytime path: a source whose every leaf
  // evaluation fails must produce completeness != kExact with complete ==
  // false — and must NOT throw with the default anytime policy.
  const Tree t = make_uniform_iid_nor(2, 5, 0.618, 9);
  const ExplicitTreeSource clean(t);
  check::FaultPlan plan;
  plan.permanent_rate = 1.0;
  check::FaultState state(plan);
  const check::FaultySource src(clean, state);

  SearchRequest req;
  req.algorithm = Algorithm::kNSequentialSolve;
  req.tree = &t;
  req.source = &src;
  const SearchResult r = search(req);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.completeness, Completeness::kFailed);
  EXPECT_GT(r.faults, 0u);
}

TEST(ChaosFacade, AnytimeFalseRestoresThrowingBehaviour) {
  const Tree t = make_uniform_iid_nor(2, 5, 0.618, 9);
  const ExplicitTreeSource clean(t);
  check::FaultPlan plan;
  plan.permanent_rate = 1.0;
  check::FaultState state(plan);
  const check::FaultySource src(clean, state);

  SearchRequest req;
  req.algorithm = Algorithm::kNSequentialSolve;
  req.tree = &t;
  req.source = &src;
  req.anytime = false;
  EXPECT_THROW(search(req), check::PermanentFault);
}

TEST(ChaosFacade, MalformedRequestStillThrowsUnderAnytime) {
  // logic_errors are caller bugs, not evaluator faults: the anytime shield
  // must not swallow them.
  SearchRequest req;
  req.algorithm = Algorithm::kNSequentialSolve;  // needs a source or a tree
  EXPECT_THROW(search(req), std::invalid_argument);
}

TEST(ChaosFacade, RetriesRecoverExactMinimaxValueAndAreCounted) {
  const Tree t = make_uniform_iid_minimax(2, 5, -8, 8, 13);
  const ExplicitTreeSource clean(t);
  check::FaultPlan plan;
  plan.seed = 77;
  plan.transient_rate = 0.4;
  plan.flaky_attempts = 2;
  check::FaultState state(plan);
  const check::FaultySource src(clean, state);

  SearchRequest req;
  req.algorithm = Algorithm::kNSequentialAb;
  req.tree = &t;
  req.source = &src;
  req.retry = plan.retry();
  const SearchResult r = search(req);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.completeness, Completeness::kExact);
  EXPECT_EQ(r.value, minimax_value(t));
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.faults, 0u);
}

TEST(ChaosFacade, MinimaxPartialPrefixGivesConsistentBound) {
  // A permanently faulty minimax evaluator: whatever bound comes back must
  // bracket the ground truth.
  const Tree t = make_uniform_iid_minimax(2, 6, -16, 16, 21);
  const ExplicitTreeSource clean(t);
  check::FaultPlan plan;
  plan.seed = 3;
  plan.permanent_rate = 0.1;
  check::FaultState state(plan);
  const check::FaultySource src(clean, state);

  SearchRequest req;
  req.algorithm = Algorithm::kDepthLimitedAb;
  req.tree = &t;
  req.source = &src;
  const SearchResult r = search(req);
  const Value truth = minimax_value(t);
  switch (r.completeness) {
    case Completeness::kExact:
      EXPECT_EQ(r.value, truth);
      EXPECT_TRUE(r.complete);
      break;
    case Completeness::kLowerBound:
      EXPECT_LE(r.value, truth);
      EXPECT_FALSE(r.complete);
      break;
    case Completeness::kUpperBound:
      EXPECT_GE(r.value, truth);
      EXPECT_FALSE(r.complete);
      break;
    case Completeness::kFailed:
      EXPECT_FALSE(r.complete);
      break;
  }
}

// --- The networked fault lane (net/server.hpp). -----------------------------
//
// The same resilience contract, driven through the full service path: a
// WireRequest fault plan becomes a server-side FaultInjector on the Mt
// cores' leaf hook, and injected evaluator faults must surface as retried
// exact values or degraded Completeness in the RESPONSE — never as
// connection errors, hangs, or wrong exact values.

net::ServiceServer& chaos_server() {
  // A real static (not leaked): its destructor drains at exit, joining the
  // accept and reader threads, so the TSan chaos lane sees no thread leak.
  static net::ServiceServer server{[] {
    net::ServiceOptions opt;
    opt.tcp_port = 0;
    opt.engine.workers = 4;
    opt.allow_fault_injection = true;
    return opt;
  }()};
  static const bool started = [] {
    server.start();
    return true;
  }();
  (void)started;
  return server;
}

net::WireRequest faulty_wire_request(const Tree& t, Algorithm alg) {
  net::WireRequest req;
  req.algorithm = static_cast<std::uint8_t>(alg);
  req.tree_text = to_string(t);
  req.width = 2;
  return req;
}

void expect_sound(const net::WireResult& r, Value truth, bool minimax) {
  switch (static_cast<Completeness>(r.completeness)) {
    case Completeness::kExact:
      EXPECT_EQ(r.value, truth);
      break;
    case Completeness::kLowerBound:
      EXPECT_TRUE(minimax);
      EXPECT_LE(r.value, truth);
      break;
    case Completeness::kUpperBound:
      EXPECT_TRUE(minimax);
      EXPECT_GE(r.value, truth);
      break;
    case Completeness::kFailed:
      break;  // no claim
  }
}

TEST(NetworkedFaults, TransientFaultsRetryToExactValueOverTheWire) {
  auto client = net::ServiceClient::connect_tcp("127.0.0.1",
                                                chaos_server().port());
  const Tree t = make_uniform_iid_minimax(2, 6, -64, 64, 41);
  net::WireRequest req = faulty_wire_request(t, Algorithm::kMtParallelAb);
  req.fault_seed = 7;
  req.fault_transient_rate = 0.25;
  req.fault_flaky_attempts = 2;
  req.retry_attempts = 4;  // enough to clear every flaky leaf

  const auto r = client.call(req);
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  EXPECT_EQ(static_cast<Completeness>(r.result->completeness),
            Completeness::kExact);
  EXPECT_EQ(r.result->value, minimax_value(t));
  // The wire result carries the engine's fault accounting: the injected
  // transients really happened and really were retried.
  EXPECT_GT(r.result->faults, 0u);
  EXPECT_GT(r.result->retries, 0u);
}

TEST(NetworkedFaults, PermanentFaultsDegradeResponseNotConnection) {
  auto client = net::ServiceClient::connect_tcp("127.0.0.1",
                                                chaos_server().port());
  const Tree t = make_uniform_iid_minimax(2, 6, -64, 64, 43);
  const Value truth = minimax_value(t);
  net::WireRequest req = faulty_wire_request(t, Algorithm::kMtParallelAb);
  req.fault_seed = 11;
  req.fault_permanent_rate = 0.2;

  const auto r = client.call(req);
  // The contract: a RESULT frame (not an error, not a dropped
  // connection) with an honestly-degraded, sound claim.
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  expect_sound(*r.result, truth, /*minimax=*/true);
  EXPECT_GT(r.result->faults, 0u);

  // And the connection is still healthy: a clean request right after.
  net::WireRequest clean = faulty_wire_request(t, Algorithm::kMtParallelAb);
  const auto r2 = client.call(clean);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.result->value, truth);
}

// The sweep: both families, rising fault pressure, mixed transient/
// permanent/slow plans — every response sound, transient-only runs exact.
TEST(NetworkedFaults, FaultSweepThroughServicePath) {
  auto client = net::ServiceClient::connect_tcp("127.0.0.1",
                                                chaos_server().port());
  struct Lane {
    bool minimax;
    Algorithm alg;
  };
  const Lane lanes[] = {{false, Algorithm::kMtParallelSolve},
                        {true, Algorithm::kMtParallelAb}};
  const double rates[] = {0.05, 0.15, 0.35};

  for (const Lane& lane : lanes) {
    const Tree t =
        lane.minimax ? make_uniform_iid_minimax(2, 6, -100, 100, 47)
                     : make_uniform_iid_nor(2, 6, 0.618, 47);
    const Value truth =
        lane.minimax ? minimax_value(t) : Value(nor_value(t) ? 1 : 0);

    for (double rate : rates) {
      // Transient-only with retry budget: must recover the exact value.
      net::WireRequest transient = faulty_wire_request(t, lane.alg);
      transient.fault_seed = 100 + static_cast<std::uint64_t>(rate * 100);
      transient.fault_transient_rate = rate;
      transient.fault_flaky_attempts = 1;
      transient.retry_attempts = 3;
      const auto rt = client.call(transient);
      ASSERT_TRUE(rt.ok()) << (rt.error ? rt.error->message : "no frame");
      EXPECT_EQ(static_cast<Completeness>(rt.result->completeness),
                Completeness::kExact)
          << "transient rate " << rate;
      EXPECT_EQ(rt.result->value, truth) << "transient rate " << rate;

      // Mixed transient + permanent + latency spikes: sound, not hung.
      net::WireRequest mixed = faulty_wire_request(t, lane.alg);
      mixed.fault_seed = 200 + static_cast<std::uint64_t>(rate * 100);
      mixed.fault_transient_rate = rate / 2;
      mixed.fault_permanent_rate = rate / 2;
      mixed.fault_slow_rate = rate;
      mixed.fault_slow_ns = 100'000;
      mixed.retry_attempts = 3;
      const auto rm = client.call(mixed);
      ASSERT_TRUE(rm.ok()) << (rm.error ? rm.error->message : "no frame");
      expect_sound(*rm.result, truth, lane.minimax);
    }
  }
}

}  // namespace
}  // namespace gtpar
