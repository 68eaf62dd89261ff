// Shared lock-free transposition table (engine/tt.hpp): checksum-validated
// probe/store, depth-preferred replacement, generation aging, and — the
// part a unit test cannot hand-wave — torn-write safety under concurrent
// hammering (run under TSan in the sanitizer CI lane). Plus the
// end-to-end contract: an Engine with the shared TT enabled returns
// exactly the same values as one without it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "anytime_checks.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/engine/tt.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

TEST(TranspositionTable, StoreProbeRoundTrip) {
  TranspositionTable tt(1 << 10);
  const std::uint64_t key = TranspositionTable::node_key(0xabcdefull, 7);
  Value out = 0;
  EXPECT_FALSE(tt.probe(key, out));
  tt.store(key, -1234, /*weight=*/5);
  ASSERT_TRUE(tt.probe(key, out));
  EXPECT_EQ(out, -1234);
  // Negative values and the extremes survive the 32-bit packing.
  for (const Value v : {kMinusInf + 1, Value{-1}, Value{0}, kPlusInf - 1}) {
    tt.store(key, v, /*weight=*/100);
    ASSERT_TRUE(tt.probe(key, out));
    EXPECT_EQ(out, v);
  }
}

TEST(TranspositionTable, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TranspositionTable(1).capacity(), 16u);
  EXPECT_EQ(TranspositionTable(17).capacity(), 32u);
  EXPECT_EQ(TranspositionTable(64).capacity(), 64u);
}

TEST(TranspositionTable, DepthPreferredReplacementWithinGeneration) {
  // Keys `k` and `k + capacity` index the same slot; within one generation
  // the heavier incumbent survives and the lighter store is refused.
  TranspositionTable tt(16);
  const std::uint64_t k1 = 3;
  const std::uint64_t k2 = 3 + tt.capacity();
  tt.store(k1, 111, /*weight=*/10);
  tt.store(k2, 222, /*weight=*/5);  // lighter: refused
  Value out = 0;
  EXPECT_TRUE(tt.probe(k1, out));
  EXPECT_EQ(out, 111);
  EXPECT_FALSE(tt.probe(k2, out));
  EXPECT_GE(tt.stats().kept, 1u);

  tt.store(k2, 222, /*weight=*/20);  // heavier: takes the slot
  EXPECT_TRUE(tt.probe(k2, out));
  EXPECT_EQ(out, 222);
  EXPECT_FALSE(tt.probe(k1, out));
  EXPECT_GE(tt.stats().collisions, 1u);
}

TEST(TranspositionTable, GenerationAgingLiftsProtection) {
  // After new_generation() even a much lighter store evicts the (now aged)
  // heavyweight incumbent.
  TranspositionTable tt(16);
  const std::uint64_t k1 = 5;
  const std::uint64_t k2 = 5 + tt.capacity();
  tt.store(k1, 111, /*weight=*/1000);
  tt.new_generation();
  tt.store(k2, 222, /*weight=*/1);
  Value out = 0;
  EXPECT_TRUE(tt.probe(k2, out));
  EXPECT_EQ(out, 222);
}

TEST(TranspositionTable, ClearDropsEverything) {
  TranspositionTable tt(1 << 8);
  for (std::uint64_t i = 0; i < 100; ++i)
    tt.store(TranspositionTable::node_key(42, NodeId(i)), Value(i), 1);
  tt.clear();
  Value out = 0;
  for (std::uint64_t i = 0; i < 100; ++i)
    EXPECT_FALSE(tt.probe(TranspositionTable::node_key(42, NodeId(i)), out));
}

TEST(TranspositionTable, NodeKeySeparatesFingerprintsAndNodes) {
  // Same node under different tree fingerprints (and vice versa) must not
  // share keys — cross-tree pollution would poison unrelated searches.
  const std::uint64_t a = TranspositionTable::node_key(1, 0);
  const std::uint64_t b = TranspositionTable::node_key(2, 0);
  const std::uint64_t c = TranspositionTable::node_key(1, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

/// `threads` threads each do 20000 store+probe rounds on `tt`; true when
/// some probe hit returned a value stored under another key.
bool hammer(TranspositionTable& tt, unsigned threads) {
  const auto value_of = [](std::uint64_t key) {
    return static_cast<Value>(static_cast<std::uint32_t>(mix64(key)) & 0x7FFFFFFF);
  };
  std::atomic<bool> torn{false};
  std::vector<std::thread> workers;
  for (unsigned who = 0; who < threads; ++who) {
    workers.emplace_back([&, who] {
      for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t key =
            TranspositionTable::node_key(who + 1, NodeId(i % 512));
        tt.store(key, value_of(key), /*weight=*/std::uint32_t(i % 7));
        Value out = 0;
        const std::uint64_t probe_key =
            TranspositionTable::node_key((who ^ 1) + 1, NodeId(i % 512));
        if (tt.probe(probe_key, out) && out != value_of(probe_key))
          torn.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : workers) th.join();
  return torn.load();
}

TEST(TranspositionTable, ConcurrentHammerNeverYieldsTornValues) {
  // The Hyatt checksum contract: under concurrent stores to a deliberately
  // tiny (slot-contended) table, every probe hit must return the value that
  // was stored under that exact key — a torn check/data pair must read as a
  // miss. Values are derived from keys so a cross-key leak is detectable.
  // The per-thread-sharded counters must also stay exact, including with
  // more threads than shards (threads then share a shard).
  for (unsigned threads : {4u, 64u}) {
    TranspositionTable tt(64);
    EXPECT_FALSE(hammer(tt, threads))
        << threads << " threads: a probe returned a value stored under a "
        << "different key";
    const auto s = tt.stats();
    const std::uint64_t ops = std::uint64_t{threads} * 20000;
    EXPECT_EQ(s.probes, ops) << threads << " threads";
    EXPECT_EQ(s.stores + s.kept, ops) << threads << " threads";
    EXPECT_LE(s.hits + s.collisions, s.probes) << threads << " threads";
    EXPECT_GT(s.stores, 0u) << threads << " threads";
  }
}

// --- End-to-end: shared TT on vs off across the engine. ---------------------

TEST(EngineTT, SharedTableMatchesPrivateMemoAcrossMixedBatch) {
  // The same request stream through a TT-enabled engine and a TT-disabled
  // one: identical values, and the TT must actually be exercised.
  std::vector<Tree> trees;
  std::vector<Value> truths;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    trees.push_back(make_uniform_iid_minimax(2, 8, -100, 100, seed));
    truths.push_back(minimax_value(trees.back()));
  }
  std::vector<SearchRequest> reqs;
  for (int round = 0; round < 3; ++round) {  // repeats hit the shared table
    for (const Tree& t : trees) {
      SearchRequest req;
      req.tree = &t;
      req.algorithm = Algorithm::kMtParallelAb;
      req.leaf_cost_ns = 0;
      req.grain = 1;  // always spawn: cover concurrent TT traffic too
      reqs.push_back(req);
    }
  }
  Engine::Options with_tt;
  with_tt.workers = 4;
  with_tt.tt_entries = 1 << 12;
  Engine tt_engine(with_tt);
  const auto tt_results = tt_engine.run_all(reqs);

  Engine::Options no_tt;
  no_tt.workers = 4;
  no_tt.tt_entries = 0;
  Engine plain_engine(no_tt);
  const auto plain_results = plain_engine.run_all(reqs);

  ASSERT_EQ(tt_results.size(), plain_results.size());
  for (std::size_t i = 0; i < tt_results.size(); ++i) {
    EXPECT_EQ(tt_results[i].value, truths[i % trees.size()]) << "request " << i;
    EXPECT_EQ(tt_results[i].value, plain_results[i].value) << "request " << i;
    EXPECT_TRUE(tt_results[i].complete);
  }
  const EngineStats s = tt_engine.stats();
  EXPECT_GT(s.tt.probes, 0u);
  EXPECT_GT(s.tt.hits, 0u) << "repeated identical trees must hit the shared table";
  EXPECT_EQ(plain_engine.stats().tt.probes, 0u);
}

TEST(EngineTT, FingerprintKeysShareAcrossIdenticalTreeObjects) {
  // Two distinct Tree objects with identical content share entries (keys
  // are content-fingerprint based, not address based).
  const Tree a = make_uniform_iid_minimax(2, 8, -50, 50, 9);
  const Tree b = make_uniform_iid_minimax(2, 8, -50, 50, 9);
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  const Value truth = minimax_value(a);

  Engine::Options opt;
  opt.workers = 2;
  opt.tt_entries = 1 << 12;
  Engine eng(opt);
  SearchRequest ra;
  ra.tree = &a;
  ra.algorithm = Algorithm::kMtParallelAb;
  EXPECT_EQ(eng.run(ra).value, truth);
  const std::uint64_t hits_before = eng.stats().tt.hits;
  SearchRequest rb;
  rb.tree = &b;
  rb.algorithm = Algorithm::kMtParallelAb;
  EXPECT_EQ(eng.run(rb).value, truth);
  EXPECT_GT(eng.stats().tt.hits, hits_before)
      << "the second, content-identical tree should reuse stored values";
}

TEST(EngineTT, PerRequestTableOverridesEngineTable) {
  // A request carrying its own table must keep it (the engine arms its
  // shared table only into requests whose tt pointer is null).
  const Tree t = make_uniform_iid_minimax(2, 7, -10, 10, 4);
  TranspositionTable mine(1 << 8);
  Engine eng;  // default options: engine-owned table enabled
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelAb;
  req.tt = &mine;
  EXPECT_EQ(eng.run(req).value, minimax_value(t));
  EXPECT_GT(mine.stats().stores, 0u);
  EXPECT_EQ(eng.stats().tt.stores, 0u);
}

// --- Free leaves: no hook and no leaf cost keep leaves out of the table. ----

/// A kMtParallelAb request over `t` with zero-cost leaves on table `tt`.
SearchRequest free_leaf_request(const Tree& t, TranspositionTable& tt,
                                std::uint64_t grain) {
  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtParallelAb;
  req.leaf_cost_ns = 0;
  req.grain = grain;
  req.width = 2;
  req.threads = 4;
  req.tt = &tt;
  return req;
}

TEST(EngineTT, FreeLeavesNeverTouchTheTable) {
  // Leaves and leaf-frontier nodes are neither probed nor stored, so even
  // with every subtree spawned (grain 1) only the internal nodes above the
  // frontier reach the table. The per-leaf path probes and stores every
  // leaf it evaluates: about 1.3 table operations per leaf of these trees.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Tree t = make_uniform_iid_minimax(4, 6, -100, 100, seed);
    TranspositionTable tt(1 << 14);
    const SearchResult r = search(free_leaf_request(t, tt, /*grain=*/1));
    EXPECT_EQ(r.value, minimax_value(t)) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    EXPECT_GT(r.work, 0u) << "seed " << seed;
    const TranspositionTable::Stats s = tt.stats();
    EXPECT_LT(s.probes + s.stores, t.num_leaves() / 2)
        << "seed " << seed << ": " << s.probes << " probes, " << s.stores
        << " stores over " << t.num_leaves() << " leaves";
  }
}

TEST(EngineTT, FreeLeafBatchPathObservesCancelAndDeadline) {
  // The batch path never calls the per-leaf evaluator, where the cancel
  // flag and the deadline are polled on the per-leaf path; it must still
  // stop, and its anytime bound must admit the true value.
  const std::atomic<bool> cancelled{true};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Tree t = make_uniform_iid_minimax(4, 6, -100, 100, seed);
    const Value truth = minimax_value(t);
    for (const std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{1}}) {
      for (const bool use_cancel : {true, false}) {
        TranspositionTable tt(1 << 14);
        SearchRequest req = free_leaf_request(t, tt, grain);
        if (use_cancel)
          req.limits.cancel = &cancelled;
        else
          req.limits.budget_ns = 1;
        const SearchResult r = search(req);
        const char* what = use_cancel ? "pre-set cancel" : "1 ns budget";
        EXPECT_FALSE(r.complete)
            << what << ", seed " << seed << ", grain " << grain;
        EXPECT_TRUE(admits(r, truth))
            << what << ", seed " << seed << ", grain " << grain << ": "
            << completeness_name(r.completeness) << " " << r.value
            << " vs true " << truth;
      }
    }
  }
}

/// Inert hook that counts its calls.
class CountingHook final : public LeafHook {
 public:
  void on_leaf(NodeId, unsigned) override {
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> calls{0};
};

TEST(EngineTT, HookedAndCostedRequestsKeepThePerLeafPath) {
  // On a table-backed engine, a leaf hook or a leaf cost makes leaves not
  // free: every leaf evaluation runs the hook, pays its cost and is stored.
  const Tree t = make_uniform_iid_minimax(3, 6, -100, 100, 5);
  const Value truth = minimax_value(t);
  Engine::Options opt;
  opt.workers = 4;
  opt.tt_entries = 1 << 14;
  for (const std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{1}}) {
    Engine eng(opt);
    CountingHook hook;
    SearchRequest hooked;
    hooked.tree = &t;
    hooked.algorithm = Algorithm::kMtParallelAb;
    hooked.grain = grain;
    hooked.leaf_hook = &hook;
    const SearchResult rh = eng.run(hooked);
    EXPECT_EQ(rh.value, truth) << "grain " << grain;
    EXPECT_GT(rh.work, 0u) << "grain " << grain;
    EXPECT_EQ(hook.calls.load(), rh.work) << "grain " << grain;

    eng.shared_tt()->clear();
    const TranspositionTable::Stats before = eng.stats().tt;
    SearchRequest costed = hooked;
    costed.leaf_hook = nullptr;
    costed.leaf_cost_ns = 50;
    const SearchResult rc = eng.run(costed);
    const TranspositionTable::Stats after = eng.stats().tt;
    EXPECT_EQ(rc.value, truth) << "grain " << grain;
    EXPECT_GT(rc.work, 0u) << "grain " << grain;
    // Each paid leaf evaluation offers the leaf to the table once.
    EXPECT_GE((after.stores + after.kept) - (before.stores + before.kept),
              rc.work)
        << "grain " << grain;
  }
  // ... and probes it once: the kernel leaves a leaf's probe to the
  // evaluator. The sequential core makes the count deterministic: one
  // probe per evaluated leaf plus one per internal node entered.
  TranspositionTable tt(1 << 14);
  SearchRequest seq;
  seq.tree = &t;
  seq.algorithm = Algorithm::kMtSequentialAb;
  seq.leaf_cost_ns = 50;
  seq.tt = &tt;
  const SearchResult rs = search(seq);
  EXPECT_EQ(rs.value, truth);
  EXPECT_LT(tt.stats().probes, 2 * rs.work);
}

}  // namespace
}  // namespace gtpar
