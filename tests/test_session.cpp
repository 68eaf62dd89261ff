// Game-play sessions: iterative-deepening search correctness against an
// independent minimax oracle, cross-move transposition/PV/ordering reuse,
// engine integration (generation pinning, stateless dispatch), and
// concurrent sessions sharing one engine-owned table — including the
// key-collision configurations the geometry salts exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "gtpar/engine/engine.hpp"
#include "gtpar/engine/tt.hpp"
#include "gtpar/games/chomp.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"
#include "gtpar/session/id_search.hpp"
#include "gtpar/session/session.hpp"

namespace gtpar {
namespace {

/// Independent oracle: plain full minimax, no pruning, no tables.
Value oracle(const TreeSource& src, const TreeSource::Node& v, bool maxing) {
  const unsigned d = src.num_children(v);
  if (d == 0) return src.leaf_value(v);
  Value best = maxing ? kMinusInf : kPlusInf;
  for (unsigned i = 0; i < d; ++i) {
    const Value x = oracle(src, src.child(v, i), !maxing);
    best = maxing ? std::max(best, x) : std::min(best, x);
  }
  return best;
}

// ---------------------------------------------------------------------------
// id_search in isolation.
// ---------------------------------------------------------------------------

TEST(IdSearch, SolvesTicTacToeExactly) {
  const TicTacToeSource ttt;
  const IdResult r = id_search(ttt, IdRequest{}, nullptr, SearchLimits{});
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.complete);
  EXPECT_LE(r.depth_completed, 9u) << "must stop once the game is out-searched";
}

TEST(IdSearch, NimMatchesTheoryWithEveryFeatureToggle) {
  const NimSource nim(9, 3);  // 9 % 4 != 0: first player wins
  for (const bool use_tt : {false, true}) {
    for (const bool aspiration : {false, true}) {
      for (const bool ordering : {false, true}) {
        TranspositionTable tt(1 << 10);
        IdRequest idr;
        idr.use_tt = use_tt;
        idr.aspiration = aspiration;
        idr.use_ordering = ordering;
        const IdResult r =
            id_search(nim, idr, use_tt ? &tt : nullptr, SearchLimits{});
        EXPECT_EQ(r.value, 1) << "tt=" << use_tt << " asp=" << aspiration
                              << " ord=" << ordering;
        EXPECT_TRUE(r.exact);
      }
    }
  }
}

TEST(IdSearch, TerminalRootReportsItsLeafValue) {
  const NimSource nim(2, 3);
  const auto terminal = nim.child(nim.root(), 1);  // take both objects
  IdRequest idr;
  idr.root = terminal;
  idr.root_set = true;
  idr.maxing = false;
  const IdResult r = id_search(nim, idr, nullptr, SearchLimits{});
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.value, 1);
  EXPECT_TRUE(r.pv.empty());
}

TEST(IdSearch, ValueBoundStopsAtProvenWins) {
  const NimSource nim(21, 3);  // first-player win
  IdRequest idr;
  idr.value_bound = 1;
  TranspositionTable tt(1 << 12);
  const IdResult with_bound = id_search(nim, idr, &tt, SearchLimits{});
  EXPECT_EQ(with_bound.value, 1);
  EXPECT_TRUE(with_bound.exact);
  IdRequest no_bound;
  TranspositionTable tt2(1 << 12);
  const IdResult without = id_search(nim, no_bound, &tt2, SearchLimits{});
  EXPECT_EQ(without.value, 1);
  EXPECT_LE(with_bound.stats.nodes, without.stats.nodes)
      << "the proven-best early exit must only prune";
}

TEST(IdSearch, PvIsALegalLine) {
  const MnkSource g(3, 3, 3);
  const IdResult r = id_search(g, IdRequest{}, nullptr, SearchLimits{});
  EXPECT_FALSE(r.pv.empty());
  auto v = g.root();
  for (const unsigned m : r.pv) {
    ASSERT_LT(m, g.num_children(v));
    v = g.child(v, m);
  }
}

// ---------------------------------------------------------------------------
// Pinned searches. Single thread, private table: the search is
// deterministic, so these counts fix the move order and the table traffic.
// A change to how children are ordered or expanded that alters the search
// fails here even when the value stays right.
// ---------------------------------------------------------------------------

struct Pinned {
  std::vector<unsigned> opening;
  unsigned max_depth;
  std::uint64_t nodes, tt_probes, tt_stores;
  std::vector<unsigned> pv;
  Value value;
};

void expect_pinned(const TreeSource& src, const Pinned& p) {
  TreeSource::Node v = src.root();
  for (const unsigned m : p.opening) v = src.child(v, m);
  IdRequest idr;
  idr.root = v;
  idr.root_set = true;
  idr.maxing = v.depth % 2 == 0;
  idr.max_depth = p.max_depth;
  idr.value_bound = 1;
  TranspositionTable tt(1 << 14);
  const IdResult r = id_search(src, idr, &tt, SearchLimits{});
  EXPECT_EQ(r.stats.nodes, p.nodes);
  EXPECT_EQ(r.stats.tt_probes, p.tt_probes);
  EXPECT_EQ(r.stats.tt_stores, p.tt_stores);
  EXPECT_EQ(r.pv, p.pv);
  EXPECT_EQ(r.value, p.value);
}

TEST(IdSearchPinned, DropFourByFour) {
  const DropSource drop(4, 4, 4);
  // A horizon-bounded search (heuristic 0 at depth 6), two full solves of
  // drawn openings, and a six-ply opening that X wins.
  expect_pinned(drop, {{}, 6, 509, 106, 0, {0, 0, 0, 0, 0, 0}, 0});
  expect_pinned(drop, {{0, 1}, 64, 31479, 14693, 742,
                       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0});
  expect_pinned(drop, {{1, 2}, 64, 41551, 18903, 1463,
                       {0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0}, 0});
  expect_pinned(drop, {{1, 2, 1, 2, 0, 3}, 64, 1549, 564, 60,
                       {1, 1, 1, 1, 1, 0, 0, 0, 0}, 1});
}

TEST(IdSearchPinned, TicTacToe) {
  const TicTacToeSource ttt;
  expect_pinned(ttt, {{}, 64, 13250, 4338, 837, {0, 3, 0, 0, 2, 0, 0, 0, 0}, 0});
  expect_pinned(ttt, {{4, 0}, 64, 1251, 418, 79, {0, 4, 1, 1, 1, 0, 0}, 0});
}

TEST(IdSearch, OrderingHandlesWideRoots) {
  // 100 moves at the root and at every node above 100 objects: the
  // per-ply ordering scratch must grow to any branching factor.
  const NimSource nim(200, 100);
  TranspositionTable tt(1 << 12);
  IdRequest idr;
  idr.value_bound = 1;
  ASSERT_TRUE(idr.use_ordering);
  const IdResult r = id_search(nim, idr, &tt, SearchLimits{});
  EXPECT_EQ(r.value, NimSource::theoretical_value(200, 100));
  EXPECT_TRUE(r.exact);
}

// ---------------------------------------------------------------------------
// Differential suite: suggested moves must be minimax-optimal. Covers the
// forced-win positions (a winning side must pick a winning move) as the
// special case where optimality is sharpest.
// ---------------------------------------------------------------------------

void expect_optimal_at(Engine& eng, const TreeSource& src,
                       const std::vector<unsigned>& prefix) {
  GameSession s(eng, src);
  for (const unsigned m : prefix) {
    if (s.game_over() || m >= src.num_children(s.position())) return;
    s.Play(m);
  }
  if (s.game_over()) return;
  const Side side = s.to_move();
  const bool maxing = side == Side::kMax;
  const MoveSuggestion sug = s.SuggestMove(side, 0);
  const unsigned d = src.num_children(s.position());
  ASSERT_LT(sug.move, d);
  std::vector<Value> child_values(d);
  Value best = maxing ? kMinusInf : kPlusInf;
  for (unsigned i = 0; i < d; ++i) {
    child_values[i] = oracle(src, src.child(s.position(), i), !maxing);
    best = maxing ? std::max(best, child_values[i])
                  : std::min(best, child_values[i]);
  }
  EXPECT_EQ(child_values[sug.move], best)
      << "suggested move must be minimax-optimal (prefix len "
      << prefix.size() << ")";
  EXPECT_EQ(sug.value, best);
  EXPECT_TRUE(sug.exact);
}

TEST(SessionDifferential, TicTacToeMovesAreOptimal) {
  Engine eng(Engine::Options{.workers = 2});
  const TicTacToeSource ttt;
  for (const auto& prefix : std::vector<std::vector<unsigned>>{
           {}, {4}, {0}, {4, 0}, {0, 4}, {4, 0, 1}, {0, 1, 2}}) {
    expect_optimal_at(eng, ttt, prefix);
  }
}

TEST(SessionDifferential, ForcedWinGamesPickWinningMoves) {
  Engine eng(Engine::Options{.workers = 2});
  const NimSource nim(9, 3);     // forced first-player win
  const ChompSource chomp(3, 3); // forced first-player win
  const MnkSource line(1, 9, 2); // forced first-player win
  for (const auto& prefix : std::vector<std::vector<unsigned>>{
           {}, {0}, {1}, {2}, {0, 0}, {1, 2}}) {
    expect_optimal_at(eng, nim, prefix);
    expect_optimal_at(eng, chomp, prefix);
    expect_optimal_at(eng, line, prefix);
  }
}

// ---------------------------------------------------------------------------
// Full-game self-play: optimal play by both sides realizes the
// game-theoretic value.
// ---------------------------------------------------------------------------

Value self_play(Engine& eng, const TreeSource& src,
                const SessionOptions& opt = {}) {
  GameSession s(eng, src, opt);
  while (!s.game_over()) s.PlayBest(s.to_move(), 0);
  return s.game_result();
}

TEST(Session, SelfPlayRealizesTheoreticalValues) {
  Engine eng(Engine::Options{.workers = 2});
  const TicTacToeSource ttt;
  EXPECT_EQ(self_play(eng, ttt), 0);
  const MnkSource m33(3, 3, 3);
  EXPECT_EQ(self_play(eng, m33), 0);
  const NimSource nwin(13, 3), nloss(12, 3);
  EXPECT_EQ(self_play(eng, nwin), NimSource::theoretical_value(13, 3));
  EXPECT_EQ(self_play(eng, nloss), NimSource::theoretical_value(12, 3));
  const ChompSource chomp(3, 3);
  EXPECT_EQ(self_play(eng, chomp), ChompSource::theoretical_value(3, 3));
}

// ---------------------------------------------------------------------------
// Cross-move reuse: the reason sessions exist.
// ---------------------------------------------------------------------------

TEST(Session, SecondMoveHitsTheTableWarmedByTheFirst) {
  Engine eng;
  const MnkSource g(3, 3, 3);
  GameSession s(eng, g);
  const MoveSuggestion first = s.SuggestMove(Side::kMax, 0);
  s.Play(first.move);
  const MoveSuggestion second = s.SuggestMove(Side::kMin, 0);
  EXPECT_GT(second.stats.tt_hits, 0u)
      << "move 2 must reuse subgames proven while searching move 1";
  EXPECT_LT(second.stats.nodes, first.stats.nodes);
}

TEST(Session, ReuseBeatsFromScratchOnTotalNodes) {
  const MnkSource g(3, 3, 3);
  auto total_nodes = [&](const SessionOptions& opt) {
    Engine eng;  // fresh engine per variant: no table sharing across them
    GameSession s(eng, g, opt);
    std::uint64_t nodes = 0;
    while (!s.game_over()) {
      const MoveSuggestion m = s.SuggestMove(s.to_move(), 0);
      nodes += m.stats.nodes;
      s.Play(m.move);
    }
    return nodes;
  };
  SessionOptions scratch;
  scratch.use_tt = false;
  scratch.aspiration = false;
  scratch.ordering = false;
  scratch.reuse_pv = false;
  const std::uint64_t with_reuse = total_nodes(SessionOptions{});
  const std::uint64_t from_scratch = total_nodes(scratch);
  EXPECT_LT(with_reuse, from_scratch)
      << "ID + cross-move reuse must out-prune per-move from-scratch search";
}

TEST(Session, GenerationAgesOncePerSessionNotPerMove) {
  Engine eng;
  ASSERT_NE(eng.shared_tt(), nullptr);
  const std::uint8_t g0 = eng.shared_tt()->generation();
  const MnkSource g(3, 3, 3);
  GameSession s(eng, g);
  s.PlayBest(Side::kMax, 0);
  s.PlayBest(Side::kMin, 0);
  s.PlayBest(Side::kMax, 0);
  EXPECT_EQ(eng.shared_tt()->generation(), static_cast<std::uint8_t>(g0 + 1))
      << "follow-up moves must pin the generation";
}

// ---------------------------------------------------------------------------
// Session mechanics.
// ---------------------------------------------------------------------------

TEST(Session, RejectsOutOfTurnAndIllegalRequests) {
  Engine eng;
  const TicTacToeSource ttt;
  GameSession s(eng, ttt);
  EXPECT_EQ(s.to_move(), Side::kMax);
  EXPECT_THROW(s.SuggestMove(Side::kMin, 0), std::invalid_argument);
  EXPECT_THROW(s.Play(9), std::invalid_argument);
  EXPECT_THROW(s.game_result(), std::logic_error);
  s.Play(0);
  EXPECT_EQ(s.to_move(), Side::kMin);
  EXPECT_EQ(s.ply(), 1u);
}

TEST(Session, SuggestingAfterGameOverThrows) {
  Engine eng;
  const NimSource nim(1, 3);
  GameSession s(eng, nim);
  s.Play(0);  // take the last object
  ASSERT_TRUE(s.game_over());
  EXPECT_EQ(s.game_result(), 1);
  EXPECT_THROW(s.SuggestMove(Side::kMin, 0), std::logic_error);
}

TEST(Session, ExternalMovesKeepTheSessionConsistent) {
  // Play one side from the session and the other from "outside" (always
  // the first legal move); every answer must still be optimal.
  Engine eng;
  const TicTacToeSource ttt;
  GameSession s(eng, ttt);
  while (!s.game_over()) {
    if (s.to_move() == Side::kMax) {
      const MoveSuggestion m = s.SuggestMove(Side::kMax, 0);
      EXPECT_TRUE(m.exact);
      s.Play(m.move);
    } else {
      s.Play(0);
    }
  }
  // X plays optimally against a weak O: X must not lose.
  EXPECT_GE(s.game_result(), 0);
}

TEST(Session, BudgetedSearchStillReturnsALegalMove) {
  Engine eng;
  const MnkSource g(4, 4, 3);
  GameSession s(eng, g);
  // 2 ms on a 16-square board: not enough to solve, enough for depth >= 1.
  const MoveSuggestion m = s.SuggestMove(Side::kMax, 2'000'000);
  EXPECT_LT(m.move, g.num_children(g.root()));
  EXPECT_GE(m.depth, 1u);
  EXPECT_NO_THROW(s.Play(m.move));
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

TEST(IdSearch, StatelessEngineDispatch) {
  Engine eng(Engine::Options{.workers = 2});
  const TicTacToeSource ttt;
  SearchRequest req;
  req.source = &ttt;
  req.algorithm = Algorithm::kIterativeDeepeningAb;
  const SearchResult r = eng.run(req);
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.work, 0u);
  EXPECT_STREQ(algorithm_name(Algorithm::kIterativeDeepeningAb),
               "iterative-deepening-ab");
  EXPECT_TRUE(is_minimax_algorithm(Algorithm::kIterativeDeepeningAb));
}

TEST(IdSearch, PlainSearchFacadeDispatch) {
  const NimSource nim(9, 3);
  SearchRequest req;
  req.source = &nim;
  req.algorithm = Algorithm::kIterativeDeepeningAb;
  req.depth_limit = 12;
  const SearchResult r = search(req);
  EXPECT_EQ(r.value, 1);
  EXPECT_TRUE(r.complete);
}

// ---------------------------------------------------------------------------
// Concurrency: many sessions, one engine, one shared table. Exercised
// under TSan in CI (chaos lane). The game mix deliberately includes the
// key-collision pair — Mnk(3,3,3) (a draw) and Mnk(1,9,2) (a first-player
// win) have equal square counts, so the pre-salt keys of identical masks
// collided and one game could poison the other's values.
// ---------------------------------------------------------------------------

TEST(Session, CollidingConfigsSharingOneTableStayCorrect) {
  Engine eng;
  const MnkSource draw_game(3, 3, 3);
  const MnkSource win_game(1, 9, 2);
  GameSession a(eng, draw_game);
  GameSession b(eng, win_game);
  // Interleave the two games move by move so their searches populate the
  // shared table in alternation.
  while (!a.game_over() || !b.game_over()) {
    if (!a.game_over()) a.PlayBest(a.to_move(), 0);
    if (!b.game_over()) b.PlayBest(b.to_move(), 0);
  }
  EXPECT_EQ(a.game_result(), 0) << "(3,3,3) is a draw";
  EXPECT_EQ(b.game_result(), 1) << "(1,9,2) is a first-player win";
}

TEST(SessionConcurrency, ParallelSessionsShareOneEngine) {
  Engine eng(Engine::Options{.workers = 4});
  const MnkSource draw_game(3, 3, 3);
  const MnkSource win_game(1, 9, 2);
  const NimSource nim(13, 3);
  const ChompSource chomp(3, 3);
  struct Run {
    const TreeSource* src;
    Value expected;
    Value got = 99;
  };
  std::vector<Run> runs = {
      {&draw_game, 0},
      {&win_game, 1},
      {&nim, NimSource::theoretical_value(13, 3)},
      {&chomp, ChompSource::theoretical_value(3, 3)},
  };
  std::vector<std::thread> threads;
  threads.reserve(runs.size());
  for (auto& r : runs) {
    threads.emplace_back([&eng, &r] {
      GameSession s(eng, *r.src);
      while (!s.game_over()) s.PlayBest(s.to_move(), 0);
      r.got = s.game_result();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : runs) EXPECT_EQ(r.got, r.expected);
  const EngineStats stats = eng.stats();
  EXPECT_GT(stats.tt.stores, 0u);
}

TEST(SessionConcurrency, ManySessionsOfTheSameGame) {
  Engine eng(Engine::Options{.workers = 4});
  const MnkSource g(3, 3, 3);
  std::vector<Value> results(4, 99);
  std::vector<std::thread> threads;
  for (auto& out : results) {
    threads.emplace_back([&eng, &g, &out] {
      GameSession s(eng, g);
      while (!s.game_over()) s.PlayBest(s.to_move(), 0);
      out = s.game_result();
    });
  }
  for (auto& t : threads) t.join();
  for (const Value v : results) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace gtpar
