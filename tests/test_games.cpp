// Game sources: tic-tac-toe and Nim, with known game-theoretic values as
// oracles for the node-expansion search algorithms.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gtpar/expand/minimax_expansion.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/rand/randomized.hpp"

namespace gtpar {
namespace {

TEST(TicTacToe, RootHasNineMoves) {
  const TicTacToeSource src;
  EXPECT_EQ(src.num_children(src.root()), 9u);
  EXPECT_EQ(TicTacToeSource::board_string(src.root()), ".........");
}

TEST(TicTacToe, ChildBoardsPlaceAlternatingMarks) {
  const TicTacToeSource src;
  const auto c0 = src.child(src.root(), 0);
  EXPECT_EQ(TicTacToeSource::board_string(c0), "X........");
  const auto c01 = src.child(c0, 0);
  EXPECT_EQ(TicTacToeSource::board_string(c01), "XO.......");
  EXPECT_EQ(src.num_children(c01), 7u);
}

TEST(TicTacToe, DetectsTerminalWin) {
  // X plays 0,1,2 (top row) while O plays elsewhere: after X's third move
  // the node is terminal with value +1. Build the move-digit path by hand:
  // X:sq0 (digit 0), O:sq3 (empty list after X0 is 1,2,3,..: sq3 = digit 2),
  // X:sq1 (digit 0), O:sq4 (empties 2,4,5,..: digit 1), X:sq2 (digit 0).
  const TicTacToeSource src;
  auto v = src.root();
  for (unsigned digit : {0u, 2u, 0u, 1u, 0u}) v = src.child(v, digit);
  EXPECT_EQ(TicTacToeSource::board_string(v), "XXXOO....");
  EXPECT_EQ(src.num_children(v), 0u);
  EXPECT_EQ(src.leaf_value(v), 1);
}

TEST(TicTacToe, GameIsADraw) {
  const TicTacToeSource src;
  const auto run = run_n_sequential_ab(src);
  EXPECT_EQ(run.value, 0) << "tic-tac-toe is a draw under optimal play";
  // Alpha-beta must prune: the full move-sequence tree has ~550k nodes.
  EXPECT_LT(run.stats.work, 200000u);
  EXPECT_GT(run.stats.work, 1000u);
}

TEST(TicTacToe, ParallelWidthsAgree) {
  const TicTacToeSource src;
  for (unsigned w : {1u, 2u}) {
    const auto run = run_n_parallel_ab(src, w);
    EXPECT_EQ(run.value, 0) << "width " << w;
  }
}

TEST(TicTacToe, RandomizedSearchAgrees) {
  const TicTacToeSource src;
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    EXPECT_EQ(run_r_parallel_ab(src, 1, seed).value, 0) << "seed " << seed;
}

TEST(TicTacToe, TransposedMoveOrdersGiveEqualNodes) {
  // X on squares 0 and 2, O on square 1, reached in two move orders:
  // digits {0,0,0} play X0 O1 X2; digits {2,1,0} play X2, O on the second
  // empty square (1), X on the first (0).
  const TicTacToeSource src;
  auto a = src.root(), b = src.root();
  for (const unsigned digit : {0u, 0u, 0u}) a = src.child(a, digit);
  for (const unsigned digit : {2u, 1u, 0u}) b = src.child(b, digit);
  EXPECT_EQ(TicTacToeSource::board_string(a), "XOX......");
  EXPECT_EQ(a, b);
  EXPECT_EQ(src.state_key(a), src.state_key(b));
}

TEST(TicTacToe, OutOfRangeChildThrows) {
  const TicTacToeSource src;
  EXPECT_NO_THROW(src.child(src.root(), 8));
  EXPECT_THROW(src.child(src.root(), 9), std::logic_error);
  const auto v = src.child(src.root(), 4);
  EXPECT_THROW(src.child(v, 8), std::logic_error);
  EXPECT_THROW(src.move_label(v, 8), std::logic_error);
}

TEST(Nim, TheoreticalValues) {
  EXPECT_EQ(NimSource::theoretical_value(4, 3), -1);
  EXPECT_EQ(NimSource::theoretical_value(5, 3), 1);
  EXPECT_EQ(NimSource::theoretical_value(8, 3), -1);
  EXPECT_EQ(NimSource::theoretical_value(7, 2), 1);
  EXPECT_EQ(NimSource::theoretical_value(6, 2), -1);
}

TEST(Nim, SearchMatchesTheoryAcrossSizes) {
  for (unsigned k = 1; k <= 3; ++k) {
    for (unsigned s = 1; s <= 12; ++s) {
      const NimSource src(s, k);
      const auto run = run_n_sequential_ab(src);
      EXPECT_EQ(run.value, NimSource::theoretical_value(s, k))
          << "Nim(" << s << "," << k << ")";
    }
  }
}

TEST(Nim, ParallelAgreesWithTheory) {
  const NimSource src(13, 3);
  for (unsigned w : {0u, 1u, 2u}) {
    EXPECT_EQ(run_n_parallel_ab(src, w).value, NimSource::theoretical_value(13, 3))
        << "width " << w;
  }
}

TEST(Nim, ChildCountsRespectRemaining) {
  const NimSource src(2, 3);
  EXPECT_EQ(src.num_children(src.root()), 2u);  // can take only 1 or 2
  const auto after_take1 = src.child(src.root(), 0);
  EXPECT_EQ(src.num_children(after_take1), 1u);
  const auto after_take2 = src.child(src.root(), 1);
  EXPECT_EQ(src.num_children(after_take2), 0u);  // terminal
  EXPECT_EQ(src.leaf_value(after_take2), 1);     // MAX took the last object
}


TEST(Nim, StateKeysSaltTheTakeLimit) {
  // Nim(s, 2) and Nim(s, 3) share (remaining, parity) states with
  // different subgame values, so sources sharing one engine-owned
  // transposition table must never produce equal keys for them.
  const NimSource a(10, 2);
  const NimSource b(10, 3);
  const TreeSource::Node v{7, 1};  // 7 objects left, MIN to move
  EXPECT_NE(a.state_key(v), b.state_key(v));
  // Equal take limits describe the same subgame: heaps of different
  // starting sizes SHOULD share entries for a common remainder.
  const NimSource c(12, 2);
  EXPECT_EQ(a.state_key(v), c.state_key(v));
}

}  // namespace
}  // namespace gtpar
