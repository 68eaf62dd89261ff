// (m,n,k)-games: construction, terminal detection, and search values
// against known results from the m,n,k-game literature.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gtpar/ab/tt_search.hpp"
#include "gtpar/expand/minimax_expansion.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"

namespace gtpar {
namespace {

TEST(Mnk, ConstructionValidation) {
  EXPECT_NO_THROW(MnkSource(4, 4, 3));
  EXPECT_THROW(MnkSource(5, 4, 3), std::invalid_argument);  // 20 squares
  EXPECT_THROW(MnkSource(3, 3, 4), std::invalid_argument);  // impossible k
  EXPECT_THROW(MnkSource(3, 3, 0), std::invalid_argument);
}

TEST(Mnk, ThreeByThreeMatchesTicTacToe) {
  const MnkSource mnk(3, 3, 3);
  const TicTacToeSource ttt;
  EXPECT_EQ(mnk.num_children(mnk.root()), 9u);
  // Same values along a sample line of play.
  auto a = mnk.root();
  auto b = ttt.root();
  for (unsigned digit : {0u, 2u, 0u, 1u, 0u}) {
    a = mnk.child(a, digit);
    b = ttt.child(b, digit);
  }
  EXPECT_EQ(mnk.num_children(a), 0u);
  EXPECT_EQ(mnk.leaf_value(a), 1);
  EXPECT_EQ(mnk.board_string(a), TicTacToeSource::board_string(b));
}

TEST(Mnk, KnownGameValues) {
  // Classic m,n,k results: (3,3,3) is a draw; k = 3 is a first-player win
  // once the board reaches 3x4 / 4x3 / 4x4; (2,2,2) is a trivial win
  // (any two squares of a 2x2 board are collinear).
  struct Case {
    unsigned w, h, k;
    Value value;
  };
  const Case cases[] = {
      {3, 3, 3, 0}, {4, 3, 3, 1}, {3, 4, 3, 1}, {4, 4, 3, 1}, {2, 2, 2, 1},
  };
  for (const auto& c : cases) {
    const MnkSource g(c.w, c.h, c.k);
    EXPECT_EQ(tt_alphabeta(g).value, c.value)
        << "(" << c.w << "," << c.h << "," << c.k << ")";
  }
}

TEST(Mnk, PlainSearchAgreesWithTtSearchOnSmallBoards) {
  for (const auto& [w, h, k] : {std::tuple<unsigned, unsigned, unsigned>{3, 3, 3},
                                {4, 2, 3},
                                {3, 3, 2},
                                {2, 2, 2}}) {
    const MnkSource g(w, h, k);
    const auto plain = run_n_sequential_ab(g);
    const auto tt = tt_alphabeta(g);
    EXPECT_EQ(plain.value, tt.value) << w << "x" << h << " k=" << k;
    EXPECT_LE(tt.nodes, plain.stats.work) << "transpositions must only help";
  }
}

TEST(Mnk, ParallelWidthsAgree) {
  const MnkSource g(4, 2, 3);
  const auto seq = run_n_sequential_ab(g);
  for (unsigned width : {1u, 2u}) {
    const auto par = run_n_parallel_ab(g, width);
    EXPECT_EQ(par.value, seq.value) << "width " << width;
    EXPECT_LE(par.stats.steps, seq.stats.steps);
  }
}

TEST(Mnk, TerminalDetectionAllDirections) {
  // Diagonal down-left win on a 3x3: X at squares 2,4,6.
  const MnkSource g(3, 3, 3);
  auto v = g.root();
  // X: sq2 (digit 2), O: sq0 (digit 0), X: sq4 (empties 1,3,4,..: digit 2),
  // O: sq1 (digit 0), X: sq6 (empties 3,5,6,..: digit 2).
  for (unsigned digit : {2u, 0u, 2u, 0u, 2u}) v = g.child(v, digit);
  EXPECT_EQ(g.board_string(v), "OOX.X.X..");
  EXPECT_EQ(g.num_children(v), 0u);
  EXPECT_EQ(g.leaf_value(v), 1);
}

TEST(Mnk, DrawWhenBoardFills) {
  const MnkSource g(2, 2, 2);
  // 2x2 k=2: X's second mark always wins, so play X:0, O:1, X:2 -> X wins
  // via column {0,2}. To reach a draw-by-fill we need a game without wins:
  // impossible on 2x2 k=2, so use 3x1 k=2 with blocking: X:1 center.
  const MnkSource line(3, 1, 2);
  auto v = line.root();
  v = line.child(v, 1);  // X center
  // O takes square 0 (digit 0), X takes square 2 -> X:{1,2} wins actually.
  // Instead: X:0 (digit 0), O:1 (digit 0), X:2 (digit 0): X {0,2} not
  // adjacent, O {1}: board full, draw.
  auto w = line.root();
  for (unsigned digit : {0u, 0u, 0u}) w = line.child(w, digit);
  EXPECT_EQ(line.board_string(w), "XOX");
  EXPECT_EQ(line.num_children(w), 0u);
  EXPECT_EQ(line.leaf_value(w), 0);
}

TEST(Drop, ConstructionValidation) {
  EXPECT_NO_THROW(DropSource(4, 4, 3));
  EXPECT_THROW(DropSource(5, 4, 3), std::invalid_argument);  // 20 squares
  EXPECT_THROW(DropSource(3, 3, 4), std::invalid_argument);
}

TEST(Drop, GravityPlacesPiecesBottomUp) {
  const DropSource g(3, 3, 3);
  auto v = g.root();
  // Drop three pieces into the leftmost column: rows fill bottom-up and
  // the board renders row 0 first.
  v = g.child(v, 0);  // X bottom-left
  EXPECT_EQ(g.board_string(v), "X........");
  v = g.child(v, 0);  // O stacks on top
  EXPECT_EQ(g.board_string(v), "X..O.....");
  v = g.child(v, 0);  // X on top of that
  EXPECT_EQ(g.board_string(v), "X..O..X..");
  // The leftmost column is now full: only two moves remain.
  EXPECT_EQ(g.num_children(v), 2u);
}

TEST(Drop, BranchingNeverExceedsColumns) {
  const DropSource g(4, 3, 3);
  EXPECT_EQ(g.num_children(g.root()), 4u);
}

TEST(Drop, VerticalWinDetected) {
  const DropSource g(3, 3, 3);
  auto v = g.root();
  // X stacks column 0 while O fills column 1: X0 O1 X0 O1 X0 -> X wins
  // vertically.
  for (unsigned digit : {0u, 1u, 0u, 1u, 0u}) v = g.child(v, digit);
  EXPECT_EQ(g.num_children(v), 0u);
  EXPECT_EQ(g.leaf_value(v), 1);
}

TEST(Drop, KnownSmallGameValues) {
  // Gravity tic-tac-toe (3,3,3) is a draw; Connect-4 on a 4x4 board is a
  // draw; 3-in-a-row drop games on wider boards are first-player wins.
  struct Case {
    unsigned w, h, k;
    Value value;
  };
  const Case cases[] = {{3, 3, 3, 0}, {4, 4, 4, 0}, {4, 4, 3, 1}, {4, 3, 3, 1}};
  for (const auto& c : cases) {
    const DropSource g(c.w, c.h, c.k);
    EXPECT_EQ(tt_alphabeta(g).value, c.value)
        << "drop(" << c.w << "," << c.h << "," << c.k << ")";
  }
}

TEST(Drop, AllEnginesAgree) {
  const DropSource g(4, 3, 3);
  const auto plain = run_n_sequential_ab(g);
  const auto tt = tt_alphabeta(g);
  EXPECT_EQ(plain.value, tt.value);
  EXPECT_LT(tt.nodes, plain.stats.work) << "drop games transpose heavily";
  for (unsigned w : {1u, 2u}) {
    EXPECT_EQ(run_n_parallel_ab(g, w).value, plain.value) << "width " << w;
  }
}


// ---------------------------------------------------------------------------
// state_key geometry salts. These are regression tests: the original keys
// salted only the square count (MnkSource) or the column count
// (DropSource), so sources of *different* games sharing one engine-owned
// transposition table could hash identical occupancy masks to equal keys
// and serve each other poisoned values.
// ---------------------------------------------------------------------------

/// Drive both games through the same move-digit sequence. On boards with
/// an equal square count the digits index the same empty-square lists, so
/// the resulting occupancy masks are bit-identical.
template <typename A, typename B>
std::pair<TreeSource::Node, TreeSource::Node> replay_both(
    const A& a, const B& b, std::initializer_list<unsigned> digits) {
  auto va = a.root();
  auto vb = b.root();
  for (const unsigned d : digits) {
    va = a.child(va, d);
    vb = b.child(vb, d);
  }
  return {va, vb};
}

TEST(Mnk, StateKeysSaltFullGeometryNotJustSquareCount) {
  // 4x4/k=4 and 2x8/k=2: same 16 squares, wildly different games. X on
  // squares {0, 1} is already a k=2 win on the two-column board and
  // nothing at all on the 4x4 board, so equal keys would be poison.
  const MnkSource wide(4, 4, 4);
  const MnkSource tall(2, 8, 2);
  const auto [va, vb] = replay_both(wide, tall, {0u, 8u, 0u});
  EXPECT_NE(wide.state_key(va), tall.state_key(vb))
      << "equal masks on equal-square boards must not collide";
  // Same geometry, different win condition: still different games.
  const MnkSource k3(4, 4, 3);
  const auto [vc, vd] = replay_both(wide, k3, {0u, 8u, 0u});
  EXPECT_NE(wide.state_key(vc), k3.state_key(vd));
  // Transposed boards with the same square count.
  const MnkSource a34(3, 4, 3);
  const MnkSource a43(4, 3, 3);
  const auto [ve, vf] = replay_both(a34, a43, {0u, 5u, 1u});
  EXPECT_NE(a34.state_key(ve), a43.state_key(vf));
}

TEST(Drop, StateKeysSaltFullGeometryNotJustColumns) {
  // Same columns, different rows: the masks of short games coincide.
  const DropSource tall(4, 4, 3);
  const DropSource flat(4, 3, 3);
  const auto [va, vb] = replay_both(tall, flat, {0u, 1u, 2u});
  EXPECT_NE(tall.state_key(va), flat.state_key(vb));
  // Same board, different win condition.
  const DropSource k4(4, 4, 4);
  const auto [vc, vd] = replay_both(tall, k4, {0u, 1u, 2u});
  EXPECT_NE(tall.state_key(vc), k4.state_key(vd));
}

TEST(Mnk, CrossFamilyKeysNeverAlias) {
  // An (m,n,k) game and a drop game on the same board produce the same
  // mask layout; the per-family tag must keep them apart. Drive each game
  // through moves reaching the same occupancy: Mnk digits pick squares
  // 0,1,2 of the bottom row; Drop digits pick columns 0,1,2 (all land on
  // the bottom row while it is empty).
  const MnkSource mnk(4, 4, 3);
  const DropSource drop(4, 4, 3);
  auto vm = mnk.root();
  auto vd = drop.root();
  for (const unsigned d : {0u, 0u, 0u}) vm = mnk.child(vm, d);
  for (const unsigned d : {0u, 1u, 2u}) vd = drop.child(vd, d);
  // vm: X@0, O@1, X@2; vd: X@0, O@1, X@2 -- identical masks.
  EXPECT_EQ(mnk.board_string(vm), drop.board_string(vd));
  EXPECT_NE(mnk.state_key(vm), drop.state_key(vd));
  // Tic-tac-toe and Mnk(3,3,3) are the SAME game; their keys still differ
  // by design (family tag) -- correctness only requires no false merges,
  // and the tag keeps the rule simple: different source family, never equal.
  const TicTacToeSource ttt;
  const MnkSource m33(3, 3, 3);
  EXPECT_NE(ttt.state_key(ttt.root()), m33.state_key(m33.root()));
}

TEST(Mnk, ConstructorRejectsOverflowingBoards) {
  // cols * rows wraps at 2^32: 2^16 x 2^16 multiplies to 0 and
  // 641 x 6700417 to 1, so a bare product check silently admits (and then
  // hangs materializing lines for) absurd boards.
  EXPECT_THROW(MnkSource(1u << 16, 1u << 16, 2), std::invalid_argument);
  EXPECT_THROW(MnkSource(641, 6700417, 2), std::invalid_argument);
  EXPECT_THROW(MnkSource(0, 5, 2), std::invalid_argument);
  EXPECT_THROW(MnkSource(5, 0, 2), std::invalid_argument);
  EXPECT_THROW(DropSource(1u << 16, 1u << 16, 2), std::invalid_argument);
  EXPECT_THROW(DropSource(641, 6700417, 2), std::invalid_argument);
  EXPECT_THROW(DropSource(0, 4, 2), std::invalid_argument);
}

TEST(Mnk, MoveLabelsNameTheChosenSquare) {
  const MnkSource g(3, 3, 3);
  auto v = g.root();
  EXPECT_EQ(g.move_label(v, 4), 4u);  // empty board: digit == square
  v = g.child(v, 4);                  // X takes the center
  // Digits now index the empty-square list with square 4 missing.
  EXPECT_EQ(g.move_label(v, 3), 3u);
  EXPECT_EQ(g.move_label(v, 4), 5u);
  const DropSource d(3, 3, 3);
  auto w = d.root();
  w = d.child(w, 1);
  EXPECT_EQ(d.move_label(w, 1), 1u);  // column identity, stable as it fills
  w = d.child(w, 1);
  EXPECT_EQ(d.move_label(w, 1), 1u);
}


// ---------------------------------------------------------------------------
// The position encoding against a move-list reference. A node stores its
// board (the two occupancy masks); the reference below instead keeps the
// move digits and replays them from the empty board, the way the sources
// once did, with its own win scan. Both must agree on every node near the
// root.
// ---------------------------------------------------------------------------

struct RefGame {
  unsigned cols, rows, k;
  bool gravity;  ///< drop game: a move names a column
};

struct RefMove {
  unsigned label;   ///< the square, or the column in a drop game
  unsigned square;  ///< where the mark lands
};

/// Legal moves in digit order: empty squares ascending, or non-full
/// columns ascending (the mark lands on the column's lowest empty row).
std::vector<RefMove> ref_moves(const RefGame& g, const std::string& b) {
  std::vector<RefMove> out;
  if (!g.gravity) {
    for (unsigned sq = 0; sq < b.size(); ++sq)
      if (b[sq] == '.') out.push_back({sq, sq});
    return out;
  }
  for (unsigned c = 0; c < g.cols; ++c) {
    for (unsigned r = 0; r < g.rows; ++r) {
      if (b[r * g.cols + c] == '.') {
        out.push_back({c, r * g.cols + c});
        break;
      }
    }
  }
  return out;
}

bool ref_wins(const RefGame& g, const std::string& b, char mark) {
  const int dirs[4][2] = {{1, 0}, {0, 1}, {1, 1}, {-1, 1}};
  for (int r = 0; r < int(g.rows); ++r) {
    for (int c = 0; c < int(g.cols); ++c) {
      for (const auto& d : dirs) {
        unsigned run = 0;
        for (int i = 0; i < int(g.k); ++i) {
          const int cc = c + d[0] * i, rr = r + d[1] * i;
          if (cc < 0 || cc >= int(g.cols) || rr < 0 || rr >= int(g.rows) ||
              b[unsigned(rr) * g.cols + unsigned(cc)] != mark)
            break;
          ++run;
        }
        if (run == g.k) return true;
      }
    }
  }
  return false;
}

/// Replay `digits` from the empty board.
std::string ref_replay(const RefGame& g, const std::vector<unsigned>& digits) {
  std::string b(g.cols * g.rows, '.');
  for (unsigned ply = 0; ply < digits.size(); ++ply)
    b[ref_moves(g, b).at(digits[ply]).square] = ply % 2 == 0 ? 'X' : 'O';
  return b;
}

/// Compare src against the reference on every node within `plies` of v,
/// reached by `digits`. Reports the first mismatch and returns false.
template <typename Source, typename BoardFn>
bool matches_reference(const Source& src, const RefGame& g, BoardFn board,
                       const TreeSource::Node& v, std::vector<unsigned>& digits,
                       unsigned plies) {
  const auto fail = [&](const char* what) {
    std::ostringstream where;
    for (const unsigned d : digits) where << ' ' << d;
    ADD_FAILURE() << what << " differs after digits" << where.str();
    return false;
  };
  const std::string b = ref_replay(g, digits);
  if (board(v) != b) return fail("board");
  if (v.depth != digits.size()) return fail("depth");
  const bool x_won = ref_wins(g, b, 'X'), o_won = ref_wins(g, b, 'O');
  const std::vector<RefMove> moves = ref_moves(g, b);
  const unsigned d = x_won || o_won ? 0 : unsigned(moves.size());
  if (src.num_children(v) != d) return fail("num_children");
  if (d == 0) {
    const Value want = x_won ? 1 : o_won ? -1 : 0;
    return src.leaf_value(v) == want || fail("leaf_value");
  }
  std::vector<std::uint64_t> labels(d);
  src.move_labels(v, d, labels.data());
  for (unsigned i = 0; i < d; ++i) {
    if (labels[i] != moves[i].label || src.move_label(v, i) != moves[i].label)
      return fail("move label");
  }
  if (plies == 0) return true;
  for (unsigned i = 0; i < d; ++i) {
    digits.push_back(i);
    const bool ok =
        matches_reference(src, g, board, src.child(v, i), digits, plies - 1);
    digits.pop_back();
    if (!ok) return false;
  }
  return true;
}

TEST(PositionEncoding, MatchesMoveListReplayWithinSixPlies) {
  std::vector<unsigned> digits;
  const DropSource drop(4, 3, 3);
  EXPECT_TRUE(matches_reference(
      drop, RefGame{4, 3, 3, true},
      [&](const TreeSource::Node& v) { return drop.board_string(v); },
      drop.root(), digits, 6));
  const MnkSource mnk(3, 3, 3);
  EXPECT_TRUE(matches_reference(
      mnk, RefGame{3, 3, 3, false},
      [&](const TreeSource::Node& v) { return mnk.board_string(v); },
      mnk.root(), digits, 6));
  const TicTacToeSource ttt;
  EXPECT_TRUE(matches_reference(ttt, RefGame{3, 3, 3, false},
                                TicTacToeSource::board_string, ttt.root(),
                                digits, 6));
}

TEST(PositionEncoding, TransposedMoveOrdersGiveEqualNodes) {
  // X col 0, O col 1, X col 2 in either order of X's drops.
  const DropSource drop(4, 3, 3);
  auto d1 = drop.root(), d2 = drop.root();
  for (const unsigned digit : {0u, 1u, 2u}) d1 = drop.child(d1, digit);
  for (const unsigned digit : {2u, 1u, 0u}) d2 = drop.child(d2, digit);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(drop.state_key(d1), drop.state_key(d2));
  // X on squares 0 and 2, O on square 1: digits {0,0,0} place X0 O1 X2;
  // digits {2,1,0} place X2, then O on the second empty square (1), then
  // X on the first (0).
  const MnkSource mnk(4, 4, 3);
  auto m1 = mnk.root(), m2 = mnk.root();
  for (const unsigned digit : {0u, 0u, 0u}) m1 = mnk.child(m1, digit);
  for (const unsigned digit : {2u, 1u, 0u}) m2 = mnk.child(m2, digit);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(mnk.state_key(m1), mnk.state_key(m2));
  EXPECT_EQ(mnk.board_string(m1), "XOX.............");
}

TEST(PositionEncoding, OutOfRangeChildThrows) {
  const MnkSource mnk(3, 3, 3);
  const auto v = mnk.child(mnk.root(), 4);  // 8 empty squares left
  EXPECT_NO_THROW(mnk.child(v, 7));
  EXPECT_THROW(mnk.child(v, 8), std::logic_error);
  EXPECT_THROW(mnk.move_label(v, 8), std::logic_error);
  const DropSource drop(3, 3, 3);
  auto w = drop.root();
  for (const unsigned digit : {0u, 0u, 0u}) w = drop.child(w, digit);
  // Column 0 is full: two columns remain open.
  EXPECT_NO_THROW(drop.child(w, 1));
  EXPECT_THROW(drop.child(w, 2), std::logic_error);
  EXPECT_THROW(drop.move_label(w, 2), std::logic_error);
}

TEST(PositionEncoding, StateKeysAreUnchanged) {
  // Keys recorded from the move-list encoding: a table persisted or shared
  // across builds must keep reading the same entries.
  auto at = [](const auto& src, std::initializer_list<unsigned> digits) {
    auto v = src.root();
    for (const unsigned d : digits) v = src.child(v, d);
    return src.state_key(v);
  };
  const TicTacToeSource ttt;
  EXPECT_EQ(at(ttt, {}), 0x152a6fac5752aafaull);
  EXPECT_EQ(at(ttt, {4, 0}), 0x140bf62eeb11822ull);
  EXPECT_EQ(at(MnkSource(3, 3, 3), {0, 2, 0}), 0x81bd87e5ea350c5full);
  EXPECT_EQ(at(MnkSource(4, 4, 3), {5, 3, 7, 1}), 0x60c73f4c340fe8b7ull);
  EXPECT_EQ(at(DropSource(4, 4, 4), {}), 0xc80f98ddd08f16eaull);
  EXPECT_EQ(at(DropSource(4, 4, 4), {1, 2, 1}), 0x4eaf824df04228a2ull);
  EXPECT_EQ(at(DropSource(4, 3, 3), {0, 0, 3, 1}), 0x9d82ad5b8a9cd574ull);
}

}  // namespace
}  // namespace gtpar
