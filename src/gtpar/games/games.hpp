// gtpar/games/games.hpp
//
// Real games as implicit game trees (TreeSource), exercising the
// node-expansion algorithms on the kind of non-uniform trees the paper's
// introduction motivates. Both games have known game-theoretic values,
// which the tests use as oracles:
//   - Tic-tac-toe: the 3x3 game is a draw (value 0).
//   - Nim(s, k) under normal play: the first player wins iff s % (k+1) != 0.
#pragma once

#include <cstdint>
#include <string>

#include "gtpar/expand/tree_source.hpp"

namespace gtpar {

/// Full game tree of 3x3 tic-tac-toe. The MAX player (X) moves first;
/// leaves score +1 (X wins), -1 (O wins) or 0 (draw). Child i of a node
/// marks the i-th empty square in ascending order. A node is its board
/// (games/board.hpp: the two occupancy masks in the path, the ply in the
/// depth), so every query reads the masks and transposed move orders give
/// equal Nodes.
class TicTacToeSource final : public TreeSource {
 public:
  unsigned num_children(const Node& v) const override;
  /// Throws std::logic_error when i is not below the empty-square count.
  Node child(const Node& v, unsigned i) const override;
  Value leaf_value(const Node& v) const override;

  /// The board at `v` (for display): a 9-char string of 'X', 'O' and '.'.
  static std::string board_string(const Node& v);

  /// Transposition key: the board itself (side to move is implied by the
  /// piece count).
  std::uint64_t state_key(const Node& v) const override;

  /// The chosen square (stable across positions, for history ordering).
  std::uint64_t move_label(const Node& v, unsigned i) const override;
  void move_labels(const Node& v, unsigned d,
                   std::uint64_t* out) const override;

 private:
  static bool wins(std::uint32_t mask);
};

/// Single-heap Nim under normal play (the player who takes the last object
/// wins). MAX moves first; each move removes 1..max_take objects. Leaves
/// score +1 if MAX took the last object, else -1.
///
/// Node paths store the number of objects remaining (the whole state, up
/// to side-to-move parity carried by the depth), so arbitrarily large
/// heaps are representable. Note that distinct move sequences reaching the
/// same (remaining, parity) share a Node value — the expansion simulators
/// key their bookkeeping on their own generated-node ids, so this is fine,
/// and it makes state_key trivial.
class NimSource final : public TreeSource {
 public:
  NimSource(unsigned start, unsigned max_take) : start_(start), max_take_(max_take) {}

  Node root() const override { return Node{start_, 0}; }
  unsigned num_children(const Node& v) const override;
  Node child(const Node& v, unsigned i) const override {
    return Node{v.path - (i + 1), v.depth + 1};
  }
  Value leaf_value(const Node& v) const override;

  /// Game-theoretic value of Nim(start, max_take): +1 iff start % (k+1) != 0.
  static Value theoretical_value(unsigned start, unsigned max_take) {
    return start % (max_take + 1) != 0 ? 1 : -1;
  }

  /// Transposition key: (objects remaining, side to move), salted with
  /// max_take — the subgame value of a (remaining, parity) state depends on
  /// the take limit, so Nim(·, 2) and Nim(·, 3) sharing one engine-owned
  /// transposition table must never produce equal keys. This collapses
  /// the exponential move-sequence tree to O(start) distinct states, which
  /// is what makes transposition-table search solve huge heaps instantly.
  std::uint64_t state_key(const Node& v) const override;

  /// The number of objects taken (stable across positions).
  std::uint64_t move_label(const Node&, unsigned i) const override {
    return i + 1;
  }

 private:
  /// Objects remaining after the move sequence encoded in the path.
  unsigned remaining(const Node& v) const;

  unsigned start_, max_take_;
};

}  // namespace gtpar
