// gtpar/games/chomp.hpp
//
// Chomp: a cols x rows chocolate bar with a poisoned bottom-left square.
// Players alternate picking a remaining square and eating it together with
// every square above and to the right; whoever is left with only the
// poisoned square must eat it and loses. By the classic strategy-stealing
// argument the first player wins every board larger than 1x1, which gives
// the tests an oracle without solving the game by hand.
//
// As in every bundled game source, a node's path stores the *state* itself
// — here the column heights, 4 bits per column (the staircase invariant:
// heights are non-increasing left to right). Distinct move orders reaching
// the same bar share a Node, like NimSource; depth
// carries side-to-move parity. One chomp move can eat many squares, so
// parity is NOT derivable from the heights and must ride in the key.
#pragma once

#include <cstdint>
#include <string>

#include "gtpar/expand/tree_source.hpp"

namespace gtpar {

class ChompSource final : public TreeSource {
 public:
  /// Requires 1 <= cols <= 16 and 1 <= rows <= 15 (heights pack into 4-bit
  /// digits of the 64-bit path); throws std::invalid_argument otherwise.
  ChompSource(unsigned cols, unsigned rows);

  Node root() const override;
  unsigned num_children(const Node& v) const override;
  Node child(const Node& v, unsigned i) const override;
  Value leaf_value(const Node& v) const override;
  std::uint64_t state_key(const Node& v) const override;
  /// The chosen square, packed as col * 16 + row (stable across positions).
  std::uint64_t move_label(const Node& v, unsigned i) const override;

  /// Strategy stealing: the first player wins every board with more than
  /// one square (if the second player had a winning reply to eating the
  /// top-right square, the first player could have played the composition
  /// of both moves instead).
  static Value theoretical_value(unsigned cols, unsigned rows) {
    return cols * rows > 1 ? 1 : -1;
  }

  /// Row-major board string ('#' remaining, '.' eaten, 'P' poison) for
  /// display, top row first.
  std::string board_string(const Node& v) const;

  unsigned cols() const { return cols_; }
  unsigned rows() const { return rows_; }

 private:
  unsigned height(std::uint64_t heights, unsigned c) const {
    return static_cast<unsigned>(heights >> (4 * c)) & 0xF;
  }
  /// Remaining squares (poison included).
  unsigned remaining(std::uint64_t heights) const;
  /// The i-th legal move in (col, row) lexicographic order; the poison
  /// square (0,0) is never a legal move. Throws on an out-of-range index.
  void nth_move(std::uint64_t heights, unsigned i, unsigned& c, unsigned& r) const;

  unsigned cols_, rows_;
};

}  // namespace gtpar
