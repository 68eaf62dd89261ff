// gtpar/games/mnk.hpp
//
// The (m,n,k)-game family as implicit game trees: an m x n board, players
// alternate placing marks, k in a row (horizontally, vertically or
// diagonally) wins. Tic-tac-toe is (3,3,3); small boards give a spectrum
// of realistic, transposition-rich search workloads with depths and
// branching factors between Nim and full tic-tac-toe.
//
// Boards are limited to at most 16 squares: a node is its board, the two
// occupancy masks packed into the path (games/board.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gtpar/expand/tree_source.hpp"

namespace gtpar {

class MnkSource final : public TreeSource {
 public:
  /// Board of `cols` x `rows`, win with `k` in a row. Requires
  /// 1 <= cols, rows and cols*rows <= 16 and k <= max(cols, rows);
  /// throws std::invalid_argument otherwise (each dimension is validated
  /// separately, so huge inputs cannot wrap the product past the check and
  /// overflow the 16-bit occupancy masks).
  MnkSource(unsigned cols, unsigned rows, unsigned k);

  unsigned num_children(const Node& v) const override;
  /// Marks the i-th empty square in ascending order; throws
  /// std::logic_error when i is not below the empty-square count.
  Node child(const Node& v, unsigned i) const override;
  Value leaf_value(const Node& v) const override;
  std::uint64_t state_key(const Node& v) const override;
  /// The chosen square (stable across positions, for history ordering).
  std::uint64_t move_label(const Node& v, unsigned i) const override;
  void move_labels(const Node& v, unsigned d,
                   std::uint64_t* out) const override;

  /// Board string (row-major, 'X'/'O'/'.') for display.
  std::string board_string(const Node& v) const;

  unsigned squares() const { return cols_ * rows_; }

 private:
  bool wins(std::uint32_t mask) const;
  std::uint32_t empty(const Node& v) const;

  unsigned cols_, rows_, k_;
  std::uint32_t all_squares_;
  std::uint64_t key_salt_;
  std::vector<std::uint32_t> lines_;
};

/// Connect-k with gravity ("drop" games, Connect Four's little siblings):
/// a move picks a non-full column and the piece falls to the lowest empty
/// row. Branching is at most `cols` (not the number of empty squares), so
/// these trees are narrower and deeper than the free-placement
/// (m,n,k)-games — a different search profile on the same boards.
/// Boards are limited to 16 squares and at most 8 columns.
class DropSource final : public TreeSource {
 public:
  /// Requires 1 <= cols <= 8, 1 <= rows, cols*rows <= 16 and
  /// k <= max(cols, rows); throws std::invalid_argument otherwise (each
  /// dimension is validated separately so huge inputs cannot wrap the
  /// product past the check and overflow the 16-bit occupancy masks).
  DropSource(unsigned cols, unsigned rows, unsigned k);

  unsigned num_children(const Node& v) const override;
  /// Drops into the i-th non-full column in ascending order; throws
  /// std::logic_error when i is not below the open-column count.
  Node child(const Node& v, unsigned i) const override;
  Value leaf_value(const Node& v) const override;
  std::uint64_t state_key(const Node& v) const override;
  /// The chosen column (stable across positions, for history ordering).
  std::uint64_t move_label(const Node& v, unsigned i) const override;
  void move_labels(const Node& v, unsigned d,
                   std::uint64_t* out) const override;

  std::string board_string(const Node& v) const;
  unsigned squares() const { return cols_ * rows_; }

 private:
  bool wins(std::uint32_t mask) const;
  /// Bit c is set iff column c has room. Gravity fills a column bottom-up,
  /// so it is full exactly when its top square is taken.
  std::uint32_t open_columns(const Node& v) const;

  unsigned cols_, rows_, k_;
  std::uint64_t key_salt_;
  std::vector<std::uint32_t> lines_;
  /// Squares of each column (bit c, c + cols, c + 2*cols, ...).
  std::vector<std::uint32_t> column_masks_;
};

}  // namespace gtpar
