// gtpar/games/board.hpp
//
// The position encoding shared by the mark-placing games (tic-tac-toe, the
// (m,n,k)-games and the drop games): a Node *is* its board. `path` holds
// the two occupancy masks, X's squares in bits 0-15 and O's in bits 16-31
// (boards have at most 16 squares), and `depth` is the ply, so X (the MAX
// player) is to move at even depth. Expanding a node reads or sets a few
// bits, at a cost independent of the game's history — one unit of work
// per expansion, as the node-expansion model (Section 5) charges. Distinct
// move orders reaching the same board give equal Nodes, as in NimSource
// and ChompSource.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "gtpar/common.hpp"
#include "gtpar/expand/tree_source.hpp"

namespace gtpar::board {

using Node = TreeSource::Node;

inline std::uint32_t x_mask(const Node& v) {
  return static_cast<std::uint32_t>(v.path) & 0xFFFFu;
}
inline std::uint32_t o_mask(const Node& v) {
  return static_cast<std::uint32_t>(v.path >> 16) & 0xFFFFu;
}
inline std::uint32_t occupied(const Node& v) { return x_mask(v) | o_mask(v); }

/// The node reached when the side to move at v marks `square`.
inline Node place(const Node& v, unsigned square) {
  const unsigned shift = v.depth % 2 == 0 ? 0 : 16;
  return Node{v.path | (std::uint64_t{1} << (square + shift)), v.depth + 1};
}

/// Index of the i-th lowest set bit of `mask`: the square (or column) that
/// move digit i names. Throws std::logic_error when mask has at most i set
/// bits — an out-of-range child index.
inline unsigned nth_set_bit(std::uint32_t mask, unsigned i, const char* who) {
  if (i >= static_cast<unsigned>(std::popcount(mask)))
    throw std::logic_error(std::string(who) + ": bad move digit");
  for (; i > 0; --i) mask &= mask - 1;
  return static_cast<unsigned>(std::countr_zero(mask));
}

/// Write the indices of mask's lowest d set bits, ascending, to out.
inline void set_bits(std::uint32_t mask, unsigned d, std::uint64_t* out) {
  for (unsigned n = 0; n < d && mask != 0; ++n, mask &= mask - 1)
    out[n] = static_cast<unsigned>(std::countr_zero(mask));
}

/// Transposition key of the board, XOR'd with the game's identity salt.
inline std::uint64_t state_key(const Node& v, std::uint64_t salt) {
  return mix64((std::uint64_t{x_mask(v)} << 16) | o_mask(v)) ^ salt;
}

/// Row-major board string of 'X', 'O' and '.'.
inline std::string render(const Node& v, unsigned squares) {
  std::string out(squares, '.');
  for (unsigned sq = 0; sq < squares; ++sq) {
    if (x_mask(v) & (1u << sq)) out[sq] = 'X';
    else if (o_mask(v) & (1u << sq)) out[sq] = 'O';
  }
  return out;
}

}  // namespace gtpar::board
