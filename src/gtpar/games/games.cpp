#include "gtpar/games/games.hpp"

#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "gtpar/games/board.hpp"

namespace gtpar {

namespace {
constexpr std::uint32_t kAllSquares = 0x1FF;
}  // namespace

bool TicTacToeSource::wins(std::uint32_t m) {
  static constexpr std::array<std::uint32_t, 8> kLines{
      0b111000000, 0b000111000, 0b000000111,  // rows
      0b100100100, 0b010010010, 0b001001001,  // columns
      0b100010001, 0b001010100};              // diagonals
  for (const std::uint32_t line : kLines) {
    if ((m & line) == line) return true;
  }
  return false;
}

unsigned TicTacToeSource::num_children(const Node& v) const {
  if (wins(board::x_mask(v)) || wins(board::o_mask(v))) return 0;
  return static_cast<unsigned>(std::popcount(~board::occupied(v) & kAllSquares));
}

TreeSource::Node TicTacToeSource::child(const Node& v, unsigned i) const {
  return board::place(v, board::nth_set_bit(~board::occupied(v) & kAllSquares,
                                            i, "TicTacToeSource"));
}

Value TicTacToeSource::leaf_value(const Node& v) const {
  if (wins(board::x_mask(v))) return 1;
  if (wins(board::o_mask(v))) return -1;
  return 0;
}

std::string TicTacToeSource::board_string(const Node& v) {
  return board::render(v, 9);
}

std::uint64_t TicTacToeSource::state_key(const Node& v) const {
  // Salted with a family tag: this source may share an engine-owned
  // transposition table with other games whose keys are also derived from
  // occupancy masks (see MnkSource::state_key).
  return board::state_key(v, mix64(0x747474ull /*"ttt"*/));
}

std::uint64_t TicTacToeSource::move_label(const Node& v, unsigned i) const {
  return board::nth_set_bit(~board::occupied(v) & kAllSquares, i,
                            "TicTacToeSource");
}

void TicTacToeSource::move_labels(const Node& v, unsigned d,
                                  std::uint64_t* out) const {
  board::set_bits(~board::occupied(v) & kAllSquares, d, out);
}

std::uint64_t NimSource::state_key(const Node& v) const {
  // The take limit is part of the game identity: a (remaining, parity)
  // state has different subgame values under different max_take.
  return mix64((v.path << 1) | (v.depth & 1)) ^
         mix64(0x6e696dull /*"nim"*/ ^ (std::uint64_t{max_take_} << 24));
}

unsigned NimSource::remaining(const Node& v) const {
  return static_cast<unsigned>(v.path);
}

unsigned NimSource::num_children(const Node& v) const {
  const unsigned rem = remaining(v);
  return rem < max_take_ ? rem : max_take_;
}

Value NimSource::leaf_value(const Node& v) const {
  // remaining == 0; the player who moved at ply (depth-1) took the last
  // object and wins. MAX moves at even plies.
  if (v.depth == 0) throw std::logic_error("NimSource: empty game has no value");
  return (v.depth - 1) % 2 == 0 ? 1 : -1;
}

}  // namespace gtpar
