#include "gtpar/games/mnk.hpp"

#include <bit>
#include <stdexcept>

#include "gtpar/games/board.hpp"

namespace gtpar {
namespace {

/// Every k-in-a-row line on a cols x rows board, as square bitmasks.
std::vector<std::uint32_t> make_lines(unsigned cols, unsigned rows, unsigned k) {
  std::vector<std::uint32_t> lines;
  auto bit = [&](unsigned c, unsigned r) { return 1u << (r * cols + c); };
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      // Four directions: right, down, down-right, down-left.
      const int dirs[4][2] = {{1, 0}, {0, 1}, {1, 1}, {-1, 1}};
      for (const auto& d : dirs) {
        const int ec = int(c) + d[0] * int(k - 1);
        const int er = int(r) + d[1] * int(k - 1);
        if (ec < 0 || ec >= int(cols) || er < 0 || er >= int(rows)) continue;
        std::uint32_t line = 0;
        for (unsigned i = 0; i < k; ++i)
          line |= bit(unsigned(int(c) + d[0] * int(i)), unsigned(int(r) + d[1] * int(i)));
        lines.push_back(line);
      }
    }
  }
  return lines;
}

/// Game-identity salt folded into every state_key. Two sources may share
/// one engine-owned transposition table, so identical occupancy masks on
/// different game configurations (a 4x4/k=4 board and a 2x8/k=2 board, a
/// k=3 and a k=4 drop game on the same board) must never hash equal: the
/// full geometry — cols, rows AND k — goes into the salt, plus a per-family
/// tag so an (m,n,k)-game never aliases a drop game on the same board.
std::uint64_t geometry_salt(std::uint64_t family_tag, unsigned cols,
                            unsigned rows, unsigned k) {
  return mix64(family_tag ^ (std::uint64_t{cols} << 40) ^
               (std::uint64_t{rows} << 20) ^ k);
}

/// Shared constructor validation. The product check alone is not enough:
/// cols*rows wraps at 2^32 (e.g. 2^16 x 2^16 multiplies to 0), silently
/// admitting boards whose squares overflow the 16-bit occupancy masks.
/// Bounding each dimension first makes the product overflow-free.
void validate_board(const char* who, unsigned cols, unsigned rows, unsigned k) {
  if (cols == 0 || rows == 0)
    throw std::invalid_argument(std::string(who) + ": empty board");
  if (cols > 16 || rows > 16 || cols * rows > 16)
    throw std::invalid_argument(std::string(who) +
                                ": at most 16 squares supported");
  if (k == 0 || (k > cols && k > rows))
    throw std::invalid_argument(std::string(who) + ": impossible k");
}

}  // namespace

MnkSource::MnkSource(unsigned cols, unsigned rows, unsigned k)
    : cols_(cols), rows_(rows), k_(k),
      key_salt_(geometry_salt(0x6d6e6bull /*"mnk"*/, cols, rows, k)) {
  validate_board("MnkSource", cols_, rows_, k_);
  all_squares_ = (1u << squares()) - 1;
  lines_ = make_lines(cols_, rows_, k_);
}

bool MnkSource::wins(std::uint32_t mask) const {
  for (const std::uint32_t line : lines_) {
    if ((mask & line) == line) return true;
  }
  return false;
}

std::uint32_t MnkSource::empty(const Node& v) const {
  return ~board::occupied(v) & all_squares_;
}

unsigned MnkSource::num_children(const Node& v) const {
  if (wins(board::x_mask(v)) || wins(board::o_mask(v))) return 0;
  return static_cast<unsigned>(std::popcount(empty(v)));
}

TreeSource::Node MnkSource::child(const Node& v, unsigned i) const {
  return board::place(v, board::nth_set_bit(empty(v), i, "MnkSource"));
}

Value MnkSource::leaf_value(const Node& v) const {
  if (wins(board::x_mask(v))) return 1;
  if (wins(board::o_mask(v))) return -1;
  return 0;
}

std::uint64_t MnkSource::state_key(const Node& v) const {
  return board::state_key(v, key_salt_);
}

std::uint64_t MnkSource::move_label(const Node& v, unsigned i) const {
  return board::nth_set_bit(empty(v), i, "MnkSource");
}

void MnkSource::move_labels(const Node& v, unsigned d,
                            std::uint64_t* out) const {
  board::set_bits(empty(v), d, out);
}

std::string MnkSource::board_string(const Node& v) const {
  return board::render(v, squares());
}

// ---------------------------------------------------------------------------
// DropSource
// ---------------------------------------------------------------------------

DropSource::DropSource(unsigned cols, unsigned rows, unsigned k)
    : cols_(cols), rows_(rows), k_(k),
      key_salt_(geometry_salt(0x64726f70ull /*"drop"*/, cols, rows, k)) {
  validate_board("DropSource", cols_, rows_, k_);
  if (cols_ > 8) throw std::invalid_argument("DropSource: at most 8 columns");
  lines_ = make_lines(cols_, rows_, k_);
  column_masks_.assign(cols_, 0);
  for (unsigned c = 0; c < cols_; ++c)
    for (unsigned r = 0; r < rows_; ++r) column_masks_[c] |= 1u << (r * cols_ + c);
}

bool DropSource::wins(std::uint32_t m) const {
  for (const std::uint32_t line : lines_) {
    if ((m & line) == line) return true;
  }
  return false;
}

std::uint32_t DropSource::open_columns(const Node& v) const {
  const std::uint32_t top_row_empty =
      ~board::occupied(v) >> ((rows_ - 1) * cols_);
  return top_row_empty & ((1u << cols_) - 1);
}

unsigned DropSource::num_children(const Node& v) const {
  if (wins(board::x_mask(v)) || wins(board::o_mask(v))) return 0;
  return static_cast<unsigned>(std::popcount(open_columns(v)));
}

TreeSource::Node DropSource::child(const Node& v, unsigned i) const {
  const unsigned c = board::nth_set_bit(open_columns(v), i, "DropSource");
  // The piece lands on the column's lowest empty square (row 0 is the
  // bottom).
  const std::uint32_t free_in_column = ~board::occupied(v) & column_masks_[c];
  return board::place(v, static_cast<unsigned>(std::countr_zero(free_in_column)));
}

Value DropSource::leaf_value(const Node& v) const {
  if (wins(board::x_mask(v))) return 1;
  if (wins(board::o_mask(v))) return -1;
  return 0;
}

std::uint64_t DropSource::state_key(const Node& v) const {
  return board::state_key(v, key_salt_);
}

std::uint64_t DropSource::move_label(const Node& v, unsigned i) const {
  return board::nth_set_bit(open_columns(v), i, "DropSource");
}

void DropSource::move_labels(const Node& v, unsigned d,
                             std::uint64_t* out) const {
  board::set_bits(open_columns(v), d, out);
}

std::string DropSource::board_string(const Node& v) const {
  return board::render(v, squares());
}

}  // namespace gtpar
