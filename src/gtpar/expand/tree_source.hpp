// gtpar/expand/tree_source.hpp
//
// Implicit trees for the node-expansion model (Sections 1 and 5). The
// algorithm is given only the root; applying the node-expansion operation
// to a node either evaluates it (if it is a leaf) or produces its children.
// A TreeSource is the oracle behind that operation: it describes the tree
// without materializing it.
//
// Node identity is a (path, depth) pair; how `path` encodes the position is
// up to each source (uniform sources use base-d digits, the explicit-tree
// adapter uses arena ids, game sources store the game state itself, e.g.
// the occupancy masks of a board). Identities must be stable: the same
// child always gets the same Node. Distinct nodes may share a Node when
// they denote the same state (transposed move orders in the game sources):
// the expansion simulators key their bookkeeping on their own node ids.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "gtpar/common.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {

/// Oracle describing an implicit tree.
class TreeSource {
 public:
  /// Position of a node inside the implicit tree.
  struct Node {
    std::uint64_t path = 0;
    std::uint32_t depth = 0;
    friend bool operator==(const Node&, const Node&) = default;
  };

  virtual ~TreeSource() = default;

  /// The root position.
  virtual Node root() const { return Node{}; }

  /// Number of children of v; 0 means v is a leaf.
  virtual unsigned num_children(const Node& v) const = 0;

  /// i-th child of v (i < num_children(v)).
  virtual Node child(const Node& v, unsigned i) const = 0;

  /// Value of the leaf v (num_children(v) == 0).
  virtual Value leaf_value(const Node& v) const = 0;

  /// Canonical key of the *game state* at v. Two nodes with equal keys must
  /// denote positions with identical subgame values. The default key is the
  /// node identity (no transpositions); game sources whose move-sequence
  /// trees transpose (e.g. tic-tac-toe, Nim) override this so that
  /// transposition-table searches (ab/tt_search.hpp, session/id_search.hpp)
  /// can merge them. Overrides must fold the *full* game configuration into
  /// the key (board geometry, win condition, move rules): sources of
  /// different games may share one engine-owned table, and a key collision
  /// between them serves poisoned values across games.
  virtual std::uint64_t state_key(const Node& v) const {
    return hash_combine(v.path, v.depth);
  }

  /// Stable identity of the move leading to child i of v, for
  /// cross-position move-ordering statistics (the killer/history tables of
  /// session/id_search.hpp). Two moves with equal labels should denote
  /// "the same move" in different positions — the chosen square in
  /// placement games, the column in drop games, the take count in Nim.
  /// The default (the child index) is only stable per position, which
  /// makes history ordering a no-op but never unsound.
  virtual std::uint64_t move_label(const Node& v, unsigned i) const {
    (void)v;
    return i;
  }

  /// Batched move_label: fill out[0..d) with the labels of all d =
  /// num_children(v) moves at v. The default loops move_label; sources
  /// that can list every label in one pass over the position (the board
  /// games walk the set bits of one mask) override this — the
  /// move-ordering search calls it on every interior node.
  virtual void move_labels(const Node& v, unsigned d,
                           std::uint64_t* out) const {
    for (unsigned i = 0; i < d; ++i) out[i] = move_label(v, i);
  }
};

/// Implicit uniform d-ary tree of height n. Node paths are level indices:
/// child i of a node with path p has path p*d + i, so a depth-n node's path
/// is its leaf index. Requires d^n to fit in 64 bits.
class UniformSource final : public TreeSource {
 public:
  /// leaf_fn maps the left-to-right leaf index to its value.
  UniformSource(unsigned d, unsigned n, std::function<Value(std::uint64_t)> leaf_fn);

  unsigned num_children(const Node& v) const override {
    return v.depth == n_ ? 0 : d_;
  }
  Node child(const Node& v, unsigned i) const override {
    return Node{v.path * d_ + i, v.depth + 1};
  }
  Value leaf_value(const Node& v) const override { return leaf_fn_(v.path); }

  unsigned branching() const { return d_; }
  unsigned height() const { return n_; }

 private:
  unsigned d_, n_;
  std::function<Value(std::uint64_t)> leaf_fn_;
};

/// Uniform NOR source with i.i.d. Bernoulli(p_one) leaves (deterministic in
/// the seed).
UniformSource make_iid_nor_source(unsigned d, unsigned n, double p_one,
                                  std::uint64_t seed);

/// Uniform MIN/MAX source with i.i.d. uniform leaves in [lo, hi].
UniformSource make_iid_minimax_source(unsigned d, unsigned n, Value lo, Value hi,
                                      std::uint64_t seed);

/// Implicit form of the all-leaves-evaluated worst case of
/// make_worst_case_nor: the target value of a node is computable from its
/// path digits alone (a 1-target node is always the last child of a
/// 0-target node).
class WorstCaseNorSource final : public TreeSource {
 public:
  WorstCaseNorSource(unsigned d, unsigned n, bool root_value)
      : d_(d), n_(n), root_value_(root_value) {}

  unsigned num_children(const Node& v) const override {
    return v.depth == n_ ? 0 : d_;
  }
  Node child(const Node& v, unsigned i) const override {
    return Node{v.path * d_ + i, v.depth + 1};
  }
  Value leaf_value(const Node& v) const override;

 private:
  unsigned d_, n_;
  bool root_value_;
};

/// Adapter exposing an explicit Tree as a TreeSource (paths are NodeIds).
/// Lets every node-expansion algorithm run on explicit workloads, which the
/// tests exploit to cross-check the two models.
class ExplicitTreeSource final : public TreeSource {
 public:
  explicit ExplicitTreeSource(const Tree& t) : t_(&t) {}

  Node root() const override { return Node{t_->root(), 0}; }
  unsigned num_children(const Node& v) const override {
    return static_cast<unsigned>(t_->num_children(static_cast<NodeId>(v.path)));
  }
  Node child(const Node& v, unsigned i) const override {
    return Node{t_->child(static_cast<NodeId>(v.path), i), v.depth + 1};
  }
  Value leaf_value(const Node& v) const override {
    return t_->leaf_value(static_cast<NodeId>(v.path));
  }
  /// Keyed on the tree's content fingerprint + node id, NOT the default
  /// node identity: arena ids are the same small dense integers in every
  /// tree, and sources over *different* trees may share one engine-owned
  /// transposition table. Structurally identical trees (equal
  /// fingerprints) still share entries, matching the Mt cascades'
  /// TranspositionTable::node_key convention.
  std::uint64_t state_key(const Node& v) const override {
    return hash_combine(t_->fingerprint(), v.path);
  }

 private:
  const Tree* t_;
};

/// Materialize an implicit tree into an explicit arena Tree (for testing
/// and for running leaf-evaluation algorithms on the same workload).
/// Throws if the expansion exceeds `max_nodes`.
Tree materialize(const TreeSource& src, std::size_t max_nodes = 1u << 26);

}  // namespace gtpar
