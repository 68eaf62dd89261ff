#include "gtpar/session/id_search.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>

#include "gtpar/engine/tt.hpp"

namespace gtpar {
namespace {

using Node = TreeSource::Node;
using Clock = std::chrono::steady_clock;

/// Domain tag folded into every table key: session entries share the
/// engine-owned table with the Mt cascades' node_key(fp, node) space, and
/// the two key families must not alias.
constexpr std::uint64_t kSessionTtTag = 0x1d5ea12c4ull;

/// Limit-poll granularity: cancel/deadline are checked once per this many
/// nodes, so a depth-1 search of a root with fewer children than this
/// always completes (GameSession relies on that to return a legal move).
constexpr std::uint64_t kStopCheckMask = 0x3FF;

/// Ordering scores: the hint (PV) move outranks killers, killers outrank
/// any history score.
constexpr std::uint64_t kHintScore = ~std::uint64_t{0};
constexpr std::uint64_t kKillerScore = std::uint64_t{1} << 62;

struct Searcher {
  const TreeSource& src;
  const IdRequest& idr;
  TranspositionTable* tt;
  IdOrdering* ord;
  IdStats stats;

  /// Per-iteration PV hint (the previous depth's PV once one completed).
  const std::vector<unsigned>* hint = nullptr;

  Clock::time_point deadline{};
  bool has_deadline = false;
  const std::atomic<bool>* cancel = nullptr;
  bool stopped = false;
  std::uint64_t checks = 0;

  struct Out {
    Value value = 0;
    bool exact = false;
  };

  bool should_stop() {
    if (stopped) return true;
    if ((++checks & kStopCheckMask) != 0) return false;
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      stopped = true;
    else if (has_deadline && Clock::now() >= deadline)
      stopped = true;
    return stopped;
  }

  std::uint64_t table_key(const Node& v) const {
    return mix64(src.state_key(v) ^ kSessionTtTag);
  }

  /// Scratch of one ply, reused by every node searched at that ply, so a
  /// node's search allocates nothing once the widest node and deepest ply
  /// have been seen.
  struct Ply {
    std::vector<std::uint64_t> labels;  ///< move_label of each child
    std::vector<std::uint64_t> score;   ///< ordering score of each child
    std::vector<unsigned> order;        ///< child indices in search order
    std::vector<unsigned> pv;           ///< best line found below the node
  };
  /// Indexed by ply and grown on demand, so any depth and any branching
  /// factor work. A deque: growing it keeps valid the references that
  /// the ancestors on the stack hold to their own plies.
  std::deque<Ply> plies{};

  Ply& ply_scratch(unsigned ply) {
    while (plies.size() <= ply) plies.emplace_back();
    return plies[ply];
  }

  /// Fill sc.order with v's child indices in search order: hint move
  /// first, then killers at this ply, then descending history score, then
  /// original order. `sc.labels[i]` must hold move_label(v, i) when
  /// ordering is on (fetched batched by the caller, which runs this on
  /// every interior node).
  void order_moves(Ply& sc, unsigned d, unsigned ply, int suggested,
                   bool use_ord) {
    sc.order.resize(d);
    std::iota(sc.order.begin(), sc.order.end(), 0u);
    if (!use_ord && suggested < 0) return;
    sc.score.assign(d, 0);
    for (unsigned i = 0; i < d; ++i) {
      if (static_cast<int>(i) == suggested) {
        sc.score[i] = kHintScore;
        continue;
      }
      if (!use_ord) continue;
      sc.score[i] = ord->is_killer(ply, sc.labels[i])
                        ? kKillerScore
                        : std::min(ord->history_score(sc.labels[i]),
                                   kKillerScore - 1);
    }
    // Equal scores keep child order: the order a stable sort gives, from
    // std::sort, which needs no temporary buffer.
    const std::uint64_t* score = sc.score.data();
    std::sort(sc.order.begin(), sc.order.end(), [score](unsigned a, unsigned b) {
      return score[a] != score[b] ? score[a] > score[b] : a < b;
    });
  }

  /// Fail-soft alpha-beta to `depth` remaining plies. `hint_idx` is this
  /// node's position along the PV hint (-1 once off the hinted line). The
  /// best line found below v is left in plies[ply].pv.
  Out search_node(const Node& v, unsigned depth, Value alpha, Value beta,
                  bool maxing, unsigned ply, int hint_idx) {
    ++stats.nodes;
    Ply& sc = ply_scratch(ply);
    sc.pv.clear();
    const unsigned d = src.num_children(v);
    if (d == 0) {
      ++stats.leaf_evaluations;
      return {src.leaf_value(v), true};
    }
    // The table holds only exact values, so a hit is usable at any depth
    // and under any window. Skipped at the root (the caller needs a move,
    // not just the value) and within 2 plies of the horizon: most visited
    // nodes sit there, their subtrees cost a few cheap expansions, and a
    // probe or store there is a random access to the shared table — the
    // table traffic would cost more than it saves.
    const bool want_tt = idr.use_tt && tt != nullptr && depth >= 2;
    std::uint64_t key = 0;
    bool have_key = false;
    if (want_tt && ply > 0) {
      key = table_key(v);
      have_key = true;
      ++stats.tt_probes;
      Value hit = 0;
      if (tt->probe(key, hit)) {
        ++stats.tt_hits;
        return {hit, true};
      }
    }
    if (depth == 0) {
      ++stats.heuristic_evaluations;
      return {idr.heuristic ? idr.heuristic(v) : Value{0}, false};
    }
    if (should_stop()) return {};

    int suggested = -1;
    if (hint != nullptr && hint_idx >= 0 &&
        static_cast<std::size_t>(hint_idx) < hint->size() &&
        (*hint)[static_cast<std::size_t>(hint_idx)] < d)
      suggested = static_cast<int>((*hint)[static_cast<std::size_t>(hint_idx)]);

    // Killer/history ordering costs a history lookup per move. Within 2
    // plies of the horizon a cutoff saves only a handful of leaf
    // expansions, less than the lookups cost, so ordering (like the table
    // above) starts at remaining depth 2.
    const bool use_ord = idr.use_ordering && ord != nullptr && depth >= 2;
    if (use_ord) {
      sc.labels.resize(d);
      src.move_labels(v, d, sc.labels.data());
    }
    order_moves(sc, d, ply, suggested, use_ord);

    const std::uint64_t nodes_before = stats.nodes;
    Value best = 0;
    bool have_best = false;
    bool all_exact = true;
    bool cutoff = false;
    bool forced = false;
    // Make this node's line the move to child i followed by the child's.
    const auto take_line = [&](unsigned i) {
      const std::vector<unsigned>& child_line = plies[ply + 1].pv;
      sc.pv.clear();
      sc.pv.push_back(i);
      sc.pv.insert(sc.pv.end(), child_line.begin(), child_line.end());
    };
    for (unsigned n = 0; n < d; ++n) {
      const unsigned i = sc.order[n];
      const int child_hint =
          (suggested >= 0 && i == static_cast<unsigned>(suggested))
              ? hint_idx + 1
              : -1;
      const Out o = search_node(src.child(v, i), depth - 1, alpha, beta,
                                !maxing, ply + 1, child_hint);
      if (stopped) return {};
      if (!o.exact) all_exact = false;
      if (!have_best || (maxing ? o.value > best : o.value < best)) {
        best = o.value;
        have_best = true;
        take_line(i);
      }
      if (idr.value_bound > 0 && o.exact &&
          (maxing ? o.value >= idr.value_bound
                  : o.value <= -idr.value_bound)) {
        // The mover has a proven line to the best value the game allows;
        // the remaining siblings cannot change the node value. Overwrite
        // `best` in case an earlier horizon estimate overshot the bound.
        best = o.value;
        take_line(i);
        forced = true;
        break;
      }
      if (maxing)
        alpha = std::max(alpha, best);
      else
        beta = std::min(beta, best);
      if (alpha >= beta) {
        cutoff = true;
        if (use_ord) ord->record_cutoff(ply, sc.labels[i], depth);
        break;
      }
    }
    // Exact iff every searched child was exact and none were skipped — a
    // cutoff leaves the value a bound — or a best-achievable line was
    // proven (which no unsearched sibling can beat).
    const bool exact = forced || (all_exact && !cutoff);
    if (exact && want_tt) {
      const std::uint64_t subtree = stats.nodes - nodes_before;
      tt->store(have_key ? key : table_key(v), best,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(subtree, 0xFFFFFFFFull)));
      ++stats.tt_stores;
    }
    return {best, exact};
  }
};

}  // namespace

IdResult id_search(const TreeSource& src, const IdRequest& idr,
                   TranspositionTable* tt, const SearchLimits& limits) {
  const Node root = idr.root_set ? idr.root : src.root();
  IdResult res;

  if (src.num_children(root) == 0) {
    res.value = src.leaf_value(root);
    res.exact = true;
    res.complete = true;
    res.stats.nodes = 1;
    res.stats.leaf_evaluations = 1;
    return res;
  }

  IdOrdering local_ord;
  Searcher s{src, idr, idr.use_tt ? tt : nullptr,
             idr.ordering != nullptr ? idr.ordering : &local_ord, IdStats{}};
  const auto start = Clock::now();
  if (limits.budget_ns != 0) {
    s.deadline = start + std::chrono::nanoseconds(limits.budget_ns);
    s.has_deadline = true;
  }
  s.cancel = limits.cancel;

  std::vector<unsigned> hint = idr.pv_hint;
  s.hint = &hint;
  Value prev = 0;
  for (unsigned depth = 1; depth <= idr.max_depth; ++depth) {
    // One root search over (alpha, beta). The per-node exactness tracking
    // is conservative (a cutoff makes a node's value a bound, unusable for
    // the table), but at the ROOT a stronger upgrade applies: if the
    // search never scored a horizon position and its value lies strictly
    // inside the window, it is the true alpha-beta value of the whole game
    // — deeper iterations would repeat it. This is what stops iterative
    // deepening once the game is out-searched.
    const auto run = [&](Value alpha, Value beta) {
      const std::uint64_t heur0 = s.stats.heuristic_evaluations;
      Searcher::Out o = s.search_node(root, depth, alpha, beta, idr.maxing, 0, 0);
      if (!s.stopped && !o.exact &&
          s.stats.heuristic_evaluations == heur0 && o.value > alpha &&
          o.value < beta)
        o.exact = true;
      return o;
    };
    Searcher::Out o{};
    const bool aspirate = idr.aspiration && res.complete &&
                          prev > kMinusInf + 1 && prev < kPlusInf - 1;
    if (aspirate) {
      o = run(prev - 1, prev + 1);
      if (!s.stopped && !o.exact && (o.value <= prev - 1 || o.value >= prev + 1)) {
        // Window miss: the fail-soft value is only a bound. The value
        // range of game trees is tiny, so re-search full-width at once
        // instead of widening gradually.
        ++s.stats.aspiration_researches;
        o = run(kMinusInf, kPlusInf);
      }
    } else {
      o = run(kMinusInf, kPlusInf);
    }
    if (s.stopped) break;  // discard the partial depth; keep the last one
    ++s.stats.depths_completed;
    res.value = o.value;
    res.exact = o.exact;
    res.depth_completed = depth;
    res.complete = true;
    res.pv = s.plies[0].pv;
    res.best_move = res.pv.empty() ? 0 : res.pv.front();
    prev = res.value;
    hint = res.pv;  // deepen along the freshest PV
    if (res.exact) break;  // proven: deeper search cannot change it
    // Depth d+1 typically costs more than everything so far; if less than
    // half the budget remains, the next iteration would be wasted work.
    const auto now = Clock::now();
    if (s.has_deadline && now + (now - start) >= s.deadline) break;
  }
  res.stats = s.stats;
  return res;
}

}  // namespace gtpar
