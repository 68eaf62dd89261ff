// bench_gameplay — what game-play sessions buy over stateless per-move
// search (docs/SESSIONS.md).
//
// Two experiments:
//
//  1. Fixed strength (exact play, unlimited budget): self-play every
//     bundled game to completion twice — once through a full-strength
//     GameSession (shared TT + PV reuse + killer/history ordering +
//     aspiration windows) and once with every reuse mechanism ablated,
//     i.e. a from-scratch iterative-deepening search per move. Both play
//     perfectly; the session proves each move with fewer node expansions,
//     and the headline is moves/sec at that fixed (perfect) strength.
//
//  2. Fixed time (wall-clock, not gated): on a board too large to solve
//     within the budget, play both variants with the same per-move
//     wall-clock budget and compare the depth reached per move — depth at
//     equal time is the strength proxy (deeper completed iterations =
//     stronger play). Its counts move with the host's speed and load and
//     with the cost per node, so --check never reads them; the JSON marks
//     each row "gated": false.
//
// Flags:  --json PATH   write results as JSON (default BENCH_gameplay.json)
//         --check       exit non-zero if either variant misplays a solved
//                       game or the session fails to beat the from-scratch
//                       baseline on total node expansions (CI smoke gate)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/games/chomp.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"
#include "gtpar/session/session.hpp"

namespace gtpar {
namespace {

using bench::fmt;
using Clock = std::chrono::steady_clock;

SessionOptions scratch_options() {
  SessionOptions o;
  o.use_tt = false;
  o.aspiration = false;
  o.ordering = false;
  o.reuse_pv = false;
  return o;
}

struct GameCase {
  const char* name;
  const TreeSource* src;
  Value theory;
};

/// One full self-played game; both sides move through the same session.
struct PlayOut {
  unsigned moves = 0;
  std::uint64_t nodes = 0;
  std::uint64_t tt_hits = 0;
  std::uint64_t wall_ns = 0;
  double mean_depth = 0;
  unsigned exact_moves = 0;
  Value result = 0;
};

PlayOut self_play(const TreeSource& src, const SessionOptions& opt,
                  std::uint64_t budget_ns) {
  // A fresh engine per run: the experiment measures what ONE session
  // carries across ITS moves, so table state must not leak between runs.
  Engine eng(Engine::Options{.workers = 4});
  GameSession s(eng, src, opt);
  PlayOut out;
  std::uint64_t depth_sum = 0;
  const auto start = Clock::now();
  while (!s.game_over()) {
    const MoveSuggestion m = s.SuggestMove(s.to_move(), budget_ns);
    s.Play(m.move);
    ++out.moves;
    out.nodes += m.stats.nodes;
    out.tt_hits += m.stats.tt_hits;
    depth_sum += m.depth;
    if (m.exact) ++out.exact_moves;
  }
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
  out.mean_depth = out.moves ? double(depth_sum) / double(out.moves) : 0.0;
  out.result = s.game_result();
  return out;
}

struct FixedStrengthRow {
  const char* game;
  Value theory;
  PlayOut reuse, scratch;
};

struct FixedTimeRow {
  std::uint64_t budget_ms;
  unsigned positions = 0;
  /// Positions proven to their exact game value within the budget — the
  /// strength headline (an exact move is perfect play at that position).
  unsigned reuse_solved = 0, scratch_solved = 0;
  /// Completed depth averaged over positions NEITHER variant solved:
  /// exact solves stop iterative deepening early, so depth across all
  /// positions would punish the variant that solves more of them.
  unsigned unsolved_positions = 0;
  double reuse_mean_depth = 0, scratch_mean_depth = 0;
  std::uint64_t reuse_nodes = 0, scratch_nodes = 0;
};

/// Strength at fixed time, compared at IDENTICAL positions: a session
/// plays the game under a per-move budget; before each of its moves, a
/// cold from-scratch searcher (fresh engine, every reuse mechanism off)
/// searches the SAME position with the SAME budget.
FixedTimeRow fixed_time(const TreeSource& src, std::uint64_t budget_ms) {
  FixedTimeRow row{budget_ms};
  Engine eng(Engine::Options{.workers = 4});
  GameSession s(eng, src);
  std::vector<unsigned> played;
  std::uint64_t reuse_depth = 0, scratch_depth = 0;
  while (!s.game_over()) {
    Engine cold(Engine::Options{.workers = 4});
    GameSession probe(cold, src, scratch_options());
    for (const unsigned m : played) probe.Play(m);
    const MoveSuggestion cs = probe.SuggestMove(probe.to_move(),
                                                budget_ms * 1'000'000);
    const MoveSuggestion ms = s.SuggestMove(s.to_move(), budget_ms * 1'000'000);
    ++row.positions;
    if (ms.exact) ++row.reuse_solved;
    if (cs.exact) ++row.scratch_solved;
    if (!ms.exact && !cs.exact) {
      ++row.unsolved_positions;
      reuse_depth += ms.depth;
      scratch_depth += cs.depth;
    }
    row.reuse_nodes += ms.stats.nodes;
    row.scratch_nodes += cs.stats.nodes;
    s.Play(ms.move);
    played.push_back(ms.move);
  }
  if (row.unsolved_positions) {
    row.reuse_mean_depth = double(reuse_depth) / double(row.unsolved_positions);
    row.scratch_mean_depth =
        double(scratch_depth) / double(row.unsolved_positions);
  }
  return row;
}

void write_json(const char* path, const std::vector<FixedStrengthRow>& solved,
                const std::vector<FixedTimeRow>& timed, double moves_per_sec,
                double node_reduction) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_gameplay: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"gameplay_sessions\",\n");
  std::fprintf(f,
               "  \"workload\": {\"mode\": \"self-play\", \"variants\": "
               "[\"session-reuse\", \"from-scratch\"], \"workers\": 4},\n");
  std::fprintf(f, "  \"headline\": {\n");
  std::fprintf(f, "    \"moves_per_sec_at_perfect_strength\": %.1f,\n",
               moves_per_sec);
  // The fixed-time counts stay out of the headline: they are wall-clock
  // and not gated (see the "fixed_time" rows).
  std::fprintf(f, "    \"reuse_node_reduction_vs_from_scratch\": %.3f\n",
               node_reduction);
  std::fprintf(f, "  },\n  \"fixed_strength\": [\n");
  for (std::size_t i = 0; i < solved.size(); ++i) {
    const auto& r = solved[i];
    std::fprintf(
        f,
        "    {\"game\": \"%s\", \"theory\": %d, \"result\": %d, \"moves\": %u, "
        "\"reuse_nodes\": %llu, \"scratch_nodes\": %llu, \"reduction\": %.3f, "
        "\"reuse_tt_hits\": %llu, \"reuse_wall_ns\": %llu, "
        "\"scratch_wall_ns\": %llu}%s\n",
        r.game, r.theory, r.reuse.result, r.reuse.moves,
        static_cast<unsigned long long>(r.reuse.nodes),
        static_cast<unsigned long long>(r.scratch.nodes),
        r.reuse.nodes ? double(r.scratch.nodes) / double(r.reuse.nodes) : 0.0,
        static_cast<unsigned long long>(r.reuse.tt_hits),
        static_cast<unsigned long long>(r.reuse.wall_ns),
        static_cast<unsigned long long>(r.scratch.wall_ns),
        i + 1 < solved.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fixed_time\": [\n");
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const auto& t = timed[i];
    std::fprintf(
        f,
        "    {\"budget_ms\": %llu, \"gated\": false, "
        "\"game\": \"mnk-5x3-k3\", "
        "\"positions\": %u, \"reuse_solved\": %u, \"scratch_solved\": %u, "
        "\"unsolved_positions\": %u, \"reuse_mean_depth\": %.2f, "
        "\"scratch_mean_depth\": %.2f, \"reuse_nodes\": %llu, "
        "\"scratch_nodes\": %llu}%s\n",
        static_cast<unsigned long long>(t.budget_ms), t.positions,
        t.reuse_solved, t.scratch_solved, t.unsolved_positions,
        t.reuse_mean_depth, t.scratch_mean_depth,
        static_cast<unsigned long long>(t.reuse_nodes),
        static_cast<unsigned long long>(t.scratch_nodes),
        i + 1 < timed.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int run(const char* json_path, bool check) {
  bench::banner("GAMEPLAY",
                "Game-play sessions: cross-move reuse vs from-scratch search",
                "self-play to completion; fresh engine per run; 4 workers");

  const TicTacToeSource ttt;
  const MnkSource m33(3, 3, 3);
  const MnkSource line19(1, 9, 2);
  const DropSource drop43(4, 3, 3);
  const NimSource nim21(21, 3);
  const ChompSource chomp33(3, 3);
  const std::vector<GameCase> cases = {
      {"tictactoe", &ttt, 0},
      {"mnk-3x3-k3", &m33, 0},
      {"mnk-1x9-k2", &line19, 1},
      {"drop-4x3-k3", &drop43, 1},  // solved value (ab/tt_search oracle)
      {"nim-21-take3", &nim21, NimSource::theoretical_value(21, 3)},
      {"chomp-3x3", &chomp33, ChompSource::theoretical_value(3, 3)},
  };

  bool ok = true;
  std::vector<FixedStrengthRow> solved;
  std::uint64_t reuse_nodes_total = 0, scratch_nodes_total = 0;
  std::uint64_t reuse_wall_total = 0;
  unsigned reuse_moves_total = 0;
  bench::Table t1({"game", "moves", "result", "reuse nodes", "scratch nodes",
                   "reduction", "tt hits", "reuse ms", "scratch ms"});
  for (const auto& c : cases) {
    FixedStrengthRow row{c.name, c.theory, self_play(*c.src, {}, 0),
                         self_play(*c.src, scratch_options(), 0)};
    // Solved-game oracle: a misplay by either variant is a correctness bug,
    // not a performance regression.
    const bool reuse_right =
        row.reuse.result == c.theory && row.scratch.result == c.theory;
    if (!reuse_right) {
      std::fprintf(stderr, "FAIL: %s self-play result %d/%d vs theory %d\n",
                   c.name, row.reuse.result, row.scratch.result, c.theory);
      ok = false;
    }
    reuse_nodes_total += row.reuse.nodes;
    scratch_nodes_total += row.scratch.nodes;
    reuse_wall_total += row.reuse.wall_ns;
    reuse_moves_total += row.reuse.moves;
    t1.row({c.name, fmt(row.reuse.moves), fmt(double(row.reuse.result), 0),
            fmt(row.reuse.nodes), fmt(row.scratch.nodes),
            fmt(row.reuse.nodes
                    ? double(row.scratch.nodes) / double(row.reuse.nodes)
                    : 0.0),
            fmt(row.reuse.tt_hits), fmt(double(row.reuse.wall_ns) * 1e-6),
            fmt(double(row.scratch.wall_ns) * 1e-6)});
    solved.push_back(std::move(row));
  }
  std::printf("Experiment 1: fixed strength (exact play), nodes to play a "
              "full game\n\n");
  t1.print();

  const double node_reduction =
      reuse_nodes_total ? double(scratch_nodes_total) / double(reuse_nodes_total)
                        : 0.0;
  const double moves_per_sec =
      reuse_wall_total ? double(reuse_moves_total) /
                             (double(reuse_wall_total) * 1e-9)
                       : 0.0;
  std::printf("total: reuse %llu nodes vs from-scratch %llu nodes "
              "(x%.2f reduction), %.0f moves/sec at perfect strength\n\n",
              static_cast<unsigned long long>(reuse_nodes_total),
              static_cast<unsigned long long>(scratch_nodes_total),
              node_reduction, moves_per_sec);
  if (check && node_reduction <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: session reuse did not reduce nodes (x%.3f)\n",
                 node_reduction);
    ok = false;
  }

  // Experiment 2: equal per-move budgets on a board the budget cannot
  // solve; compare completed depth. 5x3/k=3 is the largest bundled mnk
  // board (15 squares) — deep enough that small budgets truncate search.
  std::printf("Experiment 2: fixed time (wall-clock, not gated) — completed "
              "depth at IDENTICAL positions (mnk 5x3, k=3)\n\n");
  const MnkSource big(5, 3, 3);
  std::vector<FixedTimeRow> timed;
  bench::Table t2({"budget ms", "positions", "reuse solved", "scratch solved",
                   "unsolved", "reuse depth", "scratch depth", "reuse nodes",
                   "scratch nodes"});
  for (const std::uint64_t ms : {2ull, 10ull}) {
    FixedTimeRow row = fixed_time(big, ms);
    t2.row({fmt(row.budget_ms), fmt(row.positions), fmt(row.reuse_solved),
            fmt(row.scratch_solved), fmt(row.unsolved_positions),
            fmt(row.reuse_mean_depth), fmt(row.scratch_mean_depth),
            fmt(row.reuse_nodes), fmt(row.scratch_nodes)});
    timed.push_back(row);
  }
  t2.print();

  write_json(json_path, solved, timed, moves_per_sec, node_reduction);
  if (check) {
    std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace gtpar

int main(int argc, char** argv) {
  const char* json_path = "BENCH_gameplay.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--check] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return gtpar::run(json_path, check);
}
