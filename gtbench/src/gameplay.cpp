// gtbench/src/gameplay.cpp — the gameplay workload.
//
// Closed loop: W concurrent GameSessions on one Engine (W workers,
// default options), each self-playing drop-4x4-k4 (gravity four-in-a-row
// on a 4x4 board) with exact play — no depth horizon and no wall-clock
// budget, so playing strength is fixed. Every game starts from one of 24
// openings, visited in a seeded order, so sessions share some positions
// but not all, and the shared table sees stores beside reads with reuse
// across moves and sessions. Every two-ply opening of the game is a draw,
// so the openings are all 16 two-ply ones (the long games) and eight
// random six-ply openings, four won by each side: a search that reports
// the wrong winner, or a draw where there is none, fails the check. The
// six-ply openings come from a fixed seed, the same in every run: they
// set the mix of game lengths, and with it where the median move falls,
// so --seed picks only the order of the games. One op is one move
// (SuggestMove + Play).
// Every move's value must equal the opening's exact value, computed in
// set-up by the benchmark's own alpha-beta over the game's TreeSource (no
// engine, no table, no session), and so must the final game result.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/games/mnk.hpp"
#include "gtpar/session/session.hpp"
#include "trace.hpp"

namespace gtbench {
namespace {

using gtpar::Engine;
using gtpar::GameSession;
using gtpar::Value;

constexpr unsigned kSetupReps = 3;
/// Openings per value: won by MIN (-1), drawn (0), won by MAX (+1).
constexpr unsigned kQuota[3] = {4, 16, 4};
/// Length of the random openings that supply the won games.
constexpr unsigned kLongOpening = 6;
/// Set-up gives up (and the run fails) after this many candidates.
constexpr unsigned kMaxCandidates = 20000;
/// Seed of the six-ply openings.
constexpr std::uint64_t kLongOpeningSeed = 0x6a09e667f3bcc908ull;

struct Opening {
  std::vector<unsigned> moves;
  Value value = 0;
};

const gtpar::DropSource& game() {
  static const gtpar::DropSource src(4, 4, 4);
  return src;
}

/// Exact value of `v` (MAX to move at even depth) by plain alpha-beta on
/// the public TreeSource interface: the client-side truth. Game values
/// lie in [-1, 1], so the root window (-1, 1) still yields the exact
/// value.
Value exact_value(const gtpar::TreeSource& g, const gtpar::TreeSource::Node& v,
                  Value alpha, Value beta) {
  const unsigned n = g.num_children(v);
  if (n == 0) return g.leaf_value(v);
  const bool maxing = v.depth % 2 == 0;
  Value best = maxing ? alpha - 1 : beta + 1;
  for (unsigned i = 0; i < n && alpha < beta; ++i) {
    const Value x = exact_value(g, g.child(v, i), alpha, beta);
    if (maxing) {
      best = std::max(best, x);
      alpha = std::max(alpha, best);
    } else {
      best = std::min(best, x);
      beta = std::min(beta, best);
    }
  }
  return best;
}

/// The openings, each with its exact value: candidates are the two-ply
/// openings, then random non-terminal six-ply openings until the won
/// quotas are met (about one in ten is won by each side). A candidate is
/// kept while its value's quota has room.
std::vector<Opening> make_openings() {
  const gtpar::DropSource& g = game();
  Rng rng(kLongOpeningSeed);
  const unsigned cols = g.num_children(g.root());
  std::vector<std::vector<unsigned>> two_ply;
  for (unsigned a = 0; a < cols; ++a)
    for (unsigned b = 0; b < cols; ++b) two_ply.push_back({a, b});

  std::vector<Opening> out;
  std::set<std::vector<unsigned>> seen;
  unsigned have[3] = {0, 0, 0};
  std::size_t next_two_ply = 0;
  for (unsigned candidates = 0; out.size() < kQuota[0] + kQuota[1] + kQuota[2];) {
    if (++candidates > kMaxCandidates)
      throw std::runtime_error("gameplay: no openings found for every value");
    Opening op;
    gtpar::TreeSource::Node v = g.root();
    if (next_two_ply < two_ply.size()) {
      op.moves = two_ply[next_two_ply++];
      for (const unsigned m : op.moves) v = g.child(v, m);
    } else {
      while (op.moves.size() < kLongOpening && g.num_children(v) > 0) {
        op.moves.push_back(unsigned(rng.below(g.num_children(v))));
        v = g.child(v, op.moves.back());
      }
    }
    if (g.num_children(v) == 0 || !seen.insert(op.moves).second) continue;
    op.value = exact_value(g, v, -1, 1);
    if (op.value < -1 || op.value > 1)
      throw std::runtime_error("gameplay: game value outside [-1, 1]");
    unsigned& n = have[op.value + 1];
    if (n == kQuota[op.value + 1]) continue;
    ++n;
    out.push_back(std::move(op));
  }
  return out;
}

/// Accumulated results of the segments run on one engine.
struct Phase {
  std::uint64_t moves = 0, good = 0, failed = 0, wrong = 0, games = 0;
  double wall_s = 0, cpu_s = 0;
  /// Correct moves per second of each segment.
  std::vector<double> seg_rates;
  std::vector<std::vector<double>> seg_latency_ms;  ///< per segment
  std::uint64_t nodes = 0, search_ns = 0, tt_hits = 0, tt_stores = 0;
  std::size_t next_game = 0;  ///< cursor into the opening schedule
};

/// `sessions` threads self-play the next `games` games of the opening
/// schedule on `eng` to the end. Segments are whole rounds of the
/// schedule, so each one plays every opening equally often.
void run_segment(Engine& eng, const std::vector<Opening>& openings,
                 const std::vector<unsigned>& schedule, unsigned sessions,
                 std::size_t games, std::atomic<std::uint64_t>& next_req, Phase& ph) {
  std::mutex mu;
  std::atomic<std::size_t> next_game{ph.next_game};
  const std::size_t end_game = ph.next_game + games;
  Tracer& tr = tracer();
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  const std::uint64_t good0 = ph.good;
  ph.seg_latency_ms.emplace_back();
  auto player = [&] {
    Phase mine;
    std::vector<double> latency_ms;
    for (std::size_t g; (g = next_game++) < end_game;) {
      const Opening& op = openings[schedule[g % schedule.size()]];
      GameSession s(eng, game());
      for (const unsigned m : op.moves) s.Play(m);
      bool abandoned = false;
      while (!s.game_over()) {
        const std::uint64_t req = ++next_req;
        const std::int64_t t0 = now_ns();
        const std::uint32_t span = tr.open("session.move", req, 0, t0);
        bool ok = false;
        try {
          const gtpar::MoveSuggestion ms = s.SuggestMove(s.to_move(), 0);
          const std::int64_t t1 = now_ns();
          tr.add("threads.id_search", req, span,
                 t1 - static_cast<std::int64_t>(ms.wall_ns), t1, true);
          s.Play(ms.move);
          latency_ms.push_back(double(t1 - t0) / 1e6);
          mine.nodes += ms.stats.nodes;
          mine.search_ns += ms.wall_ns;
          mine.tt_hits += ms.stats.tt_hits;
          mine.tt_stores += ms.stats.tt_stores;
          ok = ms.exact && ms.value == op.value;
          if (!ok) ++mine.wrong;
        } catch (const std::exception&) {
          abandoned = true;  // an engine error ends this game
        }
        tr.close(span, now_ns());
        ++mine.moves;
        ++(ok ? mine.good : mine.failed);
        if (abandoned) break;
      }
      if (!abandoned && s.game_over()) {
        ++mine.games;
        if (s.game_result() != op.value) {
          ++mine.wrong;
          ++mine.failed;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ph.moves += mine.moves;
    ph.good += mine.good;
    ph.failed += mine.failed;
    ph.wrong += mine.wrong;
    ph.games += mine.games;
    ph.nodes += mine.nodes;
    ph.search_ns += mine.search_ns;
    ph.tt_hits += mine.tt_hits;
    ph.tt_stores += mine.tt_stores;
    auto& seg = ph.seg_latency_ms.back();
    seg.insert(seg.end(), latency_ms.begin(), latency_ms.end());
  };
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < sessions; ++i) ts.emplace_back(player);
  for (auto& t : ts) t.join();
  const double wall = seconds_since(start);
  ph.wall_s += wall;
  ph.cpu_s += process_cpu_s() - cpu0;
  ph.seg_rates.push_back(double(ph.good - good0) / wall);
  ph.next_game = end_game;
  eng.drain();
}

}  // namespace

Outcome run_gameplay(const RunConfig& cfg, HostControl& host) {
  Outcome o;
  const unsigned W = cfg.workers;
  std::vector<Opening> openings;
  std::vector<unsigned> schedule;
  std::unique_ptr<Engine> eng, eng1;
  std::vector<double> setups;
  host.before_phase("set-up");
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    openings.clear();
    eng.reset();
    eng1.reset();
    const auto t = Clock::now();
    openings = make_openings();
    // The seed picks the order games visit the openings in: shuffled
    // rounds, so every opening recurs equally often.
    Rng rng(cfg.seed ^ 0x5c4edull);
    schedule.clear();
    while (schedule.size() < 4096) {
      std::vector<unsigned> round(openings.size());
      for (unsigned i = 0; i < round.size(); ++i) round[i] = i;
      for (std::size_t i = round.size(); i > 1; --i)
        std::swap(round[i - 1], round[rng.below(i)]);
      schedule.insert(schedule.end(), round.begin(), round.end());
    }
    eng = std::make_unique<Engine>(Engine::Options{.workers = W});
    eng1 = std::make_unique<Engine>(Engine::Options{.workers = 1});
    setups.push_back(seconds_since(t));
  }
  o.metrics["setup_s"] = median(setups);
  std::string listing;
  for (const Opening& op : openings) {
    listing += ' ';
    for (const unsigned m : op.moves) listing += char('0' + m);
    listing += fmt(":%+d", int(op.value));
  }
  o.notes.push_back("gameplay openings (column choices: exact value):" + listing);
  std::atomic<std::uint64_t> req{0};
  auto tally = [&](const Phase& p) {
    o.attempted += p.moves;
    o.failed += p.failed;
    o.wrong += p.wrong;
  };
  // Segments until the time is up: W sessions play five rounds of the
  // openings per segment (about 1300 moves, so each segment has ten
  // beyond its p99); in the traced run one session plays one round.
  const std::size_t round = openings.size(), segment = 5 * round;
  const double loop_s = (cfg.trace ? 0.75 : 0.9) * cfg.seconds;

  if (!cfg.trace) {
    Phase pw;
    host.before_phase("gameplay W-session segments");
    const auto start = Clock::now();
    while (pw.seg_rates.size() < 3 || seconds_since(start) < loop_s)
      run_segment(*eng, openings, schedule, W, segment, req, pw);
    tally(pw);
    const double rate_w = median(pw.seg_rates);
    o.metrics["ops_per_s"] = rate_w;
    o.metrics["latency_p50_ms"] = windowed_percentile(pw.seg_latency_ms, 0.50);
    o.metrics["latency_p99_ms"] = windowed_percentile(pw.seg_latency_ms, 0.99);
    o.notes.push_back(fmt("gameplay: %zu openings, %zu segments; W=%u sessions: %llu "
                          "moves, %llu games (%.1f moves/s)",
                          openings.size(), pw.seg_rates.size(), W,
                          static_cast<unsigned long long>(pw.moves),
                          static_cast<unsigned long long>(pw.games), rate_w));
    return o;
  }

  // Traced run: rounds of an untraced W-session segment (the overhead and
  // speed-up baseline), a traced one, and one session on a 1-worker engine.
  Phase base, pt, p1;
  host.before_phase("gameplay untraced/traced/1-session rounds");
  const gtpar::EngineStats before = eng->stats();
  const auto start = Clock::now();
  while (pt.seg_rates.size() < 3 || seconds_since(start) < loop_s) {
    tracer().set(false);
    run_segment(*eng, openings, schedule, W, segment, req, base);
    tracer().set(true);
    run_segment(*eng, openings, schedule, W, segment, req, pt);
    tracer().set(false);
    run_segment(*eng1, openings, schedule, 1, round, req, p1);
  }
  tracer().set(true);
  const gtpar::EngineStats after = eng->stats();
  tally(base);
  tally(pt);
  tally(p1);
  auto& m = o.metrics;
  m["speedup_vs_1w"] = paired_ratio(base.seg_rates, p1.seg_rates);
  m["cpu_ms_per_op"] = base.cpu_s * 1e3 / double(base.moves);
  m["trace.overhead_ratio"] = 1.0 - paired_ratio(pt.seg_rates, base.seg_rates);
  trace_metrics(double(pt.moves), m);
  const double mv = std::max<double>(1, double(pt.moves));
  m["session.nodes_per_move"] = double(pt.nodes) / mv;
  m["session.ns_per_node"] = double(pt.search_ns) / std::max<double>(1, double(pt.nodes));
  m["session.tt_hits_per_move"] = double(pt.tt_hits) / mv;
  m["session.tt_stores_per_move"] = double(pt.tt_stores) / mv;
  m["engine.busy_ratio"] = (base.cpu_s + pt.cpu_s) / ((base.wall_s + pt.wall_s) * W);
  engine_metrics(before, after, double(base.moves + pt.moves), m);
  m["engine.tt_op_ns_1t"] = tt_op_ns(1);
  m["engine.tt_op_ns_wt"] = tt_op_ns(W);
  o.notes.push_back(fmt("gameplay traced: %llu moves (%.1f/s median segment) vs "
                        "untraced %.1f/s, %zu spans",
                        static_cast<unsigned long long>(pt.moves), median(pt.seg_rates),
                        median(base.seg_rates), tracer().size()));
  return o;
}

}  // namespace gtbench
