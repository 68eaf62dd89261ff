// E17 — ablation of the promotion rule (P-SOLVE's case two) in the real
// -thread parallel alpha-beta. DESIGN.md calls promotion out as the load-
// bearing design choice of the Section 7 implementation: without it, the
// spine join-waits behind each top-level *sequential* scout, which caps
// the wall-clock speed-up near 2x regardless of thread count.
#include "bench/bench_util.hpp"

#include "gtpar/engine/api.hpp"
#include "gtpar/engine/work_stealing.hpp"
#include "gtpar/tree/generators.hpp"

int main() {
  using namespace gtpar;
  bench::banner("E17", "Ablation: promotion (abort + parallel re-search) vs join-wait",
                "kMtParallelAb on M(2,10) worst ordering; sleeping 100us leaves; "
                "3 runs per cell, best time");

  const Tree t = make_worst_case_minimax(2, 10);
  const std::uint64_t kLeafNs = 100'000;

  SearchRequest req;
  req.tree = &t;
  req.algorithm = Algorithm::kMtSequentialAb;
  req.leaf_cost_ns = kLeafNs;
  req.cost_model = LeafCostModel::kSleep;
  const auto seq = search(req);
  std::printf("sequential baseline: %.1f ms (%llu leaves)\n\n",
              double(seq.wall_ns) / 1e6,
              static_cast<unsigned long long>(seq.work));
  req.algorithm = Algorithm::kMtParallelAb;

  bench::Table table({"threads", "promotion ON (ms)", "speed-up", "promotion OFF (ms)",
                      "speed-up"});
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    double best_on = 1e30, best_off = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      req.promotion = true;
      best_on = std::min(best_on, double(search(req, pool).wall_ns) / 1e6);
      req.promotion = false;
      best_off = std::min(best_off, double(search(req, pool).wall_ns) / 1e6);
    }
    table.row({bench::fmt(threads), bench::fmt(best_on, 1),
               bench::fmt(double(seq.wall_ns) / 1e6 / best_on),
               bench::fmt(best_off, 1),
               bench::fmt(double(seq.wall_ns) / 1e6 / best_off)});
  }
  table.print();

  std::printf(
      "Reading: with promotion the speed-up keeps climbing with threads;\n"
      "without it the top-level sequential scouts serialise the search and\n"
      "the curve flattens early — the measured justification for the\n"
      "paper's case-two machinery.\n\n");
  return 0;
}
