// tools/fuzz_search.cpp
//
// Seeded property fuzzer for the differential oracle: sweep generated tree
// shapes (check/fuzz.hpp) through every registered search algorithm
// (check/oracle.hpp), shrink any failure to a minimal counterexample
// (check/shrink.hpp), and dump it in the serialization format so it can be
// replayed and checked into tests/corpus/.
//
// Usage:
//   fuzz_search [--trees N] [--seed S] [--corpus DIR] [--dump DIR]
//               [--nor-only | --minimax-only] [--faults] [--quiet]
//
//   --trees N    number of generated trees per semantics (default 500)
//   --seed S     first seed of the sweep (default 1); tree i uses seed S+i
//   --corpus DIR replay every *.tree file in DIR before sweeping
//   --dump DIR   where counterexamples are written (default "fuzz-artifacts")
//   --faults     chaos mode: additionally run every generated tree through
//                the fault-injection harness (check/faults.hpp) under a
//                seeded transient+permanent FaultPlan and verify the
//                resilience contract (retried-exact or consistent anytime
//                bounds, no escaped fault exceptions)
//   --quiet      suppress per-chunk progress lines
//
// Exit status: 0 if every corpus case and every generated tree passed the
// oracle (and, with --faults, the chaos harness), 1 otherwise
// (counterexamples are on disk by then), 2 on usage or I/O errors.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "gtpar/check/faults.hpp"
#include "gtpar/check/fuzz.hpp"
#include "gtpar/check/oracle.hpp"
#include "gtpar/check/shrink.hpp"
#include "gtpar/tree/serialization.hpp"

namespace {

using namespace gtpar;
using namespace gtpar::check;

struct Options {
  std::uint64_t trees = 500;
  std::uint64_t seed = 1;
  std::string corpus;
  std::string dump = "fuzz-artifacts";
  bool nor = true;
  bool minimax = true;
  bool faults = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trees N] [--seed S] [--corpus DIR] [--dump DIR]\n"
               "          [--nor-only | --minimax-only] [--faults] [--quiet]\n",
               argv0);
}

/// Parse a full decimal token; rejects partial parses like "12x" or "abc".
bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--trees") {
      const char* v = next();
      if (!v || !parse_u64(v, opt.trees)) return false;
    } else if (a == "--seed") {
      const char* v = next();
      if (!v || !parse_u64(v, opt.seed)) return false;
    } else if (a == "--corpus") {
      const char* v = next();
      if (!v) return false;
      opt.corpus = v;
    } else if (a == "--dump") {
      const char* v = next();
      if (!v) return false;
      opt.dump = v;
    } else if (a == "--nor-only") {
      opt.minimax = false;
    } else if (a == "--minimax-only") {
      opt.nor = false;
    } else if (a == "--faults") {
      opt.faults = true;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  return opt.nor || opt.minimax;
}

/// Shrink a failing tree and write both the original and the minimal form.
void report_failure(const Options& opt, const Tree& tree, bool minimax,
                    const std::string& origin, const OracleReport& report) {
  std::fprintf(stderr, "FAIL %s (%s semantics)\n%s", origin.c_str(),
               minimax ? "minimax" : "nor", report.summary().c_str());
  const auto fails = [&](const Tree& candidate) {
    return !check_tree(candidate, minimax).ok();
  };
  const auto shrunk =
      shrink_tree(tree, fails, minimax ? Semantics::kMinimax : Semantics::kNor);
  const std::string prefix = (minimax ? std::string("mm_") : std::string("nor_")) + origin;
  try {
    const auto orig_path = dump_corpus_tree(opt.dump, prefix + "_orig.tree", tree);
    const auto min_path = dump_corpus_tree(opt.dump, prefix + ".tree", shrunk.tree);
    std::fprintf(stderr, "  original (%zu nodes) -> %s\n", tree.size(),
                 orig_path.c_str());
    std::fprintf(stderr, "  shrunk   (%zu nodes, %u reductions) -> %s\n",
                 shrunk.tree.size(), shrunk.rounds, min_path.c_str());
    std::fprintf(stderr, "  minimal counterexample: %s\n",
                 to_string(shrunk.tree).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "  (failed to dump counterexample: %s)\n", e.what());
  }
}

int run(const Options& opt) {
  std::uint64_t failures = 0, cases = 0;

  if (!opt.corpus.empty()) {
    const auto corpus = load_corpus(opt.corpus);
    for (const auto& c : corpus) {
      if ((c.minimax && !opt.minimax) || (!c.minimax && !opt.nor)) continue;
      ++cases;
      const auto report = check_tree(c.tree, c.minimax);
      if (!report.ok()) {
        ++failures;
        report_failure(opt, c.tree, c.minimax, "corpus_" + c.name, report);
      }
    }
    if (!opt.quiet)
      std::printf("corpus: %llu cases replayed, %llu failing\n",
                  static_cast<unsigned long long>(cases),
                  static_cast<unsigned long long>(failures));
  }

  for (const bool minimax : {false, true}) {
    if ((minimax && !opt.minimax) || (!minimax && !opt.nor)) continue;
    for (std::uint64_t i = 0; i < opt.trees; ++i) {
      const std::uint64_t seed = opt.seed + i;
      std::string family;
      const Tree t = make_fuzz_tree(seed, minimax, &family);
      ++cases;
      OracleOptions oopt;
      oopt.seed = seed;
      const auto report = check_tree(t, minimax, oopt);
      if (!report.ok()) {
        ++failures;
        report_failure(opt, t, minimax,
                       "seed_" + std::to_string(seed) + "_" + family.substr(0, family.find(' ')),
                       report);
      }
      if (opt.faults) {
        // Chaos sweep on the same tree: seeded transient faults a
        // 4-attempt retry budget must clear, plus a sprinkling of
        // permanent faults that must degrade to consistent anytime
        // bounds — never escape, never lie.
        FaultPlan plan;
        plan.seed = seed;
        plan.transient_rate = 0.25;
        plan.flaky_attempts = 2;
        plan.permanent_rate = 0.05;
        const auto chaos = check_tree_under_faults(t, minimax, plan);
        if (!chaos.ok()) {
          ++failures;
          std::fprintf(stderr, "FAIL chaos seed_%llu (%s semantics)\n%s\n",
                       static_cast<unsigned long long>(seed),
                       minimax ? "minimax" : "nor", chaos.summary().c_str());
          const std::string prefix =
              (minimax ? std::string("mm_") : std::string("nor_")) + "chaos_seed_" +
              std::to_string(seed);
          try {
            const auto path = dump_corpus_tree(opt.dump, prefix + ".tree", t);
            std::fprintf(stderr, "  tree (%zu nodes) -> %s\n", t.size(),
                         path.c_str());
          } catch (const std::exception& e) {
            std::fprintf(stderr, "  (failed to dump counterexample: %s)\n",
                         e.what());
          }
        }
      }
      if (!opt.quiet && (i + 1) % 100 == 0)
        std::printf("%s: %llu/%llu trees checked (last family: %s)\n",
                    minimax ? "minimax" : "nor",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(opt.trees), family.c_str());
    }
  }

  std::printf("fuzz_search: %llu cases, %llu failures\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_search: fatal: %s\n", e.what());
    return 2;
  }
}
