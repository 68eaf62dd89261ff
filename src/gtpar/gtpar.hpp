// gtpar/gtpar.hpp — umbrella header pulling in the whole public API.
//
// Fine-grained headers (gtpar/<module>/<file>.hpp) are preferred inside
// the library and its tests; this header exists for downstream users who
// want everything at once.
#pragma once

#include "gtpar/common.hpp"

// Trees and workloads.
#include "gtpar/tree/andor.hpp"
#include "gtpar/tree/dot_export.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/proof_tree.hpp"
#include "gtpar/tree/pv.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/skeleton.hpp"
#include "gtpar/tree/tree.hpp"
#include "gtpar/tree/values.hpp"

// Step accounting.
#include "gtpar/sim/stats.hpp"

// AND/OR (NOR) evaluation: leaf-evaluation model.
#include "gtpar/solve/nor_simulator.hpp"
#include "gtpar/solve/sequential_solve.hpp"

// MIN/MAX evaluation.
#include "gtpar/ab/alphabeta.hpp"
#include "gtpar/ab/depth_limited.hpp"
#include "gtpar/ab/minimax_simulator.hpp"
#include "gtpar/ab/sss.hpp"
#include "gtpar/ab/tt_search.hpp"

// Node-expansion model and implicit trees.
#include "gtpar/expand/minimax_expansion.hpp"
#include "gtpar/expand/nor_expansion.hpp"
#include "gtpar/expand/tree_source.hpp"

// Randomized algorithms.
#include "gtpar/rand/randomized.hpp"

// Section 7 message-passing implementation.
#include "gtpar/mp/message_passing.hpp"

// Unified search façade (which also runs the real-thread cascades),
// work-stealing scheduler, and batched engine.
#include "gtpar/engine/api.hpp"
#include "gtpar/engine/engine.hpp"
#include "gtpar/engine/executor.hpp"
#include "gtpar/engine/work_stealing.hpp"

// Analysis utilities.
#include "gtpar/analysis/bounds.hpp"
#include "gtpar/analysis/growth.hpp"

// Differential correctness harness (oracle, registry, fuzzer, shrinker).
#include "gtpar/check/fuzz.hpp"
#include "gtpar/check/oracle.hpp"
#include "gtpar/check/registry.hpp"
#include "gtpar/check/shrink.hpp"

// Games.
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"
