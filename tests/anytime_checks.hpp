// Shared check for anytime results (engine/resilience.hpp Completeness).
#pragma once

#include "gtpar/engine/api.hpp"

namespace gtpar {

/// True unless `r` claims a value or one-sided bound that excludes `truth`.
inline bool admits(const SearchResult& r, Value truth) {
  switch (r.completeness) {
    case Completeness::kExact: return r.value == truth;
    case Completeness::kLowerBound: return r.value <= truth;
    case Completeness::kUpperBound: return r.value >= truth;
    case Completeness::kFailed: return true;
  }
  return false;
}

}  // namespace gtpar
