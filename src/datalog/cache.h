// Cache Datalog (§4): Datalog evaluation where inferred ground atoms live
// in a bounded Cache; atoms may be dropped nondeterministically and a rule
// fires only when its whole body is currently cached. Prog ⊢_k g asks
// whether g can be inferred with |Cache| <= k throughout.
//
// This module provides the ⊢_k decision procedure (explicit search over
// cache states) and the minimal-cache-size probe used to validate
// Lemma 4.4's O(Q0²) bound experimentally.
#ifndef RAPAR_DATALOG_CACHE_H_
#define RAPAR_DATALOG_CACHE_H_

#include <cstdint>
#include <optional>

#include "datalog/ast.h"

namespace rapar::dl {

struct CacheQueryResult {
  bool derivable = false;
  // Distinct cache states visited.
  std::size_t states = 0;
  // Search aborted on the state budget (result may be a false negative).
  bool aborted = false;
};

struct CacheQueryOptions {
  std::size_t max_states = 5'000'000;
};

// Decides Prog ⊢_k goal. Validates its input like the engine's Query
// (ValidateProgram, ValidateGoal): an unsafe rule, a malformed native or a
// goal that is not a ground atom of its predicate's arity raises
// std::invalid_argument.
CacheQueryResult CacheQuery(const Program& prog, const Atom& goal, int k,
                            const CacheQueryOptions& options = {});

// Smallest k <= limit with Prog ⊢_k goal, or nullopt if none (including
// the case that the goal is not derivable at all). Validates like
// CacheQuery.
std::optional<int> MinimalCacheSize(const Program& prog, const Atom& goal,
                                    int limit,
                                    const CacheQueryOptions& options = {});

}  // namespace rapar::dl

#endif  // RAPAR_DATALOG_CACHE_H_
