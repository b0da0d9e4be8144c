// Verifier pre-pass: verdict-preserving CFA pruning.
//
// Four transformations, each sound for safety under both the RA and the
// simplified semantics (they can change the set of reachable
// configurations' *sizes*, never a verdict):
//
//   1. dead-edge removal — edges whose source is unreachable or whose
//      assume guard is constantly false are never traversed;
//   2. guard folding — a constantly-true assume acts as a nop;
//   3. store slicing — a store to a variable that no thread ever loads or
//      CASes (and that is not the verification goal) adds a message no one
//      can acquire; under RA it influences only that variable's timeline,
//      so replacing it by a nop preserves every other observation
//      (Theorem 3.4's simplification is per-variable in the same way);
//   4. dead-assignment dropping — an assignment to a register that
//      liveness proves is never read afterwards.
//
// Dead *loads* are intentionally kept: a load merges the acquired
// message's view into the thread view, so removing one could shrink the
// reachable state space unsoundly.
#ifndef RAPAR_ANALYSIS_PREPASS_H_
#define RAPAR_ANALYSIS_PREPASS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "lang/cfa.h"

namespace rapar {

struct PrepassStats {
  std::size_t dead_edges_removed = 0;
  std::size_t guards_folded = 0;
  std::size_t stores_sliced = 0;
  std::size_t assigns_dropped = 0;

  bool Any() const {
    return dead_edges_removed + guards_folded + stores_sliced +
               assigns_dropped >
           0;
  }
  // "removed 2 dead edges, folded 1 guard, sliced 1 store, dropped 0 dead
  // assignments".
  std::string ToString() const;
};

// Returns a pruned copy of `cfa`: dead edges removed, constantly-true
// guards folded to nops, stores to variables outside `keep_stores` sliced
// to nops, dead register assignments dropped to nops. Node ids (and hence
// the entry) are preserved, so control locations keep their meaning. Adds
// what it pruned to `stats`.
Cfa PruneCfa(const Cfa& cfa, const std::vector<bool>& keep_stores,
             PrepassStats& stats);

// System-level pre-pass over env ‖ dis_1 ‖ … ‖ dis_n. Computes the
// observed-variable set across all threads (env counts as its own
// unbounded audience), protects `protect_var` (the verification goal —
// pass VarId::Invalid() when there is none), and prunes every CFA.
struct PrepassResult {
  Cfa env;
  std::vector<Cfa> dis;
  PrepassStats stats;
};

PrepassResult RunPrepass(const Cfa& env, const std::vector<const Cfa*>& dis,
                         VarId protect_var);

}  // namespace rapar

#endif  // RAPAR_ANALYSIS_PREPASS_H_
