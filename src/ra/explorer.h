// Bounded explicit-state exploration of the standard RA semantics.
//
// Explores every interleaving of a *fixed instance* (a concrete number of
// threads). Used as ground truth for the simplified semantics (Theorem 3.4
// differential tests) and to exercise the constructions for the
// undecidable / non-primitive-recursive cells of Table 1 under bounds.
#ifndef RAPAR_RA_EXPLORER_H_
#define RAPAR_RA_EXPLORER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "lang/cfa.h"
#include "ra/config.h"

namespace rapar {

struct RaExplorerOptions {
  // Maximum transitions along any single run (BFS depth bound). Loop-free
  // instances terminate regardless; loops need this bound.
  int max_depth = 10'000;
  // Abort (reporting non-exhaustive) after this many distinct states.
  std::size_t max_states = 2'000'000;
  // Wall-clock budget in milliseconds; 0 = unlimited. On expiry the
  // result is marked non-exhaustive.
  long long time_budget_ms = 0;
  // Stop at the first assertion violation.
  bool stop_on_violation = true;
  // Sort identical-program thread blocks for symmetry reduction.
  bool symmetry_reduction = true;
};

// One step of a witness run.
struct RaTraceStep {
  std::size_t thread;
  std::string instr;  // rendered instruction
};

struct RaResult {
  // True if an `assert false` edge was traversed in some reachable run.
  bool violation = false;
  // True if the state space was fully explored within the bounds (so a
  // negative answer is definitive).
  bool exhaustive = true;
  // exhaustive=false because the wall-clock budget expired (as opposed to
  // the state/depth caps).
  bool budget_hit = false;
  std::size_t states = 0;
  // Witness run to the violation, if one was found.
  std::vector<RaTraceStep> witness;
};

// Explores instances built from per-thread CFAs over a shared variable
// universe. All CFAs must use the same VarTable size and domain.
class RaExplorer {
 public:
  // `threads[i]` is thread i's program. `symmetric_block` optionally marks
  // the index range [lo, hi) of identical env threads for symmetry
  // reduction.
  RaExplorer(std::vector<const Cfa*> threads, Value dom,
             std::size_t num_vars,
             std::pair<std::size_t, std::size_t> symmetric_block = {0, 0});

  // Runs BFS; returns the safety verdict.
  RaResult CheckSafety(const RaExplorerOptions& options = {});

  // Reachable local states modulo views: (thread, node, register
  // valuation), collected during the last CheckSafety call. This is the
  // =de projection used by the Theorem 3.4 differential tests.
  const std::set<std::tuple<std::size_t, std::uint32_t, std::vector<Value>>>&
  reachable_controls() const {
    return reachable_controls_;
  }

  // (var, value) pairs of messages generated in some reachable
  // configuration during the last CheckSafety call (excluding init).
  const std::set<std::pair<std::uint32_t, Value>>& generated_messages()
      const {
    return generated_messages_;
  }

 private:
  // Appends all successors of `cfg` to `out`; updates bookkeeping. Returns
  // the index of a violating successor step, if any.
  struct Successor {
    RaConfig config;
    std::size_t thread;
    std::string instr;
    bool violation = false;
  };
  void Successors(const RaConfig& cfg, std::vector<Successor>& out) const;

  std::vector<const Cfa*> threads_;
  Value dom_;
  std::size_t num_vars_;
  std::pair<std::size_t, std::size_t> symmetric_block_;

  std::set<std::tuple<std::size_t, std::uint32_t, std::vector<Value>>>
      reachable_controls_;
  std::set<std::pair<std::uint32_t, Value>> generated_messages_;
};

}  // namespace rapar

#endif  // RAPAR_RA_EXPLORER_H_
