// Query-driven optimization of datalog::Program (rapar_dlopt).
//
// `OptimizeForQuery` rewrites a program into a smaller one with the same
// answer to a fixed ground query — verdict-preserving by construction,
// checked by tests/dlopt_differential_test.cpp. Five transformations, to
// fixpoint:
//
//   1. unproductive-rule elimination — a body atom that unifies with the
//      head of no productive rule or fact (constants equal position by
//      position, natives ignored; least fixpoint) can never hold a
//      tuple, so its rule never fires. Value-level: on makeP output a
//      dis read of (x, v) that no fact and no reachable store writes
//      removes its step and the rest of the thread's chain;
//   2. dead-rule & unreachable-EDB elimination — rules (and facts) whose
//      head predicate is not backward-reachable from the query cannot
//      take part in any derivation of it;
//   3. demand specialization (magic-sets-lite) — per predicate and
//      argument position, collect the set of constants demanded by the
//      body atoms of surviving rules and by the query itself (⊤ as soon
//      as some occurrence has a variable there). A rule whose head
//      carries a constant outside the demanded set derives only tuples no
//      surviving rule or the query can consume. For the makeP encoding
//      this specialises on the ground arguments of the dis guess: control
//      locations, read values, goal variable/value;
//   4. duplicate-rule removal (rule_checks.h);
//   5. copy-rule aliasing — a predicate whose single deriving rule is an
//      identity copy  p(X0..Xn) :- q(X0..Xn)  (distinct variables, no
//      natives, no facts for p) is extensionally equal to q; every
//      occurrence of p is rewritten to q and the copy rule dropped. The
//      dis-chain steps makeP emits for nop/assume/assign are exactly this
//      shape, so long guessed runs collapse to their load/store skeleton.
//
// The input program is consumed: the result *is* the input with its
// surviving rules, so it keeps the input's predicate and constant tables
// and Sym values (and the natives that capture them) stay valid. Callers
// that still need the input pass a copy.
#ifndef RAPAR_DLOPT_OPTIMIZE_H_
#define RAPAR_DLOPT_OPTIMIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace rapar::obs {
class TraceRecorder;
}

namespace rapar::dlopt {

struct DlOptOptions {
  // Optional span sink: each pass invocation is recorded as a
  // "dlopt:<pass>" span (obs/trace.h). Null = no tracing, no cost.
  obs::TraceRecorder* trace = nullptr;
};

struct DlOptStats {
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  // Removal counts by cause (facts count as rules throughout).
  std::size_t unproductive_removed = 0;
  std::size_t unreachable_removed = 0;
  std::size_t demand_removed = 0;
  std::size_t duplicates_removed = 0;
  std::size_t copy_aliased_removed = 0;
  // Predicates mentioned by rules before vs after.
  std::size_t preds_before = 0;
  std::size_t preds_after = 0;

  std::size_t removed() const { return rules_before - rules_after; }
  bool Any() const { return removed() > 0; }
  DlOptStats& operator+=(const DlOptStats& o);
  // "rules 120 -> 45 (unreachable 50, unproductive 10, demand 12, dup 2,
  // aliased 1)".
  std::string ToString() const;
};

// Why an input rule was removed (kKept = it survived). Recorded per input
// rule index so diagnostics (dl_diagnostics.h) can explain each removal.
enum class RemovalCause : std::uint8_t {
  kKept,
  kUnproductive,
  kUnreachable,
  kUndemanded,
  kDuplicate,
  kCopyAliased,
};

// Optimizes `prog` for the ground query `goal`. Requires goal.pred to be
// a predicate of `prog` and goal ground. Surviving rules are moved into
// the result and may be rewritten (copy-rule aliasing renames predicates
// inside them); removed rules are reported against the input rule
// indices.
struct OptimizeResult {
  dl::Program prog;
  DlOptStats stats;
  // One entry per rule of the *input* program.
  std::vector<RemovalCause> cause;
};

OptimizeResult OptimizeForQuery(dl::Program prog, const dl::Atom& goal,
                                const DlOptOptions& options = {});

}  // namespace rapar::dlopt

#endif  // RAPAR_DLOPT_OPTIMIZE_H_
