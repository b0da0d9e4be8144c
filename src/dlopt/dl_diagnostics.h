// Diagnostics for generated Cache-Datalog programs (rapar_dlopt).
//
// Extends the RA0xx registry of analysis/diagnostics.h to the Datalog
// half of the pipeline. These diagnostics describe the *encoding*, not
// the source program, so their SrcLoc is invalid (synthetic); renderers
// fall back to file-only prefixes.
//
// Codes (stable, referenced by DESIGN.md and tests):
//   RA020  warning  dead rule: head predicate cannot reach the query
//   RA021  warning  rule can never fire: a body atom matches no head
//                   that can hold a tuple
//   RA022  note     rule head specialises outside the demanded constant
//                   cone (magic-sets-lite would never ask for it)
//   RA023  retired (the duplicate-rule pass was removed); never reused
//   RA024  retired (the θ-subsumption pass was removed); never reused
//   RA025  error    range-restriction violation: unbound head variable or
//                   native input — the rule is not evaluable
//   RA026  note     per-SCC width classification (which solver applies,
//                   and the static cache bound when one exists)
//   RA027  note     identity copy rule inlined: the head predicate is
//                   extensionally equal to the body predicate and was
//                   aliased away
#ifndef RAPAR_DLOPT_DL_DIAGNOSTICS_H_
#define RAPAR_DLOPT_DL_DIAGNOSTICS_H_

#include <vector>

#include "analysis/diagnostics.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"

namespace rapar::dlopt {

// Everything dlanalyze reports about one query instance (Prog, g).
struct DlAnalysis {
  PredGraph graph;
  WidthReport width;
  OptimizeResult opt;
  std::vector<Diagnostic> diagnostics;  // RA020–RA027, sorted
};

DlAnalysis AnalyzeDlProgram(const dl::Program& prog, const dl::Atom& goal,
                            const DlOptOptions& options = {});

}  // namespace rapar::dlopt

#endif  // RAPAR_DLOPT_DL_DIAGNOSTICS_H_
