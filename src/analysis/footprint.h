// Variable footprint analysis: the *observed* set of a system — the
// variables some thread loads or CASes. A store to a variable outside the
// observed set can never influence any thread: under RA its message joins
// only that variable's timeline, no load ever acquires it, and a CAS would
// have counted as an observation. Such stores are sliceable (prepass.h)
// unless the variable is the verification goal itself.
#ifndef RAPAR_ANALYSIS_FOOTPRINT_H_
#define RAPAR_ANALYSIS_FOOTPRINT_H_

#include <vector>

#include "lang/cfa.h"

namespace rapar {

// Variables loaded or CAS'd by at least one of the given CFAs. All CFAs
// must share one variable table of size `num_vars` (the system-wide table
// produced by unification).
std::vector<bool> ObservedVars(const std::vector<const Cfa*>& cfas,
                               std::size_t num_vars);

}  // namespace rapar

#endif  // RAPAR_ANALYSIS_FOOTPRINT_H_
