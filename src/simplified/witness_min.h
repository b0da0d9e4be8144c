// Witness checking and minimisation.
//
// A witness is a run of the simplified semantics from the initial
// configuration. A recorded step is checked against the explorer's own
// step enumerator (transitions.h), so the enabling rules are written once.
// The saturating explorer logs every env-saturation step it applies, so
// witnesses contain messages and clone configurations irrelevant to the
// violation. Greedy delta-debugging removes steps while the run stays
// valid and the target property still holds — producing witnesses close
// to the paper's hand-drawn executions.
#ifndef RAPAR_SIMPLIFIED_WITNESS_MIN_H_
#define RAPAR_SIMPLIFIED_WITNESS_MIN_H_

#include <functional>
#include <optional>
#include <vector>

#include "simplified/explorer.h"

namespace rapar {

// True iff `step` is enabled in `cfg`: its actor exists and
// EnumerateActorSteps under ViewChoice::kAll lists it, every field equal
// (DESIGN.md §2, "View-choice policy"). Asserts only where the enumerator
// does: on an env CAS, which no system of the class has.
bool StepEnabled(const SimplSystem& sys, const SimplConfig& cfg,
                 const SimplStep& step);

// Replays `steps` from the initial configuration and returns the effect
// of each, or nullopt at the first step that is not enabled. On success
// fills *final_cfg (if non-null).
std::optional<std::vector<StepEffect>> ReplayWitness(
    const SimplSystem& sys, const std::vector<SimplStep>& steps,
    SimplConfig* final_cfg = nullptr);

// The property the minimised witness must preserve, evaluated on the
// final configuration and the step list (e.g. "last step is a violation"
// or "goal message present").
using WitnessProperty =
    std::function<bool(const SimplConfig&, const std::vector<SimplStep>&)>;

// Greedily removes steps (earliest-first passes until fixpoint) while the
// replay stays valid and `property` holds. The input witness must itself
// replay and satisfy the property.
std::vector<SimplStep> MinimizeWitness(const SimplSystem& sys,
                                       std::vector<SimplStep> steps,
                                       const WitnessProperty& property);

// Ready-made properties.
WitnessProperty ViolationProperty();
WitnessProperty GoalProperty(VarId var, Value val);

}  // namespace rapar

#endif  // RAPAR_SIMPLIFIED_WITNESS_MIN_H_
