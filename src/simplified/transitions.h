// Successor enumeration and step application for the simplified semantics.
//
// The rules are documented in README-semantics.md. Enumeration and
// application are split so that the explorer can enumerate candidate steps
// cheaply while witness replay (witness_min.h, depgraph/, trace rendering)
// re-applies recorded steps deterministically. The enumerator is the one
// statement of when a step is enabled: a recorded step is checked by
// asking whether the kAll enumeration lists it (witness_min.h).
#ifndef RAPAR_SIMPLIFIED_TRANSITIONS_H_
#define RAPAR_SIMPLIFIED_TRANSITIONS_H_

#include <optional>
#include <vector>

#include "lang/cfa.h"
#include "simplified/simpl_config.h"
#include "simplified/step.h"

namespace rapar {

// Gap-choice policy for the nondeterministic ⁺-timestamps (see
// README-semantics.md): kMinimal takes the least admissible unfrozen gap,
// kAll enumerates every admissible unfrozen gap. dis *store* insertion
// gaps are always fully enumerated — dis timestamps carry information.
// kAll lists every enabled step, so it is also the witness check.
enum class ViewChoice { kMinimal, kAll };

// The threads of a parameterized instance in CFA form: one env template
// plus n dis programs over the same variable universe.
struct SimplSystem {
  const Cfa* env = nullptr;
  std::vector<const Cfa*> dis;
  Value dom = 2;
  std::size_t num_vars = 0;
};

// What a step did to shared memory — used for dependency tracking.
struct StepEffect {
  // Message read (valid if read=true): identified in the *pre-state*.
  bool read = false;
  bool read_is_env = false;
  VarId read_var;
  Value read_val = 0;
  View read_view;  // pre-state identity of the message
  // Message written (valid if wrote=true): identified in the *post-state*.
  bool wrote = false;
  bool wrote_is_env = false;
  VarId wrote_var;
  Value wrote_val = 0;
  View wrote_view;
  // True if the write added a genuinely new message (env messages may
  // re-insert an existing (x,d,vw) — the paper's repeated insertion).
  bool wrote_fresh = false;
  // The stepping actor's local configuration after the step (post-state
  // values), and whether it was new to the env-configuration set (always
  // true for dis threads). Used for provenance tracking in depgraph/.
  LocalCfg actor_after;
  bool actor_fresh = true;
};

// Appends every enabled step from `cfg` to `out`.
void EnumerateSteps(const SimplSystem& sys, const SimplConfig& cfg,
                    ViewChoice policy, std::vector<SimplStep>& out);

// Appends the enabled steps of one actor only: the env clone at
// env_cfgs()[idx], or dis thread idx.
void EnumerateActorSteps(const SimplSystem& sys, const SimplConfig& cfg,
                         ViewChoice policy, SimplStep::Actor actor,
                         std::uint32_t idx, std::vector<SimplStep>& out);

// Applies `step` (which must be enabled in `cfg`) in place and reports the
// memory effect. Asserts on disabled steps.
StepEffect ApplyStep(const SimplSystem& sys, SimplConfig& cfg,
                     const SimplStep& step);

}  // namespace rapar

#endif  // RAPAR_SIMPLIFIED_TRANSITIONS_H_
