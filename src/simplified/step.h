// A single transition of the simplified semantics, recorded with all
// nondeterministic choices resolved so that it can be deterministically
// replayed (depgraph/ rebuilds dependency graphs from step traces). Fields
// a step's instruction does not use keep their defaults; witness checking
// compares whole steps (simplified/witness_min.h).
#ifndef RAPAR_SIMPLIFIED_STEP_H_
#define RAPAR_SIMPLIFIED_STEP_H_

#include <cstdint>
#include <string>

#include "common/ids.h"

namespace rapar {

struct SimplStep {
  enum class Actor { kEnv, kDis };
  enum class ReadKind { kNone, kDisMsg, kEnvMsg };

  Actor actor = Actor::kEnv;
  // For env: index into the pre-state's env_cfgs() vector (the stepping
  // clone's configuration). For dis: the dis thread index.
  std::uint32_t actor_index = 0;
  // Edge id within the actor's CFA.
  std::uint32_t edge = 0;
  // Which message the instruction reads (loads and CAS).
  ReadKind read_kind = ReadKind::kNone;
  // kDisMsg: position in DisMsgsOf(var); kEnvMsg: index into env_msgs().
  std::int32_t read_pos = -1;
  // Chosen gap: env store / clone-promotion gap on env reads / dis store
  // insertion gap / CAS-on-env insertion gap. -1 when not applicable
  // (e.g. CAS on a dis message, where the gap is the loaded position).
  std::int32_t gap = -1;
  // The step traverses an `assert false` edge.
  bool violation = false;

  bool operator==(const SimplStep&) const = default;

  std::string ToString() const;
};

}  // namespace rapar

#endif  // RAPAR_SIMPLIFIED_STEP_H_
