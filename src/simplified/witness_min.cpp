#include "simplified/witness_min.h"

#include <algorithm>

namespace rapar {

bool StepEnabled(const SimplSystem& sys, const SimplConfig& cfg,
                 const SimplStep& step) {
  const std::size_t actors = step.actor == SimplStep::Actor::kEnv
                                 ? cfg.env_cfgs().size()
                                 : cfg.dis_threads().size();
  if (step.actor_index >= actors) return false;
  std::vector<SimplStep> listed;
  EnumerateActorSteps(sys, cfg, ViewChoice::kAll, step.actor,
                      step.actor_index, listed);
  return std::find(listed.begin(), listed.end(), step) != listed.end();
}

std::optional<std::vector<StepEffect>> ReplayWitness(
    const SimplSystem& sys, const std::vector<SimplStep>& steps,
    SimplConfig* final_cfg) {
  SimplConfig cfg = InitialConfig(sys);
  std::vector<StepEffect> effects;
  effects.reserve(steps.size());
  for (const SimplStep& step : steps) {
    if (!StepEnabled(sys, cfg, step)) return std::nullopt;
    effects.push_back(ApplyStep(sys, cfg, step));
  }
  if (final_cfg != nullptr) *final_cfg = std::move(cfg);
  return effects;
}

namespace {

// Steps referenced by *value* rather than by container index, so that
// removing an earlier step does not invalidate later references: the env
// actor is its local configuration, an env message read is the message
// itself. (Dis reads stay positional: dis memory layout rarely changes
// during minimisation, and any drift is caught by the validity checks.)
struct SemStep {
  SimplStep proto;     // actor kind, dis index, edge, gap, violation
  LocalCfg env_actor;  // valid when proto.actor == kEnv
  EnvMsg env_read;     // valid when proto.read_kind == kEnvMsg
};

// Converts an index-based witness into semantic steps (one replay).
std::vector<SemStep> ToSemantic(const SimplSystem& sys,
                                const std::vector<SimplStep>& steps) {
  std::vector<SemStep> out;
  out.reserve(steps.size());
  SimplConfig cfg = InitialConfig(sys);
  for (const SimplStep& step : steps) {
    SemStep sem;
    sem.proto = step;
    if (step.actor == SimplStep::Actor::kEnv) {
      sem.env_actor = cfg.env_cfgs()[step.actor_index];
    }
    if (step.read_kind == SimplStep::ReadKind::kEnvMsg) {
      sem.env_read = cfg.env_msgs()[step.read_pos];
    }
    out.push_back(std::move(sem));
    ApplyStep(sys, cfg, step);
  }
  return out;
}

// Replays semantic steps, re-resolving indices against the current
// configuration. Returns false when a reference cannot be resolved or a
// step is disabled; on success optionally returns the concrete steps and
// the final configuration.
bool SemReplay(const SimplSystem& sys, const std::vector<SemStep>& sem,
               std::vector<SimplStep>* concrete, SimplConfig* final_cfg) {
  SimplConfig cfg = InitialConfig(sys);
  if (concrete != nullptr) concrete->clear();
  for (const SemStep& s : sem) {
    SimplStep step = s.proto;
    if (step.actor == SimplStep::Actor::kEnv) {
      const auto& cfgs = cfg.env_cfgs();
      auto it = std::lower_bound(cfgs.begin(), cfgs.end(), s.env_actor);
      if (it == cfgs.end() || !(*it == s.env_actor)) return false;
      step.actor_index = static_cast<std::uint32_t>(it - cfgs.begin());
    }
    if (step.read_kind == SimplStep::ReadKind::kEnvMsg) {
      const auto& msgs = cfg.env_msgs();
      auto it = std::lower_bound(msgs.begin(), msgs.end(), s.env_read);
      if (it == msgs.end() || !(*it == s.env_read)) return false;
      step.read_pos = static_cast<std::int32_t>(it - msgs.begin());
    }
    if (!StepEnabled(sys, cfg, step)) return false;
    ApplyStep(sys, cfg, step);
    if (concrete != nullptr) concrete->push_back(step);
  }
  if (final_cfg != nullptr) *final_cfg = std::move(cfg);
  return true;
}

}  // namespace

std::vector<SimplStep> MinimizeWitness(const SimplSystem& sys,
                                       std::vector<SimplStep> steps,
                                       const WitnessProperty& property) {
  {
    SimplConfig final_cfg;
    if (!ReplayWitness(sys, steps, &final_cfg) ||
        !property(final_cfg, steps)) {
      return steps;  // refuse to "minimise" invalid input
    }
  }
  std::vector<SemStep> sem = ToSemantic(sys, steps);

  auto valid = [&](const std::vector<SemStep>& candidate) {
    std::vector<SimplStep> concrete;
    SimplConfig final_cfg;
    return SemReplay(sys, candidate, &concrete, &final_cfg) &&
           property(final_cfg, concrete);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = sem.size(); i-- > 0;) {
      std::vector<SemStep> candidate;
      candidate.reserve(sem.size() - 1);
      candidate.insert(candidate.end(), sem.begin(),
                       sem.begin() + static_cast<std::ptrdiff_t>(i));
      candidate.insert(candidate.end(),
                       sem.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       sem.end());
      if (valid(candidate)) {
        sem = std::move(candidate);
        changed = true;
      }
    }
  }
  std::vector<SimplStep> out;
  SemReplay(sys, sem, &out, nullptr);
  return out;
}

WitnessProperty ViolationProperty() {
  return [](const SimplConfig&, const std::vector<SimplStep>& steps) {
    return !steps.empty() && steps.back().violation;
  };
}

WitnessProperty GoalProperty(VarId var, Value val) {
  return [var, val](const SimplConfig& cfg, const std::vector<SimplStep>&) {
    return cfg.HasGeneratedMessage(var, val);
  };
}

}  // namespace rapar
