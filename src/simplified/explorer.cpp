#include "simplified/explorer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "common/deadline.h"

namespace rapar {

namespace {

bool GoalIn(const SimplConfig& cfg,
            const std::optional<std::pair<VarId, Value>>& goal) {
  return goal.has_value() &&
         cfg.HasGeneratedMessage(goal->first, goal->second);
}

}  // namespace

SimplConfig InitialConfig(const SimplSystem& sys) {
  std::vector<std::size_t> dis_regs;
  dis_regs.reserve(sys.dis.size());
  for (const Cfa* d : sys.dis) dis_regs.push_back(d->program().regs().size());
  return SimplConfig(sys.num_vars, sys.env->program().regs().size(),
                     dis_regs);
}

// Applies env steps until fixpoint. Every step that adds an env message or
// configuration is appended to `log` (deterministically replayable).
// Returns true if the search should stop (violation with stop request, or
// goal found); fills the result fields accordingly.
//
// Soundness of eager saturation: env transitions only ever add to the
// monotone components (messages/configurations) and never disable any
// transition — neither env nor dis (reads are enabled by more messages;
// gap freezing stems only from the dis part, which env steps do not
// touch). Hence interleaving env steps eagerly preserves exactly the set
// of reachable dis-part behaviours and the set of generable messages.
struct SaturationOutcome {
  bool violation = false;
  std::size_t violation_log_len = 0;  // log length at violation time
  bool goal = false;
  bool complete = true;  // false if the budget expired mid-saturation
};

static SaturationOutcome SaturateEnv(
    const SimplSystem& sys, SimplConfig& cfg, ViewChoice policy,
    const std::optional<std::pair<VarId, Value>>& goal,
    std::vector<SimplStep>& log, Deadline& deadline) {
  SaturationOutcome outcome;
  outcome.goal = GoalIn(cfg, goal);
  if (outcome.goal) return outcome;

  std::vector<SimplStep> steps;
  bool changed = true;
  while (changed) {
    changed = false;
    // Iterate over a snapshot of configuration values; indices move as the
    // sorted set grows, so every application re-resolves its index.
    const std::vector<LocalCfg> snapshot = cfg.env_cfgs();
    for (const LocalCfg& value : snapshot) {
      if (deadline.Poll()) {
        outcome.complete = false;
        return outcome;
      }
      const auto& cfgs = cfg.env_cfgs();
      auto it = std::lower_bound(cfgs.begin(), cfgs.end(), value);
      assert(it != cfgs.end() && *it == value);
      std::uint32_t idx = static_cast<std::uint32_t>(it - cfgs.begin());
      steps.clear();
      EnumerateActorSteps(sys, cfg, policy, SimplStep::Actor::kEnv, idx,
                          steps);
      for (SimplStep step : steps) {
        // Re-resolve the actor index: earlier applications may have
        // inserted configurations below it.
        const auto& cur = cfg.env_cfgs();
        auto it2 = std::lower_bound(cur.begin(), cur.end(), value);
        assert(it2 != cur.end() && *it2 == value);
        step.actor_index = static_cast<std::uint32_t>(it2 - cur.begin());
        StepEffect eff = ApplyStep(sys, cfg, step);
        const bool added =
            eff.actor_fresh ||
            (eff.wrote && eff.wrote_is_env && eff.wrote_fresh);
        if (added) {
          log.push_back(step);
          changed = true;
        }
        if (step.violation && !outcome.violation) {
          outcome.violation = true;
          if (!added) log.push_back(step);
          outcome.violation_log_len = log.size();
        }
        if (added && GoalIn(cfg, goal)) {
          outcome.goal = true;
          return outcome;
        }
      }
    }
  }
  return outcome;
}

SimplResult SimplExplorer::Check(const SimplExplorerOptions& options) {
  reachable_env_de_.clear();
  reachable_dis_de_.clear();
  generated_messages_.clear();
  SimplResult result;
  Deadline deadline(options.time_budget_ms);

  struct NodeInfo {
    std::int64_t parent;
    // Steps taken from the parent state: for saturating exploration, the
    // dis step followed by the env-saturation log; for plain BFS a single
    // step.
    std::vector<SimplStep> steps;
    int depth;
  };

  std::deque<SimplConfig> states;
  std::vector<NodeInfo> info;
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_dis_part;
  std::deque<std::size_t> frontier;

  auto note_config = [&](const SimplConfig& cfg) {
    for (const LocalCfg& c : cfg.env_cfgs()) {
      reachable_env_de_.emplace(c.node.value(), c.rv);
    }
    for (std::size_t i = 0; i < cfg.dis_threads().size(); ++i) {
      const LocalCfg& t = cfg.dis_thread(i);
      reachable_dis_de_.emplace(i, t.node.value(), t.rv);
    }
    for (const EnvMsg& m : cfg.env_msgs()) {
      generated_messages_.emplace(m.var.value(), m.val, true);
    }
    for (std::size_t xi = 0; xi < cfg.num_vars(); ++xi) {
      const auto& seq = cfg.DisMsgsOf(VarId(static_cast<std::uint32_t>(xi)));
      for (std::size_t p = 1; p < seq.size(); ++p) {
        generated_messages_.emplace(static_cast<std::uint32_t>(xi),
                                    seq[p].val, false);
      }
    }
  };

  // Reconstructs the step sequence leading to state `idx`, plus `extra`.
  auto witness_to = [&](std::int64_t idx,
                        const std::vector<SimplStep>& extra) {
    std::vector<std::vector<SimplStep>> chunks;
    chunks.push_back(extra);
    while (idx >= 0) {
      chunks.push_back(info[idx].steps);
      idx = info[idx].parent;
    }
    std::vector<SimplStep> ordered;
    for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
      ordered.insert(ordered.end(), it->begin(), it->end());
    }
    return ordered;
  };

  // Dedup by equality within the configuration's dis-part bucket
  // (DESIGN.md §2 says why not by covering).
  auto seen = [&](const SimplConfig& cfg) {
    auto it = by_dis_part.find(cfg.DisPartHash());
    if (it == by_dis_part.end()) return false;
    for (std::size_t id : it->second) {
      if (states[id] == cfg) return true;
    }
    return false;
  };

  // Handles violation/goal outcomes of a saturation pass over the state
  // that will live at `state_idx_hint` (or the root). Returns true if the
  // search should stop now.
  auto absorb_outcome = [&](const SaturationOutcome& outcome,
                            std::int64_t parent,
                            const std::vector<SimplStep>& steps_from_parent,
                            std::size_t states_now) {
    if (!outcome.complete) {
      // Saturation only aborts on budget expiry.
      result.exhaustive = false;
      result.budget_hit = deadline.hit();
    }
    if (outcome.violation && !result.violation) {
      result.violation = true;
      std::vector<SimplStep> upto(
          steps_from_parent.begin(),
          steps_from_parent.begin() +
              static_cast<std::ptrdiff_t>(outcome.violation_log_len));
      result.witness = witness_to(parent, upto);
      if (options.stop_on_violation && !options.goal.has_value()) {
        result.states = states_now;
        result.exhaustive = false;
        return true;
      }
    }
    if (outcome.goal && !result.goal_reached) {
      result.goal_reached = true;
      result.witness = witness_to(parent, steps_from_parent);
      if (options.stop_on_violation) {
        result.states = states_now;
        result.exhaustive = false;
        return true;
      }
    }
    return false;
  };

  // Root state: saturate the initial configuration.
  {
    SimplConfig init = InitialConfig(sys_);
    std::vector<SimplStep> log;
    SaturationOutcome outcome = SaturateEnv(
        sys_, init, options.policy, options.goal, log, deadline);
    states.push_back(std::move(init));
    info.push_back(NodeInfo{-1, std::move(log), 0});
    by_dis_part[states[0].DisPartHash()].push_back(0);
    frontier.push_back(0);
    note_config(states[0]);
    // For the root, witness chunks come from info[0].steps via parent -1:
    // pass them as `extra` against parent -1 explicitly.
    if (outcome.violation || outcome.goal) {
      std::vector<SimplStep> full = info[0].steps;
      SaturationOutcome adj = outcome;
      if (absorb_outcome(adj, -1, full, states.size())) return result;
    }
    if (!outcome.complete) {
      result.exhaustive = false;
      result.budget_hit = deadline.hit();
    }
  }

  std::vector<SimplStep> dis_steps;
  while (!frontier.empty()) {
    if (deadline.Poll()) {
      result.exhaustive = false;
      result.budget_hit = deadline.hit();
      result.states = states.size();
      return result;
    }
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    const int depth = info[cur].depth;
    if (depth >= options.max_depth) {
      result.exhaustive = false;
      continue;
    }
    dis_steps.clear();
    for (std::uint32_t i = 0; i < states[cur].dis_threads().size(); ++i) {
      EnumerateActorSteps(sys_, states[cur], options.policy,
                          SimplStep::Actor::kDis, i, dis_steps);
    }
    for (const SimplStep& dstep : dis_steps) {
      SimplConfig next = states[cur];
      ApplyStep(sys_, next, dstep);
      std::vector<SimplStep> log;
      log.push_back(dstep);
      SaturationOutcome outcome = SaturateEnv(
          sys_, next, options.policy, options.goal, log, deadline);

      if (dstep.violation && !result.violation) {
        result.violation = true;
        result.witness = witness_to(static_cast<std::int64_t>(cur),
                                    {dstep});
        if (options.stop_on_violation && !options.goal.has_value()) {
          result.states = states.size();
          result.exhaustive = false;
          return result;
        }
      }
      if (absorb_outcome(outcome, static_cast<std::int64_t>(cur), log,
                         states.size())) {
        return result;
      }

      if (seen(next)) continue;

      const std::size_t id = states.size();
      states.push_back(std::move(next));
      info.push_back(NodeInfo{static_cast<std::int64_t>(cur),
                              std::move(log), depth + 1});
      by_dis_part[states[id].DisPartHash()].push_back(id);
      frontier.push_back(id);
      note_config(states[id]);

      if (states.size() >= options.max_states) {
        result.exhaustive = false;
        result.states = states.size();
        return result;
      }
    }
  }
  result.states = states.size();
  return result;
}

}  // namespace rapar
