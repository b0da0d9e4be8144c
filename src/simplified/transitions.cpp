#include "simplified/transitions.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace rapar {

namespace {

const Cfa& ActorCfa(const SimplSystem& sys, const SimplStep& step) {
  if (step.actor == SimplStep::Actor::kEnv) return *sys.env;
  return *sys.dis[step.actor_index];
}

const LocalCfg& ActorCfg(const SimplConfig& cfg, const SimplStep& step) {
  if (step.actor == SimplStep::Actor::kEnv) {
    return cfg.env_cfgs()[step.actor_index];
  }
  return cfg.dis_thread(step.actor_index);
}

// Enumerates the steps of one actor (env clone at env_cfgs()[idx], or dis
// thread idx).
void EnumerateActor(const SimplSystem& sys, const SimplConfig& cfg,
                    ViewChoice policy, SimplStep::Actor actor,
                    std::uint32_t idx, std::vector<SimplStep>& out) {
  const bool is_env = actor == SimplStep::Actor::kEnv;
  const Cfa& cfa = is_env ? *sys.env : *sys.dis[idx];
  const LocalCfg& lc =
      is_env ? cfg.env_cfgs()[idx] : cfg.dis_thread(idx);

  auto base_step = [&](EdgeId eid) {
    SimplStep s;
    s.actor = actor;
    s.actor_index = idx;
    s.edge = eid.value();
    return s;
  };

  for (EdgeId eid : cfa.OutEdges(lc.node)) {
    const Instr& instr = cfa.Edge(eid).instr;
    switch (instr.kind) {
      case Instr::Kind::kNop:
      case Instr::Kind::kAssign:
        out.push_back(base_step(eid));
        break;
      case Instr::Kind::kAssume:
        if (instr.expr->Eval(lc.rv, sys.dom) != 0) {
          out.push_back(base_step(eid));
        }
        break;
      case Instr::Kind::kAssertFail: {
        SimplStep s = base_step(eid);
        s.violation = true;
        out.push_back(std::move(s));
        break;
      }
      case Instr::Kind::kLoad: {
        const VarId x = instr.var;
        // From dis messages: timestamp check against the thread view.
        const auto& seq = cfg.DisMsgsOf(x);
        for (std::size_t p = 0; p < seq.size(); ++p) {
          if (seq[p].view[x] < lc.view[x]) continue;
          SimplStep s = base_step(eid);
          s.read_kind = SimplStep::ReadKind::kDisMsg;
          s.read_pos = static_cast<std::int32_t>(p);
          out.push_back(std::move(s));
        }
        // From env messages: always enabled; choose the clone gap.
        const auto& emsgs = cfg.env_msgs();
        for (std::size_t mi = 0; mi < emsgs.size(); ++mi) {
          if (emsgs[mi].var != x) continue;
          const int lo = std::max(GapOf(lc.view[x]), GapOf(emsgs[mi].ts()));
          if (policy == ViewChoice::kMinimal) {
            SimplStep s = base_step(eid);
            s.read_kind = SimplStep::ReadKind::kEnvMsg;
            s.read_pos = static_cast<std::int32_t>(mi);
            s.gap = cfg.NextFreeGap(x, lo);
            out.push_back(std::move(s));
          } else {
            for (int h = lo; h < cfg.NumGaps(x); ++h) {
              if (cfg.GapFrozen(x, h)) continue;
              SimplStep s = base_step(eid);
              s.read_kind = SimplStep::ReadKind::kEnvMsg;
              s.read_pos = static_cast<std::int32_t>(mi);
              s.gap = h;
              out.push_back(std::move(s));
            }
          }
        }
        break;
      }
      case Instr::Kind::kStore: {
        const VarId x = instr.var;
        const int lo = GapOf(lc.view[x]);
        if (is_env) {
          // env store: env message in a chosen unfrozen gap.
          if (policy == ViewChoice::kMinimal) {
            SimplStep s = base_step(eid);
            s.gap = cfg.NextFreeGap(x, lo);
            out.push_back(std::move(s));
          } else {
            for (int h = lo; h < cfg.NumGaps(x); ++h) {
              if (cfg.GapFrozen(x, h)) continue;
              SimplStep s = base_step(eid);
              s.gap = h;
              out.push_back(std::move(s));
            }
          }
        } else {
          // dis store: insertion position carries information — always
          // enumerate every unfrozen gap.
          for (int h = lo; h < cfg.NumGaps(x); ++h) {
            if (cfg.GapFrozen(x, h)) continue;
            SimplStep s = base_step(eid);
            s.gap = h;
            out.push_back(std::move(s));
          }
        }
        break;
      }
      case Instr::Kind::kCas: {
        assert(!is_env && "env threads are CAS-free in this system class");
        const VarId x = instr.var;
        const Value expected = lc.rv[instr.reg.index()];
        // CAS on a dis message t: view(x) <= 2t, value match, gap t not
        // frozen (adjacency).
        const auto& seq = cfg.DisMsgsOf(x);
        for (std::size_t p = 0; p < seq.size(); ++p) {
          if (seq[p].val != expected) continue;
          if (seq[p].view[x] < lc.view[x]) continue;
          if (cfg.GapFrozen(x, static_cast<int>(p))) continue;
          SimplStep s = base_step(eid);
          s.read_kind = SimplStep::ReadKind::kDisMsg;
          s.read_pos = static_cast<std::int32_t>(p);
          out.push_back(std::move(s));
        }
        // CAS on an env message: clone always readable; the store is an
        // ordinary dis insertion into a chosen gap (no freeze).
        const auto& emsgs = cfg.env_msgs();
        for (std::size_t mi = 0; mi < emsgs.size(); ++mi) {
          if (emsgs[mi].var != x || emsgs[mi].val != expected) continue;
          const int lo = std::max(GapOf(lc.view[x]), GapOf(emsgs[mi].ts()));
          for (int h = lo; h < cfg.NumGaps(x); ++h) {
            if (cfg.GapFrozen(x, h)) continue;
            SimplStep s = base_step(eid);
            s.read_kind = SimplStep::ReadKind::kEnvMsg;
            s.read_pos = static_cast<std::int32_t>(mi);
            s.gap = h;
            out.push_back(std::move(s));
          }
        }
        break;
      }
    }
  }
}

}  // namespace

void EnumerateSteps(const SimplSystem& sys, const SimplConfig& cfg,
                    ViewChoice policy, std::vector<SimplStep>& out) {
  for (std::uint32_t i = 0; i < cfg.env_cfgs().size(); ++i) {
    EnumerateActor(sys, cfg, policy, SimplStep::Actor::kEnv, i, out);
  }
  for (std::uint32_t i = 0; i < cfg.dis_threads().size(); ++i) {
    EnumerateActor(sys, cfg, policy, SimplStep::Actor::kDis, i, out);
  }
}

void EnumerateActorSteps(const SimplSystem& sys, const SimplConfig& cfg,
                         ViewChoice policy, SimplStep::Actor actor,
                         std::uint32_t idx, std::vector<SimplStep>& out) {
  EnumerateActor(sys, cfg, policy, actor, idx, out);
}

StepEffect ApplyStep(const SimplSystem& sys, SimplConfig& cfg,
                     const SimplStep& step) {
  StepEffect effect;
  const bool is_env = step.actor == SimplStep::Actor::kEnv;
  const Cfa& cfa = ActorCfa(sys, step);
  // Work on a copy of the actor's local configuration.
  LocalCfg lc = ActorCfg(cfg, step);
  const CfaEdge& edge = cfa.Edge(EdgeId(step.edge));
  const Instr& instr = edge.instr;
  assert(edge.from == lc.node);

  auto commit = [&](LocalCfg&& next) {
    next.node = edge.to;
    effect.actor_after = next;
    if (is_env) {
      effect.actor_fresh = cfg.AddEnvCfg(std::move(next));
    } else {
      effect.actor_fresh = true;
      cfg.dis_thread(step.actor_index) = std::move(next);
    }
  };

  switch (instr.kind) {
    case Instr::Kind::kNop:
    case Instr::Kind::kAssertFail:
      commit(std::move(lc));
      return effect;
    case Instr::Kind::kAssume:
      assert(instr.expr->Eval(lc.rv, sys.dom) != 0);
      commit(std::move(lc));
      return effect;
    case Instr::Kind::kAssign:
      lc.rv[instr.reg.index()] = instr.expr->Eval(lc.rv, sys.dom);
      commit(std::move(lc));
      return effect;
    case Instr::Kind::kLoad: {
      const VarId x = instr.var;
      if (step.read_kind == SimplStep::ReadKind::kDisMsg) {
        const DisMsg& msg = cfg.DisMsgsOf(x)[step.read_pos];
        assert(msg.view[x] >= lc.view[x]);
        effect.read = true;
        effect.read_is_env = false;
        effect.read_var = x;
        effect.read_val = msg.val;
        effect.read_view = msg.view;
        lc.rv[instr.reg.index()] = msg.val;
        lc.view = lc.view.Join(msg.view);
        commit(std::move(lc));
        return effect;
      }
      assert(step.read_kind == SimplStep::ReadKind::kEnvMsg);
      const EnvMsg msg = cfg.env_msgs()[step.read_pos];
      assert(msg.var == x);
      assert(step.gap >= std::max(GapOf(lc.view[x]), GapOf(msg.ts())));
      assert(!cfg.GapFrozen(x, step.gap));
      effect.read = true;
      effect.read_is_env = true;
      effect.read_var = x;
      effect.read_val = msg.val;
      effect.read_view = msg.view;
      lc.rv[instr.reg.index()] = msg.val;
      lc.view = lc.view.Join(msg.view);
      lc.view.Set(x, PlusTs(step.gap));  // the promoted clone's timestamp
      commit(std::move(lc));
      return effect;
    }
    case Instr::Kind::kStore: {
      const VarId x = instr.var;
      const Value d = lc.rv[instr.reg.index()];
      assert(step.gap >= GapOf(lc.view[x]));
      assert(!cfg.GapFrozen(x, step.gap));
      if (is_env) {
        EnvMsg msg;
        msg.var = x;
        msg.val = d;
        msg.view = lc.view;
        msg.view.Set(x, PlusTs(step.gap));
        lc.view = msg.view;
        effect.wrote = true;
        effect.wrote_is_env = true;
        effect.wrote_var = x;
        effect.wrote_val = d;
        effect.wrote_view = msg.view;
        effect.wrote_fresh = cfg.AddEnvMsg(std::move(msg));
        commit(std::move(lc));
        return effect;
      }
      cfg.InsertDisMsg(x, step.gap, d, lc.view, /*cas_on_dis=*/false);
      const DisMsg& inserted = cfg.DisMsgsOf(x)[step.gap + 1];
      // Renumbering may have shifted the thread's view on other variables?
      // No: insertion shifts only x-components, and the storer's x-view is
      // below the insertion point; adopt the message view.
      lc.view = inserted.view;
      effect.wrote = true;
      effect.wrote_is_env = false;
      effect.wrote_var = x;
      effect.wrote_val = d;
      effect.wrote_view = inserted.view;
      effect.wrote_fresh = true;
      commit(std::move(lc));
      return effect;
    }
    case Instr::Kind::kCas: {
      assert(!is_env);
      const VarId x = instr.var;
      const Value expected = lc.rv[instr.reg.index()];
      const Value desired = lc.rv[instr.reg2.index()];
      (void)expected;
      if (step.read_kind == SimplStep::ReadKind::kDisMsg) {
        const int t = step.read_pos;
        const DisMsg msg = cfg.DisMsgsOf(x)[t];
        assert(msg.val == expected);
        assert(msg.view[x] >= lc.view[x]);
        effect.read = true;
        effect.read_is_env = false;
        effect.read_var = x;
        effect.read_val = msg.val;
        effect.read_view = msg.view;
        const View base = lc.view.Join(msg.view);
        cfg.InsertDisMsg(x, t, desired, base, /*cas_on_dis=*/true);
        const DisMsg& inserted = cfg.DisMsgsOf(x)[t + 1];
        lc.view = inserted.view;
        effect.wrote = true;
        effect.wrote_is_env = false;
        effect.wrote_var = x;
        effect.wrote_val = desired;
        effect.wrote_view = inserted.view;
        effect.wrote_fresh = true;
        commit(std::move(lc));
        return effect;
      }
      assert(step.read_kind == SimplStep::ReadKind::kEnvMsg);
      const EnvMsg msg = cfg.env_msgs()[step.read_pos];
      assert(msg.var == x && msg.val == expected);
      assert(step.gap >= std::max(GapOf(lc.view[x]), GapOf(msg.ts())));
      effect.read = true;
      effect.read_is_env = true;
      effect.read_var = x;
      effect.read_val = msg.val;
      effect.read_view = msg.view;
      View base = lc.view.Join(msg.view);
      // The loaded clone sits at the top of the chosen gap; cap the base
      // view's x-component there before the insertion raises it.
      base.Set(x, std::min<AbsTs>(base[x], PlusTs(step.gap)));
      cfg.InsertDisMsg(x, step.gap, desired, base, /*cas_on_dis=*/false);
      const DisMsg& inserted = cfg.DisMsgsOf(x)[step.gap + 1];
      lc.view = inserted.view;
      effect.wrote = true;
      effect.wrote_is_env = false;
      effect.wrote_var = x;
      effect.wrote_val = desired;
      effect.wrote_view = inserted.view;
      effect.wrote_fresh = true;
      commit(std::move(lc));
      return effect;
    }
  }
  assert(false && "unreachable");
  return effect;
}

std::string SimplStep::ToString() const {
  std::string out =
      StrCat(actor == Actor::kEnv ? "env" : "dis", "[", actor_index,
             "] edge=", edge);
  if (read_kind == ReadKind::kDisMsg) out += StrCat(" read dis@", read_pos);
  if (read_kind == ReadKind::kEnvMsg) out += StrCat(" read env#", read_pos);
  if (gap >= 0) out += StrCat(" gap=", gap);
  if (violation) out += " VIOLATION";
  return out;
}

}  // namespace rapar
