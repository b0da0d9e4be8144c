#include "core/param_system.h"

#include "common/strings.h"
#include "lang/parser.h"
#include "lang/transform.h"
#include "lang/unroll.h"

namespace rapar {

Expected<ParamSystem> ParamSystem::Builder::Build() const {
  if (!have_env_) {
    return Expected<ParamSystem>::Error("no env program set");
  }
  ParamSystem sys;
  sys.dom_ = env_.dom();
  for (const Program& d : dis_) {
    if (d.dom() != sys.dom_) {
      return Expected<ParamSystem>::Error(
          StrCat("domain mismatch: env has dom ", sys.dom_, ", dis '",
                 d.name(), "' has dom ", d.dom()));
    }
  }

  // Unified variable table: env's variables first, then new dis variables
  // in order of appearance. CFAs and explorers require every program to
  // see the full variable universe.
  std::vector<const Program*> inputs = {&env_};
  for (const Program& d : dis_) inputs.push_back(&d);
  std::vector<Program> programs = MergeVarTables(inputs);
  sys.vars_ = programs[0].vars();
  sys.env_program_ = std::move(programs[0]);
  std::vector<Classification> dis_classes;
  for (std::size_t i = 1; i < programs.size(); ++i) {
    Program unified = std::move(programs[i]);
    Classification c = Classify(unified);
    if (!c.loop_free) {
      if (unroll_ <= 0) {
        return Expected<ParamSystem>::Error(
            StrCat("dis program '", unified.name(),
                   "' has loops; set UnrollDis(k) to bound them"));
      }
      unified = UnrollProgram(unified, unroll_);
      c = Classify(unified);
    }
    dis_classes.push_back(std::move(c));
    sys.dis_programs_.push_back(std::move(unified));
  }

  // Class validation: Table 1 requires CAS-freedom of the env threads
  // specifically (dis threads may CAS).
  Classification env_class = Classify(sys.env_program_);
  if (!env_class.cas_free) {
    return Expected<ParamSystem>::Error(
        StrCat("env program '", sys.env_program_.name(),
               "' must be CAS-free: ", env_class.cas_detail,
               " puts the system in env(cas), undecidable (Theorem 1.1); "
               "rejected"));
  }

  sys.signature_ = StrCat("env(", env_class.ToString(), ")");
  for (std::size_t i = 0; i < dis_classes.size(); ++i) {
    sys.signature_ +=
        StrCat(" || dis", i + 1, "(", dis_classes[i].ToString(), ")");
  }
  sys.signature_ +=
      StrCat("  [", ClassifySystem(env_class, dis_classes).ToString(), "]");

  sys.env_cfa_ = std::make_unique<Cfa>(Cfa::Build(sys.env_program_));
  for (const Program& d : sys.dis_programs_) {
    sys.dis_cfas_.push_back(std::make_unique<Cfa>(Cfa::Build(d)));
  }
  sys.simpl_.env = sys.env_cfa_.get();
  for (const auto& d : sys.dis_cfas_) sys.simpl_.dis.push_back(d.get());
  sys.simpl_.dom = sys.dom_;
  sys.simpl_.num_vars = sys.vars_.size();
  return sys;
}

int ParamSystem::TimestampBudget() const {
  int t = 0;
  for (const auto& d : dis_cfas_) t += d->CountStoreInstructions();
  return t;
}

int ParamSystem::Q0() const {
  std::size_t dis_size = 0;
  for (const auto& d : dis_cfas_) dis_size += d->edges().size();
  return static_cast<int>(dom_ * static_cast<Value>(vars_.size()) +
                          static_cast<Value>(dis_size));
}

Expected<ParamSystem> BuildSystem(const ProgramSource& env,
                                  const std::vector<ProgramSource>& dis,
                                  int unroll) {
  ParamSystem::Builder builder;
  builder.UnrollDis(unroll);
  for (std::size_t i = 0; i <= dis.size(); ++i) {
    const ProgramSource& source = i == 0 ? env : dis[i - 1];
    Expected<Program> program = ParseProgram(std::string(source.text));
    if (!program.ok()) {
      return Expected<ParamSystem>::Error(
          StrCat(source.label, ": ", program.error()));
    }
    if (i == 0) {
      builder.Env(std::move(program).value());
    } else {
      builder.Dis(std::move(program).value());
    }
  }
  return builder.Build();
}

Expected<std::pair<VarId, Value>> ResolveGoal(const ParamSystem& sys,
                                              std::string_view var,
                                              long long val,
                                              std::string_view val_name) {
  using E = Expected<std::pair<VarId, Value>>;
  const VarId id = sys.vars().Find(std::string(var));
  if (!id.valid()) return E::Error(StrCat("unknown variable '", var, "'"));
  if (val < 0 || val >= sys.dom()) {
    return E::Error(StrCat(val_name, " ", val, " is outside the domain 0..",
                           sys.dom() - 1, " of the system"));
  }
  return std::pair{id, static_cast<Value>(val)};
}

PreparedSystem PrepareSystem(const SimplSystem& base, bool run_prepass,
                             VarId protect) {
  PreparedSystem p;
  p.simpl = base;
  if (!run_prepass) return p;
  PrepassResult r = RunPrepass(*base.env, base.dis, protect);
  p.stats = r.stats;
  if (!r.stats.Any()) return p;  // nothing pruned: keep original CFAs
  p.env = std::make_unique<Cfa>(std::move(r.env));
  p.simpl.env = p.env.get();
  p.simpl.dis.clear();
  for (Cfa& d : r.dis) {
    p.dis.push_back(std::make_unique<Cfa>(std::move(d)));
    p.simpl.dis.push_back(p.dis.back().get());
  }
  return p;
}

}  // namespace rapar
