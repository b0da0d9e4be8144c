#include "core/trace_render.h"

#include "common/strings.h"

namespace rapar {

namespace {

std::string ViewStr(const View& vw, const VarTable& vars) {
  std::string out = "{";
  for (std::size_t i = 0; i < vw.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(vars.Name(VarId(static_cast<std::uint32_t>(i))), "->",
                  AbsTsToString(vw.Slot(i)));
  }
  return out + "}";
}

}  // namespace

std::string RenderTrace(const SimplSystem& sys,
                        const std::vector<SimplStep>& witness,
                        const TraceRenderOptions& options) {
  const VarTable& vars = sys.env->program().vars();
  SimplConfig cfg = InitialConfig(sys);
  std::string out;
  int step_no = 0;
  for (const SimplStep& step : witness) {
    const bool is_env = step.actor == SimplStep::Actor::kEnv;
    const Cfa& cfa = is_env ? *sys.env : *sys.dis[step.actor_index];
    const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
    StepEffect eff = ApplyStep(sys, cfg, step);

    if (options.elide_silent && !eff.read && !eff.wrote &&
        !step.violation && instr.kind != Instr::Kind::kAssume) {
      ++step_no;
      continue;
    }

    std::string who =
        is_env ? "env " : StrCat("dis", step.actor_index, " ");
    out += StrCat("  ", step_no, ": ", who,
                  instr.ToString(cfa.program().vars(),
                                 cfa.program().regs()));
    if (eff.read) {
      out += StrCat("   <- reads ", eff.read_is_env ? "env" : "dis",
                    " msg (", vars.Name(eff.read_var), ",", eff.read_val,
                    ") ", ViewStr(eff.read_view, vars));
    }
    if (eff.wrote) {
      out += StrCat("   -> writes ", eff.wrote_is_env ? "env" : "dis",
                    " msg (", vars.Name(eff.wrote_var), ",", eff.wrote_val,
                    ") ", ViewStr(eff.wrote_view, vars));
      if (!eff.wrote_fresh) out += " (re-insertion)";
    }
    if (step.violation) out += "   ** assertion violation **";
    out += "\n";
    ++step_no;
  }
  return out;
}

}  // namespace rapar
