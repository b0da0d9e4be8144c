#include "dlopt/dl_diagnostics.h"

#include "common/strings.h"

namespace rapar::dlopt {

namespace {

// Rules render long (views inline one argument per variable); keep the
// one-line diagnostic format readable.
std::string Clip(std::string s) {
  constexpr std::size_t kMax = 96;
  if (s.size() > kMax) {
    s.resize(kMax - 3);
    s += "...";
  }
  return s;
}

}  // namespace

DlAnalysis AnalyzeDlProgram(const dl::Program& prog, const dl::Atom& goal,
                            const DlOptOptions& options) {
  DlAnalysis a;
  a.graph = PredGraph::Build(prog);
  a.width = AnalyzeWidth(prog, a.graph, goal.pred);
  a.opt = OptimizeForQuery(prog, goal, options);

  auto emit = [&](Severity sev, const char* code, std::string message) {
    a.diagnostics.push_back(
        Diagnostic{sev, code, std::move(message), SrcLoc{}});
  };

  for (const dl::UnboundVar& v : dl::UnboundVars(prog)) {
    emit(Severity::kError, "RA025",
         StrCat("range-restriction violation in '",
                Clip(prog.RuleToString(prog.rules()[v.rule_index])),
                "': ", v.detail));
  }

  for (std::size_t i = 0; i < a.opt.cause.size(); ++i) {
    const std::string rule = Clip(prog.RuleToString(prog.rules()[i]));
    switch (a.opt.cause[i]) {
      case RemovalCause::kKept:
        break;
      case RemovalCause::kUnreachable:
        emit(Severity::kWarning, "RA020",
             StrCat("dead rule: '", rule, "' — predicate '",
                    prog.pred(prog.rules()[i].head.pred).name,
                    "' cannot reach the query '",
                    prog.pred(goal.pred).name, "'"));
        break;
      case RemovalCause::kUnproductive:
        emit(Severity::kWarning, "RA021",
             StrCat("rule can never fire: '", rule,
                    "' — a body atom matches no head that can hold a "
                    "tuple"));
        break;
      case RemovalCause::kUndemanded:
        emit(Severity::kNote, "RA022",
             StrCat("demand-pruned rule: '", rule,
                    "' — its head constants are outside the cone the "
                    "query demands"));
        break;
      case RemovalCause::kCopyAliased:
        emit(Severity::kNote, "RA027",
             StrCat("copy rule inlined: '", rule,
                    "' — its head predicate has no other derivation, so "
                    "it is aliased to the body predicate"));
        break;
    }
  }

  for (const SccWidth& w : a.width.sccs) {
    if (w.num_rules == 0) continue;
    std::string members;
    for (dl::PredId p : a.graph.sccs[w.scc]) {
      if (!a.graph.mentioned[p]) continue;
      members += StrCat(members.empty() ? "" : " ", prog.pred(p).name);
    }
    std::string msg =
        StrCat("scc {", members, "} is ", WidthClassName(w.cls),
               w.recursive ? " (recursive)" : "", ": ");
    if (w.cls == WidthClass::kLinear || w.cls == WidthClass::kCache) {
      msg += "the bounded-cache solver (⊢_k) applies";
      if (w.linear_transform_applicable) {
        msg += "; bodies have <= 3 atoms, so the Lemma 4.2 "
               "linearisation applies too";
      }
    } else if (w.cls == WidthClass::kWide) {
      msg += StrCat("some rule joins ", w.max_idb_body_atoms,
                    " IDB atoms — outside the Cache Datalog fragment, "
                    "standard evaluation only");
    }
    emit(Severity::kNote, "RA026", std::move(msg));
  }
  if (a.width.static_k_bound.has_value()) {
    emit(Severity::kNote, "RA026",
         StrCat("query cone is non-recursive: static cache bound k <= ",
                *a.width.static_k_bound,
                " (condensation height x max body + 1)"));
  }

  SortDiagnostics(a.diagnostics);
  return a;
}

}  // namespace rapar::dlopt
