// The analysis library: dataflow framework, constant propagation,
// reachability, liveness, footprints, prepass pruning and diagnostics.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/constprop.h"
#include "analysis/dataflow.h"
#include "analysis/diagnostics.h"
#include "analysis/footprint.h"
#include "analysis/liveness.h"
#include "analysis/prepass.h"
#include "analysis/reachability.h"
#include "lang/cfa.h"
#include "lang/parser.h"

namespace rapar {
namespace {

Program MustParse(const std::string& text) {
  Expected<Program> p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
  return std::move(p).value();
}

bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

// --- dataflow framework ------------------------------------------------------

TEST(DataflowTest, InEdgesMirrorOutEdges) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 2
    begin
      choice { r := x } or { x := r };
      r := 1
    end
  )");
  Cfa cfa = Cfa::Build(p);
  const std::vector<std::vector<EdgeId>> in = ComputeInEdges(cfa);
  std::size_t total = 0;
  for (const auto& v : in) total += v.size();
  EXPECT_EQ(total, cfa.edges().size());
  for (std::size_t n = 0; n < cfa.num_nodes(); ++n) {
    for (EdgeId e : in[n]) {
      EXPECT_EQ(cfa.Edge(e).to.index(), n);
    }
  }
}

// --- constant propagation ----------------------------------------------------

TEST(ConstPropTest, TracksConstantsAndGuardVerdicts) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r s
    dom 4
    begin
      r := 1;
      assume (r == 1);
      assume (r == 2);
      x := s
    end
  )");
  Cfa cfa = Cfa::Build(p);
  ConstPropResult cp = RunConstProp(cfa);
  // Registers start at 0; after r := 1, r is the constant 1.
  ASSERT_EQ(cfa.edges().size(), 4u);
  int always_true = 0, always_false = 0;
  for (GuardVerdict g : cp.guards) {
    always_true += g == GuardVerdict::kAlwaysTrue;
    always_false += g == GuardVerdict::kAlwaysFalse;
  }
  EXPECT_EQ(always_true, 1);   // assume (r == 1)
  EXPECT_EQ(always_false, 1);  // assume (r == 2)
  // The store after the false guard is unreachable.
  const CfaEdge& store = cfa.edges().back();
  EXPECT_EQ(store.instr.kind, Instr::Kind::kStore);
  EXPECT_FALSE(cp.node_reachable[store.from.index()]);
}

TEST(ConstPropTest, LoadsGoToTopAndGuardsRefine) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      r := x;
      assume (r == 3);
      assume (r == 3)
    end
  )");
  Cfa cfa = Cfa::Build(p);
  ConstPropResult cp = RunConstProp(cfa);
  // First guard is unknown (r is Top after the load); the second is
  // constantly true because the first pinned r to 3.
  std::vector<GuardVerdict> gs;
  for (std::size_t i = 0; i < cfa.edges().size(); ++i) {
    if (cfa.edges()[i].instr.kind == Instr::Kind::kAssume) {
      gs.push_back(cp.guards[i]);
    }
  }
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0], GuardVerdict::kUnknown);
  EXPECT_EQ(gs[1], GuardVerdict::kAlwaysTrue);
}

TEST(ConstPropTest, JoinLosesDisagreeingConstants) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      choice { r := 1 } or { r := 2 };
      assume (r == 1)
    end
  )");
  Cfa cfa = Cfa::Build(p);
  ConstPropResult cp = RunConstProp(cfa);
  for (std::size_t i = 0; i < cfa.edges().size(); ++i) {
    if (cfa.edges()[i].instr.kind == Instr::Kind::kAssume) {
      EXPECT_EQ(cp.guards[i], GuardVerdict::kUnknown);
    }
  }
}

TEST(ConstPropTest, TerminatesOnLoops) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      loop { r := r + 1 };
      assume (r == 0)
    end
  )");
  Cfa cfa = Cfa::Build(p);
  ConstPropResult cp = RunConstProp(cfa);
  for (bool reachable : cp.node_reachable) EXPECT_TRUE(reachable);
}

// --- reachability ------------------------------------------------------------

TEST(ReachabilityTest, DeadEdgesBehindFalseGuard) {
  Program p = MustParse(R"(
    program q
    vars x
    regs one
    dom 2
    begin
      one := 1;
      choice { skip } or { assume (one == 0); assert false }
    end
  )");
  Cfa cfa = Cfa::Build(p);
  ReachabilityResult r = AnalyzeReachability(cfa);
  // The false guard itself and the assert edge behind it are dead.
  EXPECT_GE(r.num_dead_edges, 2u);
  ASSERT_EQ(r.dead_assert_edges.size(), 1u);
  EXPECT_EQ(cfa.Edge(r.dead_assert_edges[0]).instr.kind,
            Instr::Kind::kAssertFail);
}

TEST(ReachabilityTest, HandBuiltCfaWithUnreachableComponent) {
  // Entry --nop--> 1; nodes 2,3 form a disconnected component whose edge
  // must be reported dead.
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 2
    begin
      skip
    end
  )");
  std::vector<CfaEdge> edges;
  edges.push_back(CfaEdge{NodeId(0), NodeId(1), Instr(Instr::Kind::kNop)});
  Instr store(Instr::Kind::kStore);
  store.var = VarId(0);
  store.reg = RegId(0);
  edges.push_back(CfaEdge{NodeId(2), NodeId(3), store});
  Cfa cfa = Cfa::FromParts(p, 4, std::move(edges));
  ReachabilityResult r = AnalyzeReachability(cfa);
  EXPECT_TRUE(r.node_reachable[0]);
  EXPECT_TRUE(r.node_reachable[1]);
  EXPECT_FALSE(r.node_reachable[2]);
  EXPECT_FALSE(r.node_reachable[3]);
  EXPECT_FALSE(r.edge_dead[0]);
  EXPECT_TRUE(r.edge_dead[1]);
  EXPECT_EQ(r.num_dead_edges, 1u);
}

// --- liveness ----------------------------------------------------------------

TEST(LivenessTest, DeadAssignAndDeadLoadDetected) {
  Program p = MustParse(R"(
    program q
    vars x
    regs a b c
    dom 4
    begin
      a := 1;
      b := 2;
      c := x;
      x := a
    end
  )");
  Cfa cfa = Cfa::Build(p);
  LivenessResult live = AnalyzeLiveness(cfa);
  int dead_assigns = 0, dead_loads = 0, live_assigns = 0;
  for (std::size_t i = 0; i < cfa.edges().size(); ++i) {
    const Instr& instr = cfa.edges()[i].instr;
    if (instr.kind == Instr::Kind::kAssign) {
      (live.assign_dead[i] ? dead_assigns : live_assigns) += 1;
    }
    dead_loads += live.load_dead[i];
  }
  EXPECT_EQ(dead_assigns, 1);  // b := 2
  EXPECT_EQ(live_assigns, 1);  // a := 1 feeds the store
  EXPECT_EQ(dead_loads, 1);    // c := x
}

TEST(LivenessTest, SelfReferentialAssignKeepsSourceLive) {
  Program p = MustParse(R"(
    program q
    vars x
    regs a
    dom 4
    begin
      a := 1;
      a := a + 1;
      x := a
    end
  )");
  Cfa cfa = Cfa::Build(p);
  LivenessResult live = AnalyzeLiveness(cfa);
  for (std::size_t i = 0; i < cfa.edges().size(); ++i) {
    EXPECT_FALSE(live.assign_dead[i]) << "edge " << i;
  }
}

// --- footprints --------------------------------------------------------------

TEST(FootprintTest, PerThreadAndSystemWideSets) {
  Program writer = MustParse(R"(
    program w
    vars x y
    regs one
    dom 2
    begin
      one := 1;
      x := one
    end
  )");
  Program reader = MustParse(R"(
    program r
    vars x y
    regs a
    dom 2
    begin
      a := x;
      y := a
    end
  )");
  Cfa wc = Cfa::Build(writer);
  Cfa rc = Cfa::Build(reader);
  // The writer alone only stores: it observes nothing.
  EXPECT_EQ(ObservedVars({&wc}, 2), std::vector<bool>({false, false}));

  std::vector<bool> observed = ObservedVars({&wc, &rc}, 2);
  EXPECT_TRUE(observed[0]);   // reader loads x
  EXPECT_FALSE(observed[1]);  // y is stored but never read
}

TEST(FootprintTest, CasCountsAsReadAndWrite) {
  Program p = MustParse(R"(
    program q
    vars t
    regs zero one
    dom 2
    begin
      one := 1;
      cas(t, zero, one)
    end
  )");
  Cfa cfa = Cfa::Build(p);
  EXPECT_TRUE(ObservedVars({&cfa}, 1)[0]);
}

// --- prepass -----------------------------------------------------------------

TEST(PrepassTest, PrunesAllFourKinds) {
  Program p = MustParse(R"(
    program q
    vars flag debug
    regs one tmp r
    dom 3
    begin
      one := 1;
      tmp := 2;
      debug := one;
      flag := one;
      r := flag;
      assume (one == 1);
      choice { skip } or { assume (one == 2); assert false }
    end
  )");
  Cfa cfa = Cfa::Build(p);
  PrepassResult res = RunPrepass(cfa, {}, VarId::Invalid());
  EXPECT_GE(res.stats.dead_edges_removed, 2u);  // false guard + assert
  EXPECT_EQ(res.stats.guards_folded, 1u);       // assume (one == 1)
  EXPECT_EQ(res.stats.stores_sliced, 1u);       // debug := one
  EXPECT_EQ(res.stats.assigns_dropped, 1u);     // tmp := 2
  EXPECT_TRUE(res.stats.Any());
  // Node ids survive; only edges changed.
  EXPECT_EQ(res.env.num_nodes(), cfa.num_nodes());
  EXPECT_EQ(res.env.edges().size(),
            cfa.edges().size() - res.stats.dead_edges_removed);
  // The pruned CFA is stable: pruning again removes nothing.
  PrepassResult again = RunPrepass(res.env, {}, VarId::Invalid());
  EXPECT_FALSE(again.stats.Any());
}

TEST(PrepassTest, GoalVariableStoresAreProtected) {
  Program p = MustParse(R"(
    program q
    vars g
    regs one
    dom 2
    begin
      one := 1;
      g := one
    end
  )");
  Cfa cfa = Cfa::Build(p);
  // Without protection the store to g (never read) is sliced...
  PrepassResult unprotected = RunPrepass(cfa, {}, VarId::Invalid());
  EXPECT_EQ(unprotected.stats.stores_sliced, 1u);
  // ...with g as the MG goal it must stay.
  PrepassResult protected_run = RunPrepass(cfa, {}, VarId(0));
  EXPECT_EQ(protected_run.stats.stores_sliced, 0u);
  bool has_store = false;
  for (const CfaEdge& e : protected_run.env.edges()) {
    has_store |= e.instr.kind == Instr::Kind::kStore;
  }
  EXPECT_TRUE(has_store);
}

TEST(PrepassTest, ObservedAcrossThreadsBlocksSlicing) {
  Program writer = MustParse(R"(
    program w
    vars x
    regs one
    dom 2
    begin
      one := 1;
      x := one
    end
  )");
  Program reader = MustParse(R"(
    program r
    vars x
    regs a
    dom 2
    begin
      a := x;
      assume (a == 1)
    end
  )");
  Cfa wc = Cfa::Build(writer);
  Cfa rc = Cfa::Build(reader);
  PrepassResult res = RunPrepass(wc, {&rc}, VarId::Invalid());
  // The reader observes x, so the writer's store must survive.
  EXPECT_EQ(res.stats.stores_sliced, 0u);
}

// --- diagnostics -------------------------------------------------------------

TEST(DiagnosticsTest, EnvCasYieldsRa001WithLocation) {
  Program p = MustParse(R"(program t
vars ticket
regs zero one
dom 2
begin
  one := 1;
  cas(ticket, zero, one)
end)");
  std::vector<Diagnostic> diags = LintProgram(p, {});
  ASSERT_TRUE(HasCode(diags, "RA001"));
  for (const Diagnostic& d : diags) {
    if (d.code != "RA001") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_TRUE(d.loc.valid());
    EXPECT_EQ(d.loc.line, 7);
    EXPECT_NE(d.message.find("Theorem 1.1"), std::string::npos);
  }
  // As a dis thread the same program is unremarkable.
  LintOptions dis;
  dis.role = ThreadRole::kDis;
  EXPECT_FALSE(HasCode(LintProgram(p, dis), "RA001"));
}

TEST(DiagnosticsTest, LintCoversDeadCodeFamilies) {
  Program p = MustParse(R"(
    program q
    vars flag debug
    regs one tmp r
    dom 3
    begin
      one := 1;
      tmp := 2;
      debug := one;
      flag := one;
      r := flag;
      choice { skip } or { assume (one == 2); assert false }
    end
  )");
  std::vector<Diagnostic> diags = LintProgram(p, {});
  EXPECT_TRUE(HasCode(diags, "RA003"));  // debug := one never observed
  EXPECT_TRUE(HasCode(diags, "RA004"));  // tmp := 2 never read
  EXPECT_TRUE(HasCode(diags, "RA005"));  // r := flag never used
  EXPECT_TRUE(HasCode(diags, "RA007"));  // assume (one == 2)
  EXPECT_TRUE(HasCode(diags, "RA009"));  // assert false unreachable
  EXPECT_FALSE(HasCode(diags, "RA001"));
}

TEST(DiagnosticsTest, SystemObservedSetSuppressesDeadStore) {
  Program writer = MustParse(R"(
    program w
    vars x
    regs one
    dom 2
    begin
      one := 1;
      x := one
    end
  )");
  // Alone, the store to x is dead...
  EXPECT_TRUE(HasCode(LintProgram(writer, {}), "RA003"));
  // ...but not when the system-wide observed set says x is read.
  LintOptions system_view;
  system_view.observed_vars = {true};
  EXPECT_FALSE(HasCode(LintProgram(writer, system_view), "RA003"));
}

TEST(DiagnosticsTest, RenderMatchesCompilerConvention) {
  const std::string text = "program q\nvars x\nregs r\ndom 2\nbegin\n  r := x\nend\n";
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = "RA005";
  d.message = "loaded value is never used";
  d.loc = SrcLoc{6, 3};
  const std::string out = RenderDiagnostic(d, "demo.rap", text);
  EXPECT_NE(out.find("demo.rap:6:3: warning: RA005: "), std::string::npos);
  EXPECT_NE(out.find("6 |   r := x"), std::string::npos);
  EXPECT_NE(out.find("^"), std::string::npos);
}

TEST(DiagnosticsTest, SortOrdersByPositionThenCode) {
  std::vector<Diagnostic> diags;
  diags.push_back({Severity::kNote, "RA008", "later", SrcLoc{9, 1}});
  diags.push_back({Severity::kNote, "RA002", "no position", SrcLoc{}});
  diags.push_back({Severity::kWarning, "RA004", "earlier", SrcLoc{3, 5}});
  SortDiagnostics(diags);
  EXPECT_EQ(diags[0].code, "RA004");
  EXPECT_EQ(diags[1].code, "RA008");
  EXPECT_EQ(diags[2].code, "RA002");  // unknown positions sort last
}

}  // namespace
}  // namespace rapar
