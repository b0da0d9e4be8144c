// Unit tests for src/dlopt/: predicate dependency graph, rule checks,
// width analysis, query-driven optimization, and the RA02x diagnostics —
// all on small hand-built programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "dlopt/dl_diagnostics.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"

namespace rapar::dlopt {
namespace {

using dl::Atom;
using dl::C;
using dl::Native;
using dl::PredId;
using dl::Program;
using dl::Rule;
using dl::Sym;
using dl::V;

Native NamedCheck(const std::string& name, std::vector<dl::Term> inputs,
                  bool result = true) {
  Native n;
  n.name = name;
  n.inputs = std::move(inputs);
  n.fn = [result](std::span<const Sym>, Sym*) { return result; };
  return n;
}

// edge facts a->b->c->d, path = transitive closure, plus a predicate
// `stray` no rule for the query depends on.
struct TcProgram {
  Program prog;
  PredId edge, path, stray;
  Sym a, b, c, d;

  TcProgram() {
    edge = prog.AddPred("edge", 2);
    path = prog.AddPred("path", 2);
    stray = prog.AddPred("stray", 1);
    a = prog.ConstSym("a");
    b = prog.ConstSym("b");
    c = prog.ConstSym("c");
    d = prog.ConstSym("d");
    prog.AddFact(Atom{edge, {C(a), C(b)}});
    prog.AddFact(Atom{edge, {C(b), C(c)}});
    prog.AddFact(Atom{edge, {C(c), C(d)}});
    prog.AddRule(
        Rule{Atom{path, {V(0), V(1)}}, {Atom{edge, {V(0), V(1)}}}, {}});
    prog.AddRule(Rule{Atom{path, {V(0), V(2)}},
                      {Atom{path, {V(0), V(1)}}, Atom{edge, {V(1), V(2)}}},
                      {}});
    prog.AddRule(
        Rule{Atom{stray, {V(0)}}, {Atom{edge, {V(0), V(1)}}}, {}});
  }
};

// --- PredGraph -----------------------------------------------------------

TEST(PredGraphTest, BuildAndSccs) {
  TcProgram tc;
  PredGraph g = PredGraph::Build(tc.prog);
  ASSERT_EQ(g.num_preds, 3u);
  EXPECT_FALSE(g.is_idb[tc.edge]);
  EXPECT_TRUE(g.is_idb[tc.path]);
  EXPECT_TRUE(g.has_fact[tc.edge]);
  EXPECT_FALSE(g.has_fact[tc.path]);
  // path -> {edge, path}: the self-dependency makes its SCC recursive.
  EXPECT_TRUE(g.scc_recursive[g.scc_of[tc.path]]);
  EXPECT_FALSE(g.scc_recursive[g.scc_of[tc.edge]]);
  // Topological numbering: dependencies point to higher component ids.
  EXPECT_LT(g.scc_of[tc.path], g.scc_of[tc.edge]);
}

// Productivity is pass 1 of OptimizeForQuery (value-level, below); the
// graph only answers reachability.
TEST(PredGraphTest, ReachableAndProductive) {
  TcProgram tc;
  PredGraph g = PredGraph::Build(tc.prog);
  std::vector<bool> cone = g.ReachableFrom(tc.path);
  EXPECT_TRUE(cone[tc.path]);
  EXPECT_TRUE(cone[tc.edge]);
  EXPECT_FALSE(cone[tc.stray]);

  // Every rule can fire, stray included: the only removal is the
  // unreachable stray rule.
  OptimizeResult r =
      OptimizeForQuery(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}});
  EXPECT_EQ(r.stats.unproductive_removed, 0u);
  EXPECT_EQ(r.cause[5], RemovalCause::kUnreachable);
}

TEST(PredGraphTest, UnproductiveChainIsDetected) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  PredId empty = prog.AddPred("empty", 1);
  Sym a = prog.ConstSym("a");
  // p(X) :- q(X).  q(X) :- empty(X).  No facts at all.
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{q, {V(0)}}}, {}});
  prog.AddRule(Rule{Atom{q, {V(0)}}, {Atom{empty, {V(0)}}}, {}});
  OptimizeResult r = OptimizeForQuery(prog, Atom{p, {C(a)}});
  EXPECT_EQ(r.cause[0], RemovalCause::kUnproductive);
  EXPECT_EQ(r.cause[1], RemovalCause::kUnproductive);
  EXPECT_EQ(r.prog.size(), 0u);
}

TEST(PredGraphTest, DumpsMentionEveryUsedPredicate) {
  TcProgram tc;
  PredGraph g = PredGraph::Build(tc.prog);
  const std::string text = g.ToText(tc.prog);
  EXPECT_NE(text.find("path"), std::string::npos);
  EXPECT_NE(text.find("edge"), std::string::npos);
  const std::string dot = g.ToDot(tc.prog, g.ReachableFrom(tc.path));
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("path/2"), std::string::npos);
}

// --- rule checks ---------------------------------------------------------

TEST(RuleChecksTest, RangeRestrictionViolations) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  // Bad: head variable V1 unbound.
  prog.AddRule(Rule{Atom{p, {V(1)}}, {Atom{q, {V(0)}}}, {}});
  // Bad: native input V2 unbound.
  {
    Rule r{Atom{p, {V(0)}}, {Atom{q, {V(0)}}}, {}};
    r.natives.push_back(NamedCheck("chk", {V(2)}));
    prog.AddRule(std::move(r));
  }
  // Good: head variable bound by a native *output*, whose input chains
  // from the body.
  {
    Rule r{Atom{p, {V(3)}}, {Atom{q, {V(0)}}}, {}};
    Native n = NamedCheck("mk", {V(0)});
    n.output = 3;
    n.fn = [](std::span<const Sym> in, Sym* o) {
      *o = in[0];
      return true;
    };
    r.natives.push_back(std::move(n));
    prog.AddRule(std::move(r));
  }
  std::vector<dl::UnboundVar> v = dl::UnboundVars(prog);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule_index, 0u);
  EXPECT_EQ(v[1].rule_index, 1u);
}

// --- width ---------------------------------------------------------------

TEST(WidthTest, ClassifiesLinearCacheAndWide) {
  Program prog;
  PredId e = prog.AddPred("e", 2);
  PredId lin = prog.AddPred("lin", 2);
  PredId cache = prog.AddPred("cache", 2);
  PredId wide = prog.AddPred("wide", 2);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{e, {C(a), C(a)}});
  prog.AddRule(Rule{Atom{lin, {V(0), V(1)}}, {Atom{e, {V(0), V(1)}}}, {}});
  prog.AddRule(Rule{Atom{cache, {V(0), V(2)}},
                    {Atom{lin, {V(0), V(1)}}, Atom{lin, {V(1), V(2)}}},
                    {}});
  prog.AddRule(Rule{Atom{wide, {V(0), V(3)}},
                    {Atom{cache, {V(0), V(1)}}, Atom{cache, {V(1), V(2)}},
                     Atom{cache, {V(2), V(3)}}},
                    {}});
  PredGraph g = PredGraph::Build(prog);
  WidthReport all = AnalyzeWidth(prog, g);
  EXPECT_EQ(all.program_cls, WidthClass::kWide);
  EXPECT_FALSE(all.program_recursive);

  // Restricted to the cone of `cache`, the wide rule is invisible.
  WidthReport cone = AnalyzeWidth(prog, g, cache);
  EXPECT_EQ(cone.program_cls, WidthClass::kCache);
  ASSERT_TRUE(cone.static_k_bound.has_value());
  EXPECT_GE(*cone.static_k_bound, 3u);

  const std::string text = all.ToString(prog, g);
  EXPECT_NE(text.find("wide"), std::string::npos);
}

TEST(WidthTest, RecursiveConeHasNoStaticBound) {
  TcProgram tc;
  PredGraph g = PredGraph::Build(tc.prog);
  WidthReport w = AnalyzeWidth(tc.prog, g, tc.path);
  EXPECT_TRUE(w.program_recursive);
  EXPECT_FALSE(w.static_k_bound.has_value());
  // Two body atoms, but only one on an IDB predicate: linear fragment.
  EXPECT_EQ(w.program_cls, WidthClass::kLinear);
}

// --- optimize ------------------------------------------------------------

TEST(OptimizeTest, DropsRulesOutsideTheQueryCone) {
  TcProgram tc;
  OptimizeResult r =
      OptimizeForQuery(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}});
  // The stray rule is backward-unreachable from path.
  EXPECT_EQ(r.stats.unreachable_removed, 1u);
  EXPECT_EQ(r.cause[5], RemovalCause::kUnreachable);
  EXPECT_EQ(r.prog.size(), tc.prog.size() - 1);
  // The answer is preserved.
  EXPECT_TRUE(dl::Query(r.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}));
  EXPECT_FALSE(dl::Query(r.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
}

TEST(OptimizeTest, DropsUnproductiveRules) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId ghost = prog.AddPred("ghost", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  // p(X) :- ghost(X): ghost has no facts and no rules.
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{ghost, {V(0)}}}, {}});
  OptimizeResult r = OptimizeForQuery(prog, Atom{p, {C(a)}});
  EXPECT_EQ(r.stats.unproductive_removed, 1u);
  EXPECT_EQ(r.cause[1], RemovalCause::kUnproductive);
  EXPECT_TRUE(dl::Query(r.prog, Atom{p, {C(a)}}));
}

// Value-level productivity: msg(x, v) with two values and a goal per
// value. Only the fact's constants and the heads of productive rules
// make a body atom match.
struct ValueProgram {
  Program prog;
  PredId msg, goal;
  Sym x, one, two;

  ValueProgram() {
    msg = prog.AddPred("msg", 2);
    goal = prog.AddPred("goal", 0);
    x = prog.ConstSym("x");
    one = prog.ConstSym("1");
    two = prog.ConstSym("2");
    prog.AddFact(Atom{msg, {C(x), C(one)}});
  }
};

TEST(OptimizeTest, ConstantClashIsUnproductive) {
  ValueProgram vp;
  // goal :- msg(x, 2): only msg(x, 1) can hold.
  vp.prog.AddRule(Rule{Atom{vp.goal, {}}, {Atom{vp.msg, {C(vp.x), C(vp.two)}}},
                       {}});
  OptimizeResult r = OptimizeForQuery(vp.prog, Atom{vp.goal, {}});
  EXPECT_EQ(r.cause[1], RemovalCause::kUnproductive);
  EXPECT_EQ(r.stats.unproductive_removed, 1u);
  EXPECT_EQ(r.prog.size(), 0u);
}

TEST(OptimizeTest, VariableOrEqualConstantKeepsTheRule) {
  ValueProgram vp;
  vp.prog.AddRule(Rule{Atom{vp.goal, {}}, {Atom{vp.msg, {C(vp.x), V(0)}}},
                       {}});
  vp.prog.AddRule(Rule{Atom{vp.goal, {}}, {Atom{vp.msg, {C(vp.x), C(vp.one)}}},
                       {}});
  vp.prog.AddRule(Rule{Atom{vp.goal, {}}, {Atom{vp.msg, {V(0), C(vp.one)}}},
                       {}});
  OptimizeResult r = OptimizeForQuery(vp.prog, Atom{vp.goal, {}});
  EXPECT_EQ(r.stats.unproductive_removed, 0u);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_NE(r.cause[i], RemovalCause::kUnproductive) << i;
  }
  EXPECT_TRUE(dl::Query(r.prog, Atom{vp.goal, {}}));
}

TEST(OptimizeTest, FactConstantsCount) {
  // goal :- msg(x, 2) is unproductive next to the fact msg(x, 1) alone;
  // a fact msg(x, 2), or a productive rule whose head leaves the value a
  // variable, makes it productive.
  ValueProgram vp;
  PredId src = vp.prog.AddPred("src", 1);
  vp.prog.AddRule(Rule{Atom{vp.goal, {}}, {Atom{vp.msg, {C(vp.x), C(vp.two)}}},
                       {}});
  Program with_fact = vp.prog;
  with_fact.AddFact(Atom{vp.msg, {C(vp.x), C(vp.two)}});
  EXPECT_EQ(OptimizeForQuery(with_fact, Atom{vp.goal, {}})
                .stats.unproductive_removed,
            0u);
  Program with_rule = vp.prog;
  with_rule.AddFact(Atom{src, {C(vp.two)}});
  with_rule.AddRule(
      Rule{Atom{vp.msg, {C(vp.x), V(0)}}, {Atom{src, {V(0)}}}, {}});
  EXPECT_EQ(OptimizeForQuery(with_rule, Atom{vp.goal, {}})
                .stats.unproductive_removed,
            0u);
  EXPECT_EQ(OptimizeForQuery(vp.prog, Atom{vp.goal, {}})
                .stats.unproductive_removed,
            1u);
}

TEST(OptimizeTest, UnproductiveRemovalCascadesAlongAChain) {
  // msg(x, 2) :- msg(x, 2) is no source of value 2 (least fixpoint), so
  // everything that needs msg(x, 2) goes, and then, one rule after the
  // other, s1, s2, the only writer of msg(x, 3) and the goal rule.
  ValueProgram vp;
  PredId s1 = vp.prog.AddPred("s1", 1);
  PredId s2 = vp.prog.AddPred("s2", 1);
  Sym three = vp.prog.ConstSym("3");
  vp.prog.AddRule(Rule{Atom{vp.msg, {C(vp.x), C(vp.two)}},
                       {Atom{vp.msg, {C(vp.x), C(vp.two)}}}, {}});
  vp.prog.AddRule(Rule{Atom{s1, {V(0)}},
                       {Atom{vp.msg, {C(vp.x), C(vp.two)}},
                        Atom{vp.msg, {V(0), C(vp.one)}}},
                       {}});
  vp.prog.AddRule(Rule{Atom{s2, {V(0)}}, {Atom{s1, {V(0)}}}, {}});
  vp.prog.AddRule(Rule{Atom{vp.msg, {C(vp.x), C(three)}},
                       {Atom{s2, {V(0)}}}, {}});
  vp.prog.AddRule(Rule{Atom{vp.goal, {}},
                       {Atom{vp.msg, {C(vp.x), C(three)}}}, {}});
  OptimizeResult r = OptimizeForQuery(vp.prog, Atom{vp.goal, {}});
  for (std::size_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(r.cause[i], RemovalCause::kUnproductive) << i;
  }
  EXPECT_EQ(r.stats.unproductive_removed, 5u);
  EXPECT_EQ(r.prog.size(), 0u);
}

TEST(OptimizeTest, RepeatedVariablesAreNotUnified) {
  // same(x, 1) is a fact; goal :- same(Y, Y) cannot match it (x != 1),
  // but pass 1 does not unify repeated variables, so the rule stays: an
  // over-approximation, never a wrong removal.
  ValueProgram vp;
  PredId same = vp.prog.AddPred("same", 2);
  vp.prog.AddFact(Atom{same, {C(vp.x), C(vp.one)}});
  vp.prog.AddRule(
      Rule{Atom{vp.goal, {}}, {Atom{same, {V(0), V(0)}}}, {}});
  OptimizeResult r = OptimizeForQuery(vp.prog, Atom{vp.goal, {}});
  EXPECT_EQ(r.stats.unproductive_removed, 0u);
  EXPECT_EQ(r.cause[2], RemovalCause::kKept);
  EXPECT_FALSE(dl::Query(r.prog, Atom{vp.goal, {}}));
}

TEST(OptimizeTest, DemandSpecializationPrunesForeignConstants) {
  // Two "pc chains" like makeP's dtp predicates: the query only demands
  // location l2, so the rule deriving l9 feeds nothing.
  Program prog;
  PredId at = prog.AddPred("at", 2);
  PredId goal = prog.AddPred("goal", 0);
  Sym l1 = prog.ConstSym("l1");
  Sym l2 = prog.ConstSym("l2");
  Sym l9 = prog.ConstSym("l9");
  Sym v = prog.ConstSym("v");
  prog.AddFact(Atom{at, {C(l1), C(v)}});
  prog.AddRule(
      Rule{Atom{at, {C(l2), V(0)}}, {Atom{at, {C(l1), V(0)}}}, {}});
  prog.AddRule(
      Rule{Atom{at, {C(l9), V(0)}}, {Atom{at, {C(l1), V(0)}}}, {}});
  prog.AddRule(Rule{Atom{goal, {}}, {Atom{at, {C(l2), V(0)}}}, {}});
  OptimizeResult r = OptimizeForQuery(prog, Atom{goal, {}});
  EXPECT_EQ(r.stats.demand_removed, 1u);
  EXPECT_EQ(r.cause[2], RemovalCause::kUndemanded);
  EXPECT_TRUE(dl::Query(r.prog, Atom{goal, {}}));
}

TEST(OptimizeTest, DemandTopWhenPositionHasVariableUse) {
  // A body occurrence with a variable in the position makes the demand ⊤:
  // nothing may be pruned on that argument.
  Program prog;
  PredId at = prog.AddPred("at", 1);
  PredId goal = prog.AddPred("goal", 0);
  Sym l1 = prog.ConstSym("l1");
  Sym l2 = prog.ConstSym("l2");
  prog.AddFact(Atom{at, {C(l1)}});
  prog.AddRule(Rule{Atom{at, {C(l2)}}, {Atom{at, {C(l1)}}}, {}});
  prog.AddRule(Rule{Atom{goal, {}}, {Atom{at, {V(0)}}}, {}});
  OptimizeResult r = OptimizeForQuery(prog, Atom{goal, {}});
  EXPECT_EQ(r.stats.demand_removed, 0u);
  EXPECT_EQ(r.prog.size(), prog.size());
}

TEST(OptimizeTest, KeepsRulesEqualUpToRenaming) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 2);
  Sym a = prog.ConstSym("a");
  Sym k = prog.ConstSym("k");
  prog.AddFact(Atom{q, {C(a), C(k)}});
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{q, {V(0), V(1)}}}, {}});
  // The rule above with its variables renamed: it derives nothing new,
  // and the optimizer has no pass that looks for it, so it stays.
  prog.AddRule(Rule{Atom{p, {V(7)}}, {Atom{q, {V(7), V(3)}}}, {}});
  // Strictly more specific than the general rule: it stays too.
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{q, {V(0), C(k)}}}, {}});
  const Atom goal{p, {C(a)}};
  OptimizeResult r = OptimizeForQuery(prog, goal);
  ASSERT_EQ(r.cause.size(), 4u);
  for (const RemovalCause c : r.cause) EXPECT_EQ(c, RemovalCause::kKept);
  EXPECT_EQ(r.stats.rules_after, 4u);
  EXPECT_EQ(r.prog.ToString(), prog.ToString());
  // The kept copy changes no tuple: the raw and the optimized program
  // derive the same extensions and answer the query alike.
  EXPECT_TRUE(dl::Query(prog, goal));
  EXPECT_TRUE(dl::Query(r.prog, goal));
  const dl::Database raw = dl::Eval(prog);
  const dl::Database opt = dl::Eval(r.prog);
  for (const PredId pred : {p, q}) {
    std::vector<std::vector<Sym>> raw_tuples = raw.Tuples(pred);
    std::vector<std::vector<Sym>> opt_tuples = opt.Tuples(pred);
    std::sort(raw_tuples.begin(), raw_tuples.end());
    std::sort(opt_tuples.begin(), opt_tuples.end());
    EXPECT_EQ(opt_tuples, raw_tuples) << prog.pred(pred).name;
  }
}

TEST(OptimizeTest, StatsToStringIsReadable) {
  TcProgram tc;
  OptimizeResult r =
      OptimizeForQuery(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}});
  const std::string s = r.stats.ToString();
  EXPECT_NE(s.find("rules 6 -> 5"), std::string::npos) << s;
  DlOptStats sum = r.stats;
  sum += r.stats;
  EXPECT_EQ(sum.rules_before, 2 * r.stats.rules_before);
}

TEST(OptimizeTest, CopyAliasChainCollapsesToItsSource) {
  // goal :- p; p(X,Y) :- q(X,Y); q(X,Y) :- r(X,Y); r facts. p and q are
  // identity copies with a single deriving rule each, so both alias away
  // and the goal rule reads r directly.
  Program prog;
  PredId goal = prog.AddPred("goal", 0);
  PredId p = prog.AddPred("p", 2);
  PredId q = prog.AddPred("q", 2);
  PredId r = prog.AddPred("r", 2);
  Sym a = prog.ConstSym("a");
  Sym b = prog.ConstSym("b");
  prog.AddFact(Atom{r, {C(a), C(b)}});
  prog.AddRule(Rule{Atom{goal, {}}, {Atom{p, {C(a), V(0)}}}, {}});
  prog.AddRule(Rule{Atom{p, {V(0), V(1)}}, {Atom{q, {V(0), V(1)}}}, {}});
  prog.AddRule(Rule{Atom{q, {V(0), V(1)}}, {Atom{r, {V(0), V(1)}}}, {}});
  OptimizeResult res = OptimizeForQuery(prog, Atom{goal, {}});
  EXPECT_EQ(res.stats.copy_aliased_removed, 2u);
  // Input order: r fact, goal rule, p :- q, q :- r.
  EXPECT_EQ(res.cause[2], RemovalCause::kCopyAliased);
  EXPECT_EQ(res.cause[3], RemovalCause::kCopyAliased);
  // The surviving goal rule was rewritten to consume r.
  bool goal_reads_r = false;
  for (const Rule& rule : res.prog.rules()) {
    if (rule.head.pred != goal) continue;
    ASSERT_EQ(rule.body.size(), 1u);
    goal_reads_r = rule.body[0].pred == r;
  }
  EXPECT_TRUE(goal_reads_r);
  EXPECT_TRUE(dl::Query(res.prog, Atom{goal, {}}));
}

TEST(OptimizeTest, CopyAliasRespectsExtraDerivationsAndTheGoal) {
  // p has a second deriving rule, so the identity copy is NOT p's only
  // derivation and must stay. The goal predicate itself never aliases.
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  PredId s = prog.AddPred("s", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{q, {C(a)}});
  prog.AddFact(Atom{s, {C(a)}});
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{q, {V(0)}}}, {}});
  prog.AddRule(Rule{Atom{p, {V(0)}}, {Atom{s, {V(0)}}}, {}});
  OptimizeResult res = OptimizeForQuery(prog, Atom{p, {C(a)}});
  EXPECT_EQ(res.stats.copy_aliased_removed, 0u);
  // Single copy rule onto the goal predicate: kept (goal must survive).
  Program prog2;
  PredId g2 = prog2.AddPred("g", 1);
  PredId q2 = prog2.AddPred("q", 1);
  Sym a2 = prog2.ConstSym("a");
  prog2.AddFact(Atom{q2, {C(a2)}});
  prog2.AddRule(Rule{Atom{g2, {V(0)}}, {Atom{q2, {V(0)}}}, {}});
  OptimizeResult res2 = OptimizeForQuery(prog2, Atom{g2, {C(a2)}});
  EXPECT_EQ(res2.stats.copy_aliased_removed, 0u);
  EXPECT_TRUE(dl::Query(res2.prog, Atom{g2, {C(a2)}}));
}

// --- diagnostics ---------------------------------------------------------

TEST(DlDiagnosticsTest, EmitsExpectedCodes) {
  TcProgram tc;
  // Add a range-restriction violation and a renamed copy of the dead
  // `stray` rule.
  tc.prog.AddRule(
      Rule{Atom{tc.path, {V(0), V(9)}}, {Atom{tc.edge, {V(0), V(1)}}}, {}});
  tc.prog.AddRule(
      Rule{Atom{tc.stray, {V(4)}}, {Atom{tc.edge, {V(4), V(2)}}}, {}});
  DlAnalysis a =
      AnalyzeDlProgram(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}});
  auto has = [&](const char* code) {
    return std::any_of(a.diagnostics.begin(), a.diagnostics.end(),
                       [&](const Diagnostic& d) { return d.code == code; });
  };
  EXPECT_TRUE(has("RA020"));  // stray rules: dead
  EXPECT_TRUE(has("RA025"));  // unbound head variable
  EXPECT_TRUE(has("RA026"));  // width report
  for (const Diagnostic& d : a.diagnostics) {
    EXPECT_FALSE(d.loc.valid()) << d.code;  // synthetic program
  }
}

// --- engine stats (satellite fix) ----------------------------------------

TEST(EngineStatsTest, QueryResetsStatsAtEntry) {
  TcProgram tc;
  dl::EvalStats stats;
  ASSERT_TRUE(dl::Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}, &stats));
  const std::size_t first = stats.tuples;
  ASSERT_GT(first, 0u);
  // Re-solving with the same struct must not accumulate.
  ASSERT_TRUE(dl::Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}, &stats));
  EXPECT_EQ(stats.tuples, first);
}

TEST(EngineStatsTest, EngineTracksLastAndTotal) {
  TcProgram tc;
  dl::Engine engine;
  EXPECT_TRUE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}));
  const std::size_t one = engine.last_stats().tuples;
  EXPECT_GT(one, 0u);
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_FALSE(engine.last_stats().goal_found);
  // The second solve's counts are its own, as a cold Query counts them.
  dl::EvalStats cold;
  EXPECT_FALSE(dl::Query(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}, &cold));
  EXPECT_EQ(engine.last_stats().tuples, cold.tuples);
}

TEST(EngineStatsTest, BudgetAbortStillRecordsPartialStats) {
  TcProgram tc;
  dl::Engine engine;
  dl::EvalOptions opts;
  opts.max_tuples = 2;
  EXPECT_THROW(
      engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}, opts),
      std::runtime_error);
  EXPECT_GT(engine.last_stats().tuples, 0u);
}

}  // namespace
}  // namespace rapar::dlopt
