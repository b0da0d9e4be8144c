// CFA compilation, analyses (acyc / nocas / PureRA), unrolling and the
// assert-to-goal-store rewrite.
#include "lang/cfa.h"

#include <gtest/gtest.h>

#include "lang/classify.h"
#include "lang/parser.h"
#include "lang/transform.h"
#include "lang/unroll.h"

namespace rapar {
namespace {

Program MustParse(const std::string& text) {
  Expected<Program> p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
  return std::move(p).value();
}

TEST(CfaTest, StraightLineShape) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      r := 1;
      x := r
    end
  )");
  Cfa cfa = Cfa::Build(p);
  EXPECT_TRUE(cfa.IsAcyclic());
  EXPECT_EQ(cfa.CountStoreInstructions(), 1);
  // entry, exit, one mid node.
  EXPECT_EQ(cfa.num_nodes(), 3u);
  EXPECT_EQ(cfa.edges().size(), 2u);
}

TEST(CfaTest, LoopIntroducesCycle) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      loop { r := x }
    end
  )");
  Cfa cfa = Cfa::Build(p);
  EXPECT_FALSE(cfa.IsAcyclic());
}

TEST(CfaTest, ChoiceForksFromOneNode) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      choice { r := 1 } or { r := 2 } or { r := 3 }
    end
  )");
  Cfa cfa = Cfa::Build(p);
  // All three branches leave the entry node.
  EXPECT_EQ(cfa.OutEdges(cfa.entry()).size(), 3u);
  EXPECT_TRUE(cfa.IsAcyclic());
}

TEST(CfaTest, CasCountsAsStoreInstruction) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r0 r1
    dom 4
    begin
      cas(x, r0, r1)
    end
  )");
  Cfa cfa = Cfa::Build(p);
  EXPECT_EQ(cfa.CountStoreInstructions(), 1);
}

TEST(UnrollTest, UnrolledLoopIsAcyclicAndPermitsUpToKIterations) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 8
    begin
      loop { r := r + 1 }
    end
  )");
  Program u = UnrollProgram(p, 3);
  Cfa cfa = Cfa::Build(u);
  EXPECT_TRUE(cfa.IsAcyclic());
  EXPECT_TRUE(Classify(u).loop_free);
}

TEST(UnrollTest, ZeroUnrollRemovesLoops) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 8
    begin
      loop { x := r }
    end
  )");
  Program u = UnrollProgram(p, 0);
  Cfa cfa = Cfa::Build(u);
  EXPECT_EQ(cfa.CountStoreInstructions(), 0);
}

TEST(UnrollTest, NestedLoopsUnrollRecursively) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 8
    begin
      loop { loop { r := r + 1 } }
    end
  )");
  Program u = UnrollProgram(p, 2);
  EXPECT_TRUE(Classify(u).loop_free);
}

TEST(TransformTest, AssertRewriteProducesGoalStore) {
  Program p = MustParse(R"(
    program q
    vars x goal
    regs r
    dom 4
    begin
      r := x;
      if (r == 1) { assert false }
    end
  )");
  VarId goal = p.vars().Find("goal");
  GoalRewrite gr = RewriteAssertToGoalStore(p, goal, 3);
  EXPECT_TRUE(gr.had_assert);
  EXPECT_FALSE(ContainsAssert(gr.program.body()));
  // The rewritten program gained the __goal register.
  EXPECT_TRUE(gr.program.regs().Find("__goal").valid());
  // And it still parses/prints consistently.
  Expected<Program> round = ParseProgram(gr.program.ToString());
  EXPECT_TRUE(round.ok()) << (round.ok() ? "" : round.error());
}

TEST(TransformTest, NoAssertMeansNoRewrite) {
  Program p = MustParse(R"(
    program q
    vars x
    regs r
    dom 4
    begin
      r := x
    end
  )");
  GoalRewrite gr = RewriteAssertToGoalStore(p, p.vars().Find("x"), 1);
  EXPECT_FALSE(gr.had_assert);
  EXPECT_FALSE(gr.program.regs().Find("__goal").valid());
}

TEST(TransformTest, RemapVarsRewritesAllAccesses) {
  Program p = MustParse(R"(
    program q
    vars a b
    regs r0 r1
    dom 4
    begin
      r0 := a;
      b := r0;
      cas(a, r0, r1)
    end
  )");
  // Swap a and b.
  std::vector<VarId> mapping = {VarId(1), VarId(0)};
  StmtPtr remapped = RemapVars(p.body(), mapping);
  const Stmt& seq = *remapped;
  ASSERT_EQ(seq.kind(), StmtKind::kSeq);
  EXPECT_EQ(seq.children()[0]->var(), VarId(1));  // load now from b-slot
}

TEST(ClassifyTest, PureRaAcceptsFigure6Shape) {
  // pick-style PureRA: store constant one, load-and-check.
  Program p = MustParse(R"(
    program pure
    vars t f s
    regs one tmp
    dom 2
    begin
      one := 1;
      choice { t := one } or { f := one };
      s := one;
      tmp := t;
      assume (tmp == 0)
    end
  )");
  EXPECT_TRUE(IsPureRA(p));
}

TEST(ClassifyTest, PureRaRejectsGeneralComputation) {
  Program p = MustParse(R"(
    program impure
    vars x
    regs r
    dom 4
    begin
      r := x;
      r := r + 1;
      x := r
    end
  )");
  EXPECT_FALSE(IsPureRA(p));
}

TEST(ClassifyTest, PureRaRejectsStoreOfLoadedValue) {
  Program p = MustParse(R"(
    program impure
    vars x y
    regs r
    dom 2
    begin
      r := x;
      y := r
    end
  )");
  EXPECT_FALSE(IsPureRA(p));
}

}  // namespace
}  // namespace rapar
