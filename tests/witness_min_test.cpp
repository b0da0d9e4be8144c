// Witness minimisation: validity checking, greedy shrinking, and the
// ready-made properties.
#include "simplified/witness_min.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rapar {
namespace {

TEST(StepEnabledTest, AgreesWithEnumerationOnRandomWalks) {
  BenchmarkCase pc = ProducerConsumer(2);
  const SimplSystem& sys = pc.system.simpl();
  SimplConfig cfg = InitialConfig(sys);
  // Every enumerated step must be enabled; a corrupted step must not be.
  for (int round = 0; round < 10; ++round) {
    std::vector<SimplStep> steps;
    EnumerateSteps(sys, cfg, ViewChoice::kMinimal, steps);
    if (steps.empty()) break;
    for (const SimplStep& s : steps) {
      EXPECT_TRUE(StepEnabled(sys, cfg, s)) << s.ToString();
      SimplStep bad = s;
      bad.edge = 9999;
      EXPECT_FALSE(StepEnabled(sys, cfg, bad));
      if (s.read_kind != SimplStep::ReadKind::kNone) {
        SimplStep bad2 = s;
        bad2.read_pos = 9999;
        EXPECT_FALSE(StepEnabled(sys, cfg, bad2));
      }
    }
    ApplyStep(sys, cfg, steps[0]);
  }
}

TEST(StepEnabledTest, RejectsFieldsTheInstructionDoesNotUse) {
  // The enumerator leaves the fields an instruction does not use at their
  // defaults, so a step that sets one is not a step of the semantics:
  // a nop or assume with a gap, a dis-message load with a gap, an env
  // store that claims to read. Random walks over the catalog.
  Rng rng(33);
  int nop_or_assume = 0, dis_load = 0, env_store = 0;
  for (const BenchmarkCase& bench : StandardBenchmarks()) {
    const SimplSystem& sys = bench.system.simpl();
    SimplConfig cfg = InitialConfig(sys);
    for (int round = 0; round < 30; ++round) {
      std::vector<SimplStep> steps;
      EnumerateSteps(sys, cfg, ViewChoice::kMinimal, steps);
      if (steps.empty()) break;
      for (const SimplStep& s : steps) {
        const bool env = s.actor == SimplStep::Actor::kEnv;
        const Cfa& cfa = env ? *sys.env : *sys.dis[s.actor_index];
        const Instr::Kind kind = cfa.Edge(EdgeId(s.edge)).instr.kind;
        SimplStep bad = s;
        if (kind == Instr::Kind::kNop || kind == Instr::Kind::kAssume) {
          bad.gap = 0;
          ++nop_or_assume;
        } else if (kind == Instr::Kind::kLoad &&
                   s.read_kind == SimplStep::ReadKind::kDisMsg) {
          bad.gap = 0;
          ++dis_load;
        } else if (kind == Instr::Kind::kStore && env) {
          bad.read_kind = SimplStep::ReadKind::kEnvMsg;
          ++env_store;
        } else {
          continue;
        }
        EXPECT_TRUE(StepEnabled(sys, cfg, s)) << bench.name << " "
                                              << s.ToString();
        EXPECT_FALSE(StepEnabled(sys, cfg, bad)) << bench.name << " "
                                                 << bad.ToString();
      }
      ApplyStep(sys, cfg, steps[rng.Below(steps.size())]);
    }
  }
  EXPECT_GT(nop_or_assume, 0);
  EXPECT_GT(dis_load, 0);
  EXPECT_GT(env_store, 0);
}

TEST(TryReplayTest, AcceptsExplorerWitnessesAndRejectsCorruption) {
  BenchmarkCase pc = ProducerConsumer(2);
  SimplExplorer ex(pc.system.simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);
  EXPECT_TRUE(ReplayWitness(pc.system.simpl(), r.witness));

  std::vector<SimplStep> corrupted = r.witness;
  corrupted[0].edge = 9999;
  EXPECT_FALSE(ReplayWitness(pc.system.simpl(), corrupted));
}

TEST(MinimizeWitnessTest, PreservesViolationAndNeverGrows) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  for (const BenchmarkCase& bench : suite) {
    SimplExplorer ex(bench.system.simpl());
    SimplExplorerOptions opts;
    opts.time_budget_ms = 20'000;
    SimplResult r = ex.Check(opts);
    if (!r.violation) continue;
    const std::size_t before = r.witness.size();
    std::vector<SimplStep> min = MinimizeWitness(
        bench.system.simpl(), r.witness, ViolationProperty());
    EXPECT_LE(min.size(), before) << bench.name;
    EXPECT_TRUE(ReplayWitness(bench.system.simpl(), min)) << bench.name;
    ASSERT_FALSE(min.empty()) << bench.name;
    EXPECT_TRUE(min.back().violation) << bench.name;
  }
}

TEST(MinimizeWitnessTest, GoalPropertyKeepsTheGoalMessage) {
  BenchmarkCase pc = ProducerConsumer(2);
  VarId x = pc.system.vars().Find("x");
  SimplExplorer ex(pc.system.simpl());
  SimplExplorerOptions opts;
  opts.goal = {x, 2};
  SimplResult r = ex.Check(opts);
  ASSERT_TRUE(r.goal_reached);
  std::vector<SimplStep> min =
      MinimizeWitness(pc.system.simpl(), r.witness, GoalProperty(x, 2));
  SimplConfig final_cfg;
  ASSERT_TRUE(ReplayWitness(pc.system.simpl(), min, &final_cfg));
  bool found = false;
  for (const EnvMsg& m : final_cfg.env_msgs()) {
    if (m.var == x && m.val == 2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MinimizeWitnessTest, ShrinksTqbfSaturationNoise) {
  // TQBF witnesses are produced by whole-fixpoint saturation and carry
  // many irrelevant role executions; minimisation must strip a good part.
  Qbf taut;
  taut.n = 0;
  taut.matrix = QOr({QLit(Qbf::U(0)), QLit(Qbf::U(0), true)});
  Expected<ParamSystem> sys = TqbfSystem(taut);
  SimplExplorer ex(sys.value().simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);
  std::vector<SimplStep> min = MinimizeWitness(
      sys.value().simpl(), r.witness, ViolationProperty());
  EXPECT_LT(min.size(), r.witness.size());
  EXPECT_TRUE(min.back().violation);
}

TEST(MinimizeWitnessTest, RefusesInvalidInput) {
  BenchmarkCase pc = ProducerConsumer(1);
  SimplExplorer ex(pc.system.simpl());
  SimplResult r = ex.Check({});
  ASSERT_TRUE(r.violation);
  std::vector<SimplStep> corrupted = r.witness;
  corrupted[0].edge = 9999;
  std::vector<SimplStep> out = MinimizeWitness(
      pc.system.simpl(), corrupted, ViolationProperty());
  EXPECT_EQ(out.size(), corrupted.size());  // returned unchanged
}

}  // namespace
}  // namespace rapar
