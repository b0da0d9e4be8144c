// Witness validity across the corpus: every UNSAFE verdict comes with a
// deterministically replayable abstract run that actually exhibits the
// violation / goal message, and the dependency-graph machinery consumes
// every witness.
#include <gtest/gtest.h>

#include "core/benchmarks.h"
#include "core/verifier.h"
#include "depgraph/dep_graph.h"
#include "simplified/witness_min.h"

namespace rapar {
namespace {

class WitnessTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WitnessTest, ViolationWitnessesReplay) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  const BenchmarkCase& bench = suite[GetParam()];
  SimplExplorer ex(bench.system.simpl());
  SimplExplorerOptions opts;
  opts.time_budget_ms = 30'000;
  SimplResult r = ex.Check(opts);
  if (!r.violation) {
    GTEST_SKIP() << bench.name << " is safe";
  }
  ASSERT_FALSE(r.witness.empty()) << bench.name;

  // Replay must succeed (every step is enabled) and the final step must
  // be the violating one.
  SimplConfig final_cfg;
  std::optional<std::vector<StepEffect>> effects =
      ReplayWitness(bench.system.simpl(), r.witness, &final_cfg);
  ASSERT_TRUE(effects) << bench.name;
  EXPECT_EQ(effects->size(), r.witness.size());
  EXPECT_TRUE(r.witness.back().violation) << bench.name;

  // The dependency graph builds and is well-formed.
  DepGraph g = DepGraph::Build(bench.system.simpl(), r.witness);
  EXPECT_GE(g.nodes().size(), bench.system.vars().size());
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    EXPECT_GE(g.CostOf(static_cast<std::uint32_t>(i)), 0) << bench.name;
  }
}

TEST_P(WitnessTest, GoalWitnessesContainTheGoalMessage) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  const BenchmarkCase& bench = suite[GetParam()];
  // Probe every (var, val) pair; whenever the explorer claims the goal,
  // the replayed witness's final configuration must contain the message.
  SafetyVerifier verifier(bench.system);
  for (std::uint32_t xi = 0; xi < bench.system.vars().size(); ++xi) {
    for (Value d = 0; d < bench.system.dom(); ++d) {
      const VarId x(xi);
      if (d == kInitValue) continue;  // init messages are trivially there
      SimplExplorer ex(bench.system.simpl());
      SimplExplorerOptions opts;
      opts.goal = {x, d};
      opts.time_budget_ms = 20'000;
      SimplResult r = ex.Check(opts);
      if (!r.goal_reached) continue;
      SimplConfig final_cfg;
      ASSERT_TRUE(ReplayWitness(bench.system.simpl(), r.witness, &final_cfg))
          << bench.name;
      bool found = false;
      for (const EnvMsg& m : final_cfg.env_msgs()) {
        if (m.var == x && m.val == d) found = true;
      }
      const auto& seq = final_cfg.DisMsgsOf(x);
      for (std::size_t p = 1; p < seq.size(); ++p) {
        if (seq[p].val == d) found = true;
      }
      EXPECT_TRUE(found) << bench.name << " (" << xi << "," << d << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, WitnessTest,
                         ::testing::Range<std::size_t>(0, 11));

TEST(WitnessBoundTest, EnvThreadBoundIsSufficientAcrossUnsafeCases) {
  // For the unsafe corpus cases whose concrete exploration is tractable:
  // the §4.3 bound b from the witness yields a concrete instance with b
  // env threads that exhibits the bug.
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  for (const BenchmarkCase& bench : suite) {
    SafetyVerifier verifier(bench.system);
    Verdict v = verifier.Run(std::nullopt);
    if (!v.unsafe() || !v.env_thread_bound.has_value()) continue;
    const int b = static_cast<int>(*v.env_thread_bound);
    if (b > 4) continue;  // keep concrete exploration tractable
    VerifierOptions copts;
    copts.backend = Backend::kConcrete;
    copts.concrete.env_threads = std::max(b, 1);
    copts.time_budget_ms = 30'000;
    Verdict cv = verifier.Run(std::nullopt, copts);
    EXPECT_TRUE(cv.unsafe() || cv.result == Verdict::Result::kUnknown)
        << bench.name << " bound " << b;
  }
}

}  // namespace
}  // namespace rapar
