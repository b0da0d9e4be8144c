// Differential check: the analysis pre-pass must never change a verdict.
// Runs Verify() with the pre-pass on and off across the litmus/benchmark
// catalog and a corpus of random systems, and demands identical results
// whenever both runs are conclusive.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/verifier.h"
#include "lang/parser.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

Program MustParse(const std::string& text) {
  Expected<Program> p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
  return std::move(p).value();
}

// Verdicts with the pre-pass on/off; both must agree when conclusive.
struct Pair {
  Verdict with;
  Verdict without;
};

Pair VerifyBothWays(const ParamSystem& system, std::size_t max_states) {
  SafetyVerifier verifier(system);
  VerifierOptions on;
  on.max_states = max_states;
  on.enable_prepass = true;
  VerifierOptions off = on;
  off.enable_prepass = false;
  return Pair{verifier.Run(std::nullopt, on), verifier.Run(std::nullopt, off)};
}

namespace metric = obs::metric;

// Dead edges, folded guards, sliced stores and dropped assignments: what
// the pre-pass pruned, in all.
std::uint64_t Pruned(const Verdict& v) {
  return v.telemetry.counter(metric::kPrepassDeadEdges) +
         v.telemetry.counter(metric::kPrepassGuardsFolded) +
         v.telemetry.counter(metric::kPrepassStoresSliced) +
         v.telemetry.counter(metric::kPrepassAssignsDropped);
}

void ExpectAgreement(const Pair& p, const std::string& label) {
  if (p.with.result == Verdict::Result::kUnknown ||
      p.without.result == Verdict::Result::kUnknown) {
    return;  // a resource-capped run decides nothing
  }
  EXPECT_EQ(p.with.result, p.without.result)
      << label << ": prepass changed the verdict (with: "
      << p.with.ToString() << ", without: " << p.without.ToString() << ")";
}

TEST(PrepassDifferentialTest, BenchmarkCatalogVerdictsUnchanged) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    Pair p = VerifyBothWays(bench.system, 300'000);
    ExpectAgreement(p, bench.name);
    if (bench.expected_unsafe.has_value() &&
        p.with.result != Verdict::Result::kUnknown) {
      EXPECT_EQ(p.with.unsafe(), *bench.expected_unsafe) << bench.name;
    }
    EXPECT_EQ(Pruned(p.without), 0u) << bench.name;
  }
}

TEST(PrepassDifferentialTest, PrunableLitmusKeepsVerdictAndReportsPruning) {
  // An env with a constantly-false branch guarding its assert plus an
  // unobserved debug store: every prepass transformation fires, and the
  // system must stay SAFE either way.
  Program env = MustParse(R"(
    program env
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
  Expected<ParamSystem> sys = ParamSystem::Builder().Env(std::move(env)).Build();
  ASSERT_TRUE(sys.ok()) << (sys.ok() ? "" : sys.error());
  Pair p = VerifyBothWays(sys.value(), 300'000);
  ASSERT_EQ(p.with.result, Verdict::Result::kSafe);
  ASSERT_EQ(p.without.result, Verdict::Result::kSafe);
  EXPECT_GT(p.with.telemetry.counter(metric::kPrepassDeadEdges), 0u);
  EXPECT_GT(p.with.telemetry.counter(metric::kPrepassStoresSliced), 0u);
  EXPECT_GT(p.with.telemetry.counter(metric::kPrepassAssignsDropped), 0u);
  EXPECT_EQ(Pruned(p.without), 0u);
  // Pruning shrinks (or at worst preserves) the explored state space.
  EXPECT_LE(p.with.telemetry.counter(metric::kStates),
            p.without.telemetry.counter(metric::kStates));
}

TEST(PrepassDifferentialTest, ReachableAssertStaysUnsafe) {
  // The mirror image: the guard is constantly TRUE, so folding it must not
  // erase the (reachable) violation.
  Program env = MustParse(R"(
    program env
    vars flag
    regs one
    dom 3
    begin
      one := 1;
      flag := one;
      assume (one == 1);
      assert false
    end
  )");
  Expected<ParamSystem> sys = ParamSystem::Builder().Env(std::move(env)).Build();
  ASSERT_TRUE(sys.ok()) << (sys.ok() ? "" : sys.error());
  Pair p = VerifyBothWays(sys.value(), 300'000);
  EXPECT_EQ(p.with.result, Verdict::Result::kUnsafe);
  EXPECT_EQ(p.without.result, Verdict::Result::kUnsafe);
  EXPECT_GT(p.with.telemetry.counter(metric::kPrepassGuardsFolded), 0u);
}

TEST(PrepassDifferentialTest, RandomSystemsAgreeAcrossTwoHundredSeeds) {
  int conclusive = 0;
  int pruned = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RandomProgramOptions env_opts;
    env_opts.num_vars = 2;
    env_opts.num_regs = 2;
    env_opts.dom = 3;
    env_opts.size = 5;
    env_opts.allow_cas = false;
    env_opts.allow_loops = false;
    RandomProgramOptions dis_opts = env_opts;
    dis_opts.size = 4;

    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed << ": "
                          << (sys.ok() ? "" : sys.error());
    Pair p = VerifyBothWays(sys.value(), 60'000);
    ExpectAgreement(p, "seed " + std::to_string(seed));
    conclusive += p.with.result != Verdict::Result::kUnknown &&
                  p.without.result != Verdict::Result::kUnknown;
    pruned += Pruned(p.with) > 0;
  }
  // The corpus must actually exercise the comparison and the pruning.
  EXPECT_GT(conclusive, 100);
  EXPECT_GT(pruned, 10);
}

}  // namespace
}  // namespace rapar
