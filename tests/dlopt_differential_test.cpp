// Differential check: the Datalog program optimizer (src/dlopt/) must
// never change a verdict. Runs the Datalog backend with dlopt on and off
// across the benchmark catalog and a corpus of random systems, demanding
// identical results whenever both runs are conclusive — the executable
// counterpart of the "verdict-preserving by construction" claim in
// dlopt/optimize.h. Mirrors prepass_differential_test.cpp one layer down.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "encoding/datalog_verifier.h"
#include "generated_systems.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

struct Pair {
  DatalogVerdict with;
  DatalogVerdict without;
};

// Calls DatalogVerify directly on the simplified system (no CFA prepass:
// this test isolates the Datalog-level transforms). With dlopt on, the
// verifier also skips the guesses whose optimized program would be empty
// (MakePEncoder::MayDerive); with it off it solves every guess, so the
// comparison checks that skip as well.
Pair VerifyBothWays(const SimplSystem& sys, std::size_t max_guesses,
                    std::size_t max_tuples,
                    std::optional<std::pair<VarId, Value>> goal = {}) {
  DatalogVerifierOptions on;
  on.goal_message = goal;
  on.guess.max_guesses = max_guesses;
  on.max_tuples_per_query = max_tuples;
  on.enable_dlopt = true;
  DatalogVerifierOptions off = on;
  off.enable_dlopt = false;
  return Pair{DatalogVerify(sys, on), DatalogVerify(sys, off)};
}

void ExpectAgreement(const Pair& p, const std::string& label) {
  // Every scanned guess is solved, skipped or shared, and only dlopt
  // skips or shares.
  EXPECT_EQ(p.with.queries_evaluated + p.with.solves_skipped +
                p.with.solves_shared,
            p.with.guesses)
      << label;
  EXPECT_EQ(p.without.queries_evaluated, p.without.guesses) << label;
  EXPECT_EQ(p.without.solves_skipped, 0u) << label;
  EXPECT_EQ(p.without.solves_shared, 0u) << label;
  if (!p.with.exhaustive || !p.without.exhaustive) {
    // An UNSAFE answer is sound even from a capped run; a negative one
    // decides nothing.
    if (p.with.unsafe && p.without.unsafe) {
      return;
    }
    if (!p.with.unsafe && !p.without.unsafe) {
      return;
    }
    // One side found the bug, the other was capped before finding it —
    // only a disagreement if the capped side claims exhaustiveness.
    EXPECT_FALSE(p.with.exhaustive && p.without.exhaustive) << label;
    return;
  }
  EXPECT_EQ(p.with.unsafe, p.without.unsafe)
      << label << ": dlopt changed the verdict (rules "
      << p.with.total_rules << " -> " << p.with.total_rules_after << ")";
  // Each guess keeps its answer, so both scans stop at the same guess.
  EXPECT_EQ(p.with.guesses, p.without.guesses) << label;
}

TEST(DlOptDifferentialTest, BenchmarkCatalogVerdictsUnchanged) {
  std::size_t total_before = 0;
  std::size_t total_after = 0;
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    // Some catalog systems have huge guess spaces; capped runs are still
    // compared (soundly) by ExpectAgreement.
    Pair p = VerifyBothWays(bench.system.simpl(), 2'000, 500'000);
    ExpectAgreement(p, bench.name);
    // A skipped guess is never encoded, so its rules count on one side
    // only: without dlopt every scanned guess is encoded.
    EXPECT_LE(p.with.total_rules, p.without.total_rules) << bench.name;
    EXPECT_EQ(p.with.dlopt.rules_before, p.with.total_rules) << bench.name;
    EXPECT_LE(p.with.total_rules_after, p.with.total_rules) << bench.name;
    EXPECT_FALSE(p.without.dlopt.Any()) << bench.name;
    total_before += p.with.total_rules;
    total_after += p.with.total_rules_after;
  }
  // Across the catalog the optimizer must be doing real work.
  ASSERT_GT(total_before, 0u);
  EXPECT_LT(total_after, total_before);
}

TEST(DlOptDifferentialTest, ProducerConsumerPrunesSubstantially) {
  BenchmarkCase bench = ProducerConsumer(2);
  Pair p = VerifyBothWays(bench.system.simpl(), 2'000, 500'000);
  ExpectAgreement(p, bench.name);
  ASSERT_GT(p.with.total_rules, 0u);
  // The acceptance bar for the makeP family: >= 30% of emitted rules are
  // statically removable (dead control locations + demand cones).
  EXPECT_LE(p.with.total_rules_after * 10, p.with.total_rules * 7)
      << "only " << p.with.total_rules - p.with.total_rules_after << " of "
      << p.with.total_rules << " rules pruned";
  EXPECT_TRUE(p.with.dlopt.Any());
  EXPECT_FALSE(p.with.width_report.empty());
}

// Each system gets the Message-Generation goal the guess-heavy corpus
// would draw for its seed: with an assert goal (RandomProgram emits no
// `assert false`) every guess but the first is skipped and the two runs
// would trivially agree.
TEST(DlOptDifferentialTest, RandomSystemsAgreeAcrossTwoHundredSeeds) {
  int conclusive = 0;
  int pruned = 0;
  std::size_t skipped = 0;
  std::size_t solved = 0;
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
    Pair p = VerifyBothWays(
        sys.value().simpl(), 500, 200'000,
        GuessHeavyGoal(sys.value(), seed, env_opts.num_vars, env_opts.dom));
    ExpectAgreement(p, "seed " + std::to_string(seed));
    conclusive += p.with.exhaustive && p.without.exhaustive;
    pruned += p.with.dlopt.Any();
    skipped += p.with.solves_skipped;
    solved += p.with.queries_evaluated;
  }
  // The corpus must actually exercise the comparison, the pruning and
  // both sides of the skip.
  EXPECT_GT(conclusive, 100);
  EXPECT_GT(pruned, 100);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(solved, 0u);
}

}  // namespace
}  // namespace rapar
