// DeltaParityTest: the one state the verifier's engine carries from
// guess to guess is its seeded-EDB snapshot (dl::EngineOptions::
// reuse_facts). A scan that rolls back to the snapshot must match a scan
// that seeds every guess cold — verdict, witness, guesses-scanned count
// and every aggregate statistic but index_builds and fact_reuses — on the
// benchmark catalog and 200 random systems. (The suite's name dates from
// the cross-guess delta solver it once compared; DESIGN.md §13 records
// that solver's removal.)
//
// Also pins the cursor's chunked API to the vector API: NextChunk must
// yield exactly the EnumerateDisGuesses sequence with its indices, and a
// budget abort to one guess index however the scan reaches it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

DatalogVerdict VerifyAt(const SimplSystem& sys, std::size_t max_guesses,
                        std::size_t max_tuples,
                        std::optional<std::pair<VarId, Value>> goal = {},
                        bool reuse_facts = true) {
  DatalogVerifierOptions opts;
  opts.goal_message = goal;
  opts.guess.max_guesses = max_guesses;
  opts.max_tuples_per_query = max_tuples;
  opts.engine.reuse_facts = reuse_facts;
  return DatalogVerify(sys, opts);
}

// Everything that must not depend on snapshot reuse.
void ExpectIdentical(const DatalogVerdict& base, const DatalogVerdict& v,
                     const std::string& label) {
  EXPECT_EQ(base.unsafe, v.unsafe) << label;
  EXPECT_EQ(base.exhaustive, v.exhaustive) << label;
  EXPECT_EQ(base.witness_guess, v.witness_guess) << label;
  EXPECT_EQ(base.guesses, v.guesses) << label;
  EXPECT_EQ(base.queries_evaluated, v.queries_evaluated) << label;
  EXPECT_EQ(base.budget_aborted_guess, v.budget_aborted_guess) << label;
  EXPECT_EQ(base.total_rules, v.total_rules) << label;
  EXPECT_EQ(base.total_rules_after, v.total_rules_after) << label;
  EXPECT_EQ(base.total_tuples, v.total_tuples) << label;
  EXPECT_EQ(base.rule_firings, v.rule_firings) << label;
  EXPECT_EQ(base.join_attempts, v.join_attempts) << label;
  EXPECT_EQ(base.index_probes, v.index_probes) << label;
  EXPECT_EQ(base.index_hits, v.index_hits) << label;
  EXPECT_EQ(base.width_report, v.width_report) << label;
  // index_builds and fact_reuses count the reuse itself.
}

// The 200-seed random corpus. `check(sys, goal, label)` compares one
// system's runs and returns its baseline verdict.
template <typename Check>
void CheckRandomCorpus(Check check) {
  int unsafe_seen = 0;
  int exhaustive_seen = 0;
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
    // Even seeds ask the MG question "can (v0, d) be generated?" with d
    // cycling over the domain — (v0, 0) is derivable for most systems, so
    // this half of the corpus exercises the first-unsafe-wins early exit;
    // odd seeds run the assert-false query (mostly safe full scans).
    std::optional<std::pair<VarId, Value>> goal;
    if (seed % 2 == 0) {
      const VarId v0 = sys.value().vars().Find("v0");
      ASSERT_TRUE(v0.valid()) << "seed " << seed;
      goal = {v0, static_cast<Value>((seed / 2) % 3)};
    }
    const DatalogVerdict base =
        check(sys.value().simpl(), goal, "seed " + std::to_string(seed));
    unsafe_seen += base.unsafe;
    exhaustive_seen += base.exhaustive;
  }
  // The corpus must exercise both early exits and full scans.
  EXPECT_GT(unsafe_seen, 20);
  EXPECT_GT(exhaustive_seen, 100);
}

// Cold seeding vs the snapshot chain, both at one worker.
DatalogVerdict ExpectChainsIdentical(
    const SimplSystem& sys, std::size_t max_tuples,
    std::optional<std::pair<VarId, Value>> goal, const std::string& name) {
  const DatalogVerdict base =
      VerifyAt(sys, 2'000, max_tuples, goal, /*reuse_facts=*/false);
  ExpectIdentical(base, VerifyAt(sys, 2'000, max_tuples, goal), name);
  return base;
}

TEST(DeltaParityTest, BenchmarkCatalogIdenticalToSnapshotRollback) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    ExpectChainsIdentical(bench.system.simpl(), 500'000, {}, bench.name);
  }
}

TEST(DeltaParityTest, DeltaChainActuallyEngagesOnTheCatalog) {
  // A multi-guess scan must roll back to the EDB snapshot somewhere in
  // the catalog — otherwise the suite would be vacuously comparing cold
  // solves — and the cold baseline must never do so.
  std::size_t rolled_back = 0;
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const SimplSystem& sys = bench.system.simpl();
    rolled_back += VerifyAt(sys, 2'000, 500'000).fact_reuses;
    EXPECT_EQ(VerifyAt(sys, 2'000, 500'000, {}, false).fact_reuses, 0u)
        << bench.name;
  }
  EXPECT_GT(rolled_back, 0u) << "no catalog scan reused an EDB snapshot";
}

TEST(DeltaParityTest, BudgetAbortStopsAtTheSameGuess) {
  // max_tuples=3 blows the budget on the first query; a rolled-back
  // solve must abort at the same index with the same stats.
  BenchmarkCase bench = PetersonRa();
  const DatalogVerdict base = ExpectChainsIdentical(
      bench.system.simpl(), /*max_tuples=*/3, {}, "budget");
  EXPECT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
}

TEST(ParallelDifferentialTest, BudgetAbortStopsAtTheSameGuessEverywhere) {
  // A tiny tuple budget forces an abort (on the first query — the makeP
  // shape is uniform across guesses, so the first one blows first); the
  // scan must stop there instead of evaluating the remaining guesses
  // (peterson-ra has 29). Every way of reaching the guess must report the
  // same aborted index: snapshot rollback, cold seeding, and a rerun
  // resumed at the checkpoint the abort itself emits.
  BenchmarkCase bench = PetersonRa();
  const SimplSystem& sys = bench.system.simpl();
  DatalogVerifierOptions opts;
  opts.guess.max_guesses = 2'000;
  opts.max_tuples_per_query = 3;
  std::vector<CursorCheckpoint> checkpoints;
  opts.checkpoint_sink = [&](const CursorCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const DatalogVerdict base = DatalogVerify(sys, opts);
  ASSERT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
  EXPECT_FALSE(base.unsafe);
  EXPECT_EQ(base.guesses, base.budget_aborted_guess + 1);
  const DatalogVerdict full = VerifyAt(sys, 2'000, /*max_tuples=*/500'000);
  EXPECT_LT(base.guesses, full.guesses) << "abort did not stop the scan";

  ExpectIdentical(base, VerifyAt(sys, 2'000, /*max_tuples=*/3, {},
                                 /*reuse_facts=*/false),
                  "budget cold");

  // The abort's checkpoint points *at* the aborted guess, so a rerun
  // with the same budget aborts there again after scanning only it.
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_FALSE(checkpoints[0].exhausted);
  ASSERT_EQ(checkpoints[0].next_index, base.budget_aborted_guess);
  DatalogVerifierOptions resumed_opts = opts;
  resumed_opts.checkpoint_sink = nullptr;
  resumed_opts.guess.start_index = checkpoints[0].next_index;
  const DatalogVerdict resumed = DatalogVerify(sys, resumed_opts);
  EXPECT_EQ(resumed.budget_aborted_guess, base.budget_aborted_guess);
  EXPECT_EQ(resumed.guesses, base.guesses);
  EXPECT_FALSE(resumed.exhaustive);
  EXPECT_FALSE(resumed.unsafe);
  EXPECT_EQ(resumed.resume_offset, base.budget_aborted_guess);
}

TEST(DeltaParityTest, SmallBatchesStressTheEarlyExitOrdering) {
  // An early exit: the witness must be the cold scan's, the
  // lowest-enumeration-index one, when the engine carries EDB snapshots.
  BenchmarkCase bench = ProducerConsumer(2);
  const DatalogVerdict base = ExpectChainsIdentical(
      bench.system.simpl(), 500'000, {}, "pc-unsafe");
  EXPECT_TRUE(base.unsafe);
}

TEST(DeltaParityTest, RandomSystemsIdenticalAcrossTwoHundredSeeds) {
  CheckRandomCorpus([](const SimplSystem& sys,
                       std::optional<std::pair<VarId, Value>> goal,
                       const std::string& label) {
    return ExpectChainsIdentical(sys, 200'000, goal, label);
  });
}

TEST(ParallelDifferentialTest, CursorYieldsTheVectorSequence) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const SimplSystem& sys = bench.system.simpl();
    GuessEnumOptions opts;
    opts.max_guesses = 2'000;
    bool complete = true;
    const std::vector<DisGuess> all =
        EnumerateDisGuesses(sys, opts, &complete);

    DisGuessCursor cursor(sys, opts);
    std::vector<IndexedGuess> streamed;
    std::vector<IndexedGuess> chunk;
    // Ragged chunk sizes so chunk boundaries move around.
    std::size_t want = 1;
    for (;;) {
      chunk.clear();
      const std::size_t n = cursor.NextChunk(want, &chunk);
      if (n == 0) break;
      ASSERT_LE(n, want) << bench.name;
      for (IndexedGuess& g : chunk) streamed.push_back(std::move(g));
      want = want % 7 + 1;
    }
    ASSERT_TRUE(cursor.exhausted()) << bench.name;
    EXPECT_EQ(cursor.complete(), complete) << bench.name;
    EXPECT_EQ(cursor.produced(), all.size()) << bench.name;
    ASSERT_EQ(streamed.size(), all.size()) << bench.name;
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(streamed[i].index, i) << bench.name;
      ASSERT_EQ(streamed[i].guess.ToString(sys), all[i].ToString(sys))
          << bench.name << " guess " << i;
    }
  }
}

}  // namespace
}  // namespace rapar
