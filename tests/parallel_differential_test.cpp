// Differential check: the parallel guess-level verification driver must
// be invisible in the verdict. Runs the Datalog backend at thread counts
// 1 / 2 / 8 across the benchmark catalog and a corpus of random systems,
// demanding bit-identical unsafe / exhaustive / witness_guess / guesses
// and identical aggregated engine statistics — the executable counterpart
// of the determinism rule in encoding/datalog_verifier.h. index_builds
// and fact_reuses are the two documented exceptions (they depend on which
// guesses a worker happens to see) and are excluded.
//
// DeltaParityTest extends the check to the one state a worker's engine
// carries from guess to guess: its seeded-EDB snapshot (dl::EngineOptions::
// reuse_facts). Snapshot chains at 1 / 2 / 8 threads and cold seeding at
// 2 / 8 threads must match the cold single-thread scan. (The suite's name
// dates from the cross-guess delta solver it once compared; DESIGN.md §13
// records that solver's removal.)
//
// Also pins the cursor's chunked API to the vector API: NextChunk must
// yield exactly the EnumerateDisGuesses sequence with its indices.
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

DatalogVerdict VerifyAt(const SimplSystem& sys, unsigned threads,
                        std::size_t max_guesses, std::size_t max_tuples,
                        std::size_t batch_size = 32,
                        std::optional<std::pair<VarId, Value>> goal = {},
                        bool reuse_facts = true) {
  DatalogVerifierOptions opts;
  opts.goal_message = goal;
  opts.guess.max_guesses = max_guesses;
  opts.max_tuples_per_query = max_tuples;
  opts.threads = threads;
  opts.batch_size = batch_size;
  opts.engine.reuse_facts = reuse_facts;
  return DatalogVerify(sys, opts);
}

// Everything that must not depend on the thread count.
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
  EXPECT_EQ(base.parallel.early_exit_index, v.parallel.early_exit_index)
      << label;
  // index_builds and fact_reuses intentionally not compared.
}

TEST(ParallelDifferentialTest, BenchmarkCatalogIdenticalAcrossThreadCounts) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const DatalogVerdict base =
        VerifyAt(bench.system.simpl(), 1, 2'000, 500'000);
    for (unsigned threads : {2u, 8u}) {
      const DatalogVerdict v =
          VerifyAt(bench.system.simpl(), threads, 2'000, 500'000);
      ExpectIdentical(base, v,
                      bench.name + " @" + std::to_string(threads));
      EXPECT_EQ(v.parallel.threads, threads) << bench.name;
    }
  }
}

TEST(ParallelDifferentialTest, SmallBatchesStressTheEarlyExitOrdering) {
  // batch_size 1 maximizes the interleaving of chunk dispatch and the
  // first-unsafe-wins cutoff; the witness must still be the
  // lowest-enumeration-index one.
  BenchmarkCase bench = ProducerConsumer(2);
  const DatalogVerdict base =
      VerifyAt(bench.system.simpl(), 1, 2'000, 500'000, /*batch_size=*/1);
  ASSERT_TRUE(base.unsafe);
  for (unsigned threads : {2u, 3u, 8u}) {
    const DatalogVerdict v = VerifyAt(bench.system.simpl(), threads, 2'000,
                                      500'000, /*batch_size=*/1);
    ExpectIdentical(base, v, "pc-unsafe @" + std::to_string(threads));
  }
}

TEST(ParallelDifferentialTest, BudgetAbortStopsAtTheSameGuessEverywhere) {
  // A tiny tuple budget forces an abort (on the first query — the makeP
  // shape is uniform across guesses, so the first one blows first); every
  // thread count must report the same aborted index, and the scan must
  // stop there instead of evaluating the remaining guesses (peterson-ra
  // has 29).
  BenchmarkCase bench = PetersonRa();
  const DatalogVerdict base =
      VerifyAt(bench.system.simpl(), 1, 2'000, /*max_tuples=*/3);
  ASSERT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
  EXPECT_FALSE(base.unsafe);
  EXPECT_EQ(base.guesses, base.budget_aborted_guess + 1);
  const DatalogVerdict full =
      VerifyAt(bench.system.simpl(), 1, 2'000, /*max_tuples=*/500'000);
  EXPECT_LT(base.guesses, full.guesses) << "abort did not stop the scan";
  for (unsigned threads : {2u, 8u}) {
    const DatalogVerdict v =
        VerifyAt(bench.system.simpl(), threads, 2'000, /*max_tuples=*/3);
    ExpectIdentical(base, v, "budget @" + std::to_string(threads));
  }
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

TEST(ParallelDifferentialTest, RandomSystemsIdenticalAcrossTwoHundredSeeds) {
  CheckRandomCorpus([](const SimplSystem& sys,
                       std::optional<std::pair<VarId, Value>> goal,
                       const std::string& label) {
    const DatalogVerdict base =
        VerifyAt(sys, 1, 500, 200'000, /*batch_size=*/8, goal);
    for (unsigned threads : {2u, 8u}) {
      const DatalogVerdict v =
          VerifyAt(sys, threads, 500, 200'000, /*batch_size=*/8, goal);
      ExpectIdentical(base, v, label + " @" + std::to_string(threads));
    }
    return base;
  });
}

// Cold single-thread baseline vs every snapshot-chain configuration.
DatalogVerdict ExpectChainsIdentical(
    const SimplSystem& sys, std::size_t max_tuples, std::size_t batch_size,
    std::optional<std::pair<VarId, Value>> goal, const std::string& name) {
  const DatalogVerdict base = VerifyAt(sys, 1, 2'000, max_tuples, batch_size,
                                       goal, /*reuse_facts=*/false);
  struct {
    unsigned threads;
    bool reuse_facts;
  } const configs[] = {{1, true}, {2, true}, {8, true}, {2, false}, {8, false}};
  for (const auto& cfg : configs) {
    const DatalogVerdict v = VerifyAt(sys, cfg.threads, 2'000, max_tuples,
                                      batch_size, goal, cfg.reuse_facts);
    ExpectIdentical(base, v,
                    name + " @" + std::to_string(cfg.threads) +
                        (cfg.reuse_facts ? " reuse" : " cold"));
  }
  return base;
}

TEST(DeltaParityTest, BenchmarkCatalogIdenticalToSnapshotRollback) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    ExpectChainsIdentical(bench.system.simpl(), 500'000, 32, {}, bench.name);
  }
}

TEST(DeltaParityTest, DeltaChainActuallyEngagesOnTheCatalog) {
  // A multi-guess scan must roll back to the EDB snapshot somewhere in
  // the catalog — otherwise the suite would be vacuously comparing cold
  // solves — and the cold baseline must never do so.
  std::size_t rolled_back = 0;
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const SimplSystem& sys = bench.system.simpl();
    rolled_back += VerifyAt(sys, 1, 2'000, 500'000).fact_reuses;
    EXPECT_EQ(VerifyAt(sys, 1, 2'000, 500'000, 32, {}, false).fact_reuses, 0u)
        << bench.name;
  }
  EXPECT_GT(rolled_back, 0u) << "no catalog scan reused an EDB snapshot";
}

TEST(DeltaParityTest, BudgetAbortStopsAtTheSameGuess) {
  // max_tuples=3 blows the budget on the first query; a rolled-back
  // solve must abort at the same index with the same stats.
  BenchmarkCase bench = PetersonRa();
  const DatalogVerdict base = ExpectChainsIdentical(
      bench.system.simpl(), /*max_tuples=*/3, 32, {}, "budget");
  EXPECT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
}

TEST(DeltaParityTest, SmallBatchesStressTheEarlyExitOrdering) {
  // batch_size 1 maximizes interleaving; the witness must still be the
  // lowest-enumeration-index one when workers carry EDB snapshots.
  BenchmarkCase bench = ProducerConsumer(2);
  const DatalogVerdict base = ExpectChainsIdentical(
      bench.system.simpl(), 500'000, /*batch_size=*/1, {}, "pc-unsafe");
  EXPECT_TRUE(base.unsafe);
}

TEST(DeltaParityTest, RandomSystemsIdenticalAcrossTwoHundredSeeds) {
  CheckRandomCorpus([](const SimplSystem& sys,
                       std::optional<std::pair<VarId, Value>> goal,
                       const std::string& label) {
    return ExpectChainsIdentical(sys, 200'000, /*batch_size=*/8, goal, label);
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
