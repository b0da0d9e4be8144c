// DeltaParityTest: DatalogVerify solves a scan's guesses on one
// dl::Engine, which keeps only its allocations from solve to solve. The
// scan must match a replay of the whole pipeline that solves every guess
// on a fresh engine — verdict, witness, guesses-scanned count, abort
// index, width report and every derivation count — on the benchmark
// catalog and 200 random systems. (The suite's name dates from the
// cross-guess delta solver it once compared; DESIGN.md §13 records that
// solver's removal, §17 the removal of the EDB rollback that followed.)
//
// Also pins the cursor's chunked API to the vector API: NextChunk must
// yield exactly the EnumerateDisGuesses sequence with its indices, and a
// budget abort to one guess index however the scan reaches it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "datalog/engine.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

using Goal = std::optional<std::pair<VarId, Value>>;

DatalogVerdict VerifyAt(const SimplSystem& sys, std::size_t max_guesses,
                        std::size_t max_tuples, Goal goal = {}) {
  DatalogVerifierOptions opts;
  opts.goal_message = goal;
  opts.guess.max_guesses = max_guesses;
  opts.max_tuples_per_query = max_tuples;
  return DatalogVerify(sys, opts);
}

// The scan from outside: MakeP -> OptimizeForQuery -> Solve on a fresh
// dl::Engine, for every guess of the capped enumeration up to the first
// derivation or budget abort.
// The verifier's skipped and shared guesses are solved here too;
// DESIGN.md §6 proves their derivation counts equal (goal_skip_test
// checks it guess by guess). The width report is the first solved
// guess's, which is the first guess MayDerive accepts.
DatalogVerdict FreshReplay(const SimplSystem& sys, std::size_t max_guesses,
                           std::size_t max_tuples, Goal goal) {
  GuessEnumOptions ge;
  ge.max_guesses = max_guesses;
  bool complete = false;
  const std::vector<DisGuess> guesses = EnumerateDisGuesses(sys, ge, &complete);
  const MakePOptions mp{goal};
  const MakePEncoder encoder(sys, mp);
  std::string key;
  dl::EvalOptions eval;
  eval.max_tuples = max_tuples;
  DatalogVerdict out;
  out.guesses = guesses.size();
  out.exhaustive = complete;
  for (std::size_t k = 0; k < guesses.size(); ++k) {
    const MakePResult q = MakeP(sys, guesses[k], mp);
    const dlopt::OptimizeResult opt = dlopt::OptimizeForQuery(*q.prog, q.goal);
    if (out.width_report.empty() && encoder.MayDerive(guesses[k], &key)) {
      const dlopt::PredGraph graph = dlopt::PredGraph::Build(opt.prog);
      out.width_report = dlopt::AnalyzeWidth(opt.prog, graph, q.goal.pred)
                             .ToString(opt.prog, graph);
    }
    dl::Engine engine;
    bool derived = false;
    bool aborted = false;
    try {
      derived = engine.Solve(opt.prog, q.goal, eval);
    } catch (const dl::BudgetExceeded&) {
      aborted = true;
    }
    const dl::EvalStats& st = engine.last_stats();
    out.total_tuples += st.tuples;
    out.rule_firings += st.rule_firings;
    out.join_attempts += st.join_attempts;
    out.index_probes += st.index_probes;
    out.index_hits += st.index_hits;
    if (derived || aborted) {
      out.guesses = k + 1;
      out.unsafe = derived;
      out.exhaustive = derived;
      if (derived) out.witness_guess = guesses[k].ToString(sys);
      if (aborted) out.budget_aborted_guess = k;
      break;
    }
  }
  return out;
}

// Everything a warm engine must not change. The solved-guess counts
// (queries_evaluated, total_rules, ...) are the verifier's own, and
// index_builds counts indexes an engine keeps from earlier solves.
void ExpectIdentical(const DatalogVerdict& base, const DatalogVerdict& v,
                     const std::string& label) {
  EXPECT_EQ(base.unsafe, v.unsafe) << label;
  EXPECT_EQ(base.exhaustive, v.exhaustive) << label;
  EXPECT_EQ(base.witness_guess, v.witness_guess) << label;
  EXPECT_EQ(base.guesses, v.guesses) << label;
  EXPECT_EQ(base.budget_aborted_guess, v.budget_aborted_guess) << label;
  EXPECT_EQ(base.total_tuples, v.total_tuples) << label;
  EXPECT_EQ(base.rule_firings, v.rule_firings) << label;
  EXPECT_EQ(base.join_attempts, v.join_attempts) << label;
  EXPECT_EQ(base.index_probes, v.index_probes) << label;
  EXPECT_EQ(base.index_hits, v.index_hits) << label;
  EXPECT_EQ(base.width_report, v.width_report) << label;
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
    Goal goal;
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

// The verifier's scan (one engine) vs the fresh-engine replay; returns
// the verifier's verdict.
DatalogVerdict ExpectMatchesFreshReplay(const SimplSystem& sys,
                                        std::size_t max_tuples, Goal goal,
                                        const std::string& name) {
  const DatalogVerdict v = VerifyAt(sys, 2'000, max_tuples, goal);
  ExpectIdentical(FreshReplay(sys, 2'000, max_tuples, goal), v, name);
  return v;
}

TEST(DeltaParityTest, BenchmarkCatalogIdenticalToSnapshotRollback) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    ExpectMatchesFreshReplay(bench.system.simpl(), 500'000, {}, bench.name);
  }
}

TEST(DeltaParityTest, DeltaChainActuallyEngagesOnTheCatalog) {
  // Some catalog scan must solve at least two guesses on its one engine
  // — otherwise the suite would compare single solves, where a warm
  // engine and a fresh one cannot differ.
  std::size_t most = 0;
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    most = std::max(
        most, VerifyAt(bench.system.simpl(), 2'000, 500'000).queries_evaluated);
  }
  EXPECT_GE(most, 2u) << "no catalog scan solved two guesses";
}

TEST(DeltaParityTest, BudgetAbortStopsAtTheSameGuess) {
  // max_tuples=3 blows the budget on the first query; the verifier must
  // abort at the replay's index with the replay's stats.
  BenchmarkCase bench = PetersonRa();
  const DatalogVerdict base = ExpectMatchesFreshReplay(
      bench.system.simpl(), /*max_tuples=*/3, {}, "budget");
  EXPECT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
}

TEST(ParallelDifferentialTest, BudgetAbortStopsAtTheSameGuessEverywhere) {
  // A tiny tuple budget forces an abort (on the first query — the makeP
  // shape is uniform across guesses, so the first one blows first); the
  // scan must stop there instead of evaluating the remaining guesses
  // (peterson-ra has 29). Every way of reaching the guess must report the
  // same aborted index: the verifier, the fresh-engine replay, and a
  // rerun resumed at the checkpoint the abort itself emits.
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

  ExpectIdentical(FreshReplay(sys, 2'000, /*max_tuples=*/3, {}), base,
                  "budget replay");

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
  // An early exit: the witness must be the replay's, the
  // lowest-enumeration-index one.
  BenchmarkCase bench = ProducerConsumer(2);
  const DatalogVerdict base = ExpectMatchesFreshReplay(
      bench.system.simpl(), 500'000, {}, "pc-unsafe");
  EXPECT_TRUE(base.unsafe);
}

TEST(DeltaParityTest, RandomSystemsIdenticalAcrossTwoHundredSeeds) {
  CheckRandomCorpus(
      [](const SimplSystem& sys, Goal goal, const std::string& label) {
        return ExpectMatchesFreshReplay(sys, 200'000, goal, label);
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
