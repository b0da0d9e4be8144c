// Differential check: the Datalog program optimizer (src/dlopt/) must
// never change a verdict. Compares the Datalog backend, which solves every
// guess's optimized program (or skips or shares it, DESIGN.md §6), with a
// replay that solves every guess's raw makeP program, across the benchmark
// catalog and a corpus of random systems, demanding identical results
// whenever both are conclusive — the executable counterpart of the
// "verdict-preserving by construction" claim in dlopt/optimize.h. Mirrors
// prepass_differential_test.cpp one layer down.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "datalog/engine.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "generated_systems.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

using Goal = std::optional<std::pair<VarId, Value>>;

// What solving every guess's unoptimized program gives, up to the first
// derivation or budget abort.
struct RawScan {
  bool unsafe = false;
  bool exhaustive = true;
  std::size_t guesses = 0;
  std::size_t total_rules = 0;  // emitted by makeP over the scanned guesses
};

struct Pair {
  DatalogVerdict with;
  RawScan without;
};

// The reference: MakeP -> Engine::Solve on every guess of the capped
// enumeration, with no optimizer, no skip and no sharing.
RawScan RawReplay(const SimplSystem& sys, std::size_t max_guesses,
                  std::size_t max_tuples, const Goal& goal) {
  GuessEnumOptions ge;
  ge.max_guesses = max_guesses;
  DisGuessCursor cursor(sys, ge);
  const MakePOptions mp{goal};
  dl::EvalOptions eval;
  eval.max_tuples = max_tuples;
  dl::Engine engine;
  RawScan out;
  while (const IndexedGuess* g = cursor.Next()) {
    out.guesses = g->index + 1;
    const MakePResult q = MakeP(sys, g->guess, mp);
    out.total_rules += q.prog->size();
    bool derived = false;
    bool aborted = false;
    try {
      derived = engine.Solve(*q.prog, q.goal, eval);
    } catch (const dl::BudgetExceeded&) {
      aborted = true;
    }
    if (derived || aborted) {
      out.unsafe = derived;
      out.exhaustive = derived;
      return out;
    }
  }
  out.exhaustive = cursor.complete();
  return out;
}

// Calls DatalogVerify directly on the simplified system (no CFA prepass:
// this test isolates the Datalog-level transforms). The verifier also
// skips the guesses whose optimized program would be empty
// (MakePEncoder::MayDerive) and shares the solve of guesses with one class
// key, and the replay solves every guess, so the comparison checks both.
Pair VerifyBothWays(const SimplSystem& sys, std::size_t max_guesses,
                    std::size_t max_tuples, Goal goal = {}) {
  DatalogVerifierOptions options;
  options.goal_message = goal;
  options.guess.max_guesses = max_guesses;
  options.max_tuples_per_query = max_tuples;
  return Pair{DatalogVerify(sys, options),
              RawReplay(sys, max_guesses, max_tuples, goal)};
}

void ExpectAgreement(const Pair& p, const std::string& label) {
  // Every scanned guess is solved, skipped or shared.
  EXPECT_EQ(p.with.queries_evaluated + p.with.solves_skipped +
                p.with.solves_shared,
            p.with.guesses)
      << label;
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
    // A skipped or shared guess is never encoded, so its rules count on
    // the replay's side only: the replay encodes every scanned guess.
    EXPECT_LE(p.with.total_rules, p.without.total_rules) << bench.name;
    EXPECT_EQ(p.with.dlopt.rules_before, p.with.total_rules) << bench.name;
    EXPECT_LE(p.with.total_rules_after, p.with.total_rules) << bench.name;
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
// `assert false`) every guess is skipped and the two sides would
// trivially agree.
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
    // The optimizer removed rules from a solved guess's program, or
    // MayDerive found a guess whose optimized program is empty.
    pruned += p.with.dlopt.Any() || p.with.solves_skipped > 0;
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
