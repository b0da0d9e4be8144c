// The verifier skips every guess for which MakePEncoder::MayDerive rules
// the goal out, and gives every guess whose class key an earlier guess
// already had that guess's outcome instead of solving it. It claims both
// are exact: DESIGN.md §6 proves that a skipped guess's optimized program
// has no rules and that guesses with one key optimize to one program up
// to the numbering of the dtp predicates. This suite checks the claims
// guess by guess, against the whole pipeline run from outside, on the
// benchmark catalog, on the guess-heavy shape with its
// Message-Generation goals, on the same shape with CAS in the dis thread,
// on a shape with two dis threads and on a hand-written system whose
// guesses differ only in a write nothing demands (the class key cuts a
// dis thread at its last demanded write or assert):
//
//   (a) every guess MayDerive rejects has an OptimizeForQuery(MakeP(g))
//       with no rules, and Engine::Solve on it returns false with every
//       EvalStats count zero;
//   (b) every guess whose program derives unsafe() passes MayDerive;
//   (c) the verifier's verdict, witness, guess count, tuples, firings,
//       join attempts, index probes and hits equal a guess-by-guess
//       replay (MakeP -> OptimizeForQuery -> Solve, stopping at the
//       first derivation), and
//       the verifier skips and shares exactly the guesses the replay
//       finds rejected and keyed like an earlier one;
//   (d) on each generated corpus, the skipped guesses and the solved
//       plus shared guesses are each at least a quarter of the guesses
//       scanned;
//   (e) every guess with the key of an earlier guess has the same
//       optimized program (its rules as RuleToString prints them, which
//       names a dtp predicate by thread and step, not by id), the same
//       derived flag and the same EvalStats (index_builds aside, which
//       depends on the engine's earlier solves) as the first guess with
//       that key;
//   (f) on each generated corpus, more guesses are shared than solved.
//
// It is the in-repo twin of the benchmark's traced replay, which compares
// the same counts on every request of a workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/benchmarks.h"
#include "datalog/engine.h"
#include "dlopt/optimize.h"
#include "encoding/datalog_verifier.h"
#include "encoding/makep.h"
#include "generated_systems.h"
#include "lang/parser.h"

namespace rapar {
namespace {

using Goal = std::optional<std::pair<VarId, Value>>;

// Generated systems can have huge guess spaces; both the verifier and the
// replay scan the same capped prefix.
constexpr std::size_t kMaxGuesses = 600;

// What one scan found, by the verifier or by the replay.
struct Scan {
  bool unsafe = false;
  std::string witness;
  std::size_t guesses = 0;
  std::size_t tuples = 0;
  std::size_t firings = 0;
  std::size_t join_attempts = 0;
  std::size_t index_probes = 0;
  std::size_t index_hits = 0;
};

void ExpectSameScan(const Scan& got, const Scan& want,
                    const std::string& label) {
  EXPECT_EQ(got.unsafe, want.unsafe) << label;
  EXPECT_EQ(got.witness, want.witness) << label;
  EXPECT_EQ(got.guesses, want.guesses) << label;
  EXPECT_EQ(got.tuples, want.tuples) << label;
  EXPECT_EQ(got.firings, want.firings) << label;
  EXPECT_EQ(got.join_attempts, want.join_attempts) << label;
  EXPECT_EQ(got.index_probes, want.index_probes) << label;
  EXPECT_EQ(got.index_hits, want.index_hits) << label;
}

// Guesses over a corpus: scanned by the verifier, skipped by it, solved
// by it, shared by it.
struct Tally {
  std::size_t scanned = 0;
  std::size_t skipped = 0;
  std::size_t solved = 0;
  std::size_t shared = 0;
};

// What (e) compares between the guesses of one class.
struct Solved {
  std::string program;
  bool derived = false;
  dl::EvalStats stats;
};

std::string RulesText(const dl::Program& prog) {
  std::string text;
  for (const dl::Rule& r : prog.rules()) text += prog.RuleToString(r) + "\n";
  return text;
}

void ExpectSameSolve(const Solved& got, const Solved& want,
                     const std::string& label) {
  EXPECT_EQ(got.program, want.program) << label;
  EXPECT_EQ(got.derived, want.derived) << label;
  EXPECT_EQ(got.stats.tuples, want.stats.tuples) << label;
  EXPECT_EQ(got.stats.rule_firings, want.stats.rule_firings) << label;
  EXPECT_EQ(got.stats.join_attempts, want.stats.join_attempts) << label;
  EXPECT_EQ(got.stats.index_probes, want.stats.index_probes) << label;
  EXPECT_EQ(got.stats.index_hits, want.stats.index_hits) << label;
  EXPECT_EQ(got.stats.goal_found, want.stats.goal_found) << label;
  // Not index_builds: an engine keeps the indexes earlier solves built,
  // so that count depends on what the engine solved before.
}

// The whole pipeline on every guess of the capped enumeration, checking
// (a), (b) and (e) on each, up to the first guess that derives the goal.
// Returns the replay's scan and, in *rejected, how many of its guesses
// MayDerive rejects and, in *shared, how many have the key of an earlier
// guess.
Scan Replay(const SimplSystem& sys, const Goal& goal, std::size_t* rejected,
            std::size_t* shared, const std::string& label) {
  GuessEnumOptions ge;
  ge.max_guesses = kMaxGuesses;
  bool complete = false;
  const std::vector<DisGuess> guesses = EnumerateDisGuesses(sys, ge, &complete);
  const MakePOptions mp{goal};
  const MakePEncoder encoder(sys, mp);
  dl::EvalOptions eval;
  eval.max_tuples = DatalogVerifierOptions{}.max_tuples_per_query;
  dl::Engine engine;
  Scan out;
  out.guesses = guesses.size();
  *rejected = 0;
  *shared = 0;
  // Per class key, the first guess's solve.
  std::unordered_map<std::string, Solved> classes;
  std::string key;
  for (std::size_t k = 0; k < guesses.size(); ++k) {
    const MakePResult q = MakeP(sys, guesses[k], mp);
    const dlopt::OptimizeResult opt = dlopt::OptimizeForQuery(*q.prog, q.goal);
    bool derived = false;
    try {
      derived = engine.Solve(opt.prog, q.goal, eval);
    } catch (const dl::BudgetExceeded&) {
      ADD_FAILURE() << label << ": guess " << k << " blew the tuple budget";
      return out;
    }
    const dl::EvalStats& st = engine.last_stats();
    const std::string where = label + " guess " + std::to_string(k);
    const bool may_derive = encoder.MayDerive(guesses[k], &key);
    if (may_derive) {
      // (e)
      Solved solved{RulesText(opt.prog), derived, st};
      const auto it = classes.find(key);
      if (it == classes.end()) {
        classes.emplace(key, std::move(solved));
      } else {
        ExpectSameSolve(solved, it->second, where);
        ++*shared;
      }
    } else {
      // (a)
      EXPECT_EQ(opt.prog.size(), 0u) << where;
      EXPECT_FALSE(derived) << where;
      EXPECT_EQ(st.tuples, 0u) << where;
      EXPECT_EQ(st.rule_firings, 0u) << where;
      EXPECT_EQ(st.join_attempts, 0u) << where;
      EXPECT_EQ(st.index_probes, 0u) << where;
      EXPECT_EQ(st.index_hits, 0u) << where;
      EXPECT_EQ(st.index_builds, 0u) << where;
      ++*rejected;
    }
    // (b)
    EXPECT_TRUE(may_derive || !derived) << where;
    out.tuples += st.tuples;
    out.firings += st.rule_firings;
    out.join_attempts += st.join_attempts;
    out.index_probes += st.index_probes;
    out.index_hits += st.index_hits;
    if (derived) {
      out.unsafe = true;
      out.witness = guesses[k].ToString(sys);
      out.guesses = k + 1;
      break;
    }
  }
  return out;
}

// (c), plus the verifier's own accounting: every scanned guess is
// solved, skipped or shared, and it skips and shares exactly the guesses
// the replay saw MayDerive reject and keyed like an earlier one.
void CheckQuery(const SimplSystem& sys, const Goal& goal,
                const std::string& label, Tally* tally) {
  std::size_t rejected = 0;
  std::size_t shared = 0;
  const Scan replay = Replay(sys, goal, &rejected, &shared, label);
  DatalogVerifierOptions options;
  options.goal_message = goal;
  options.guess.max_guesses = kMaxGuesses;
  const DatalogVerdict v = DatalogVerify(sys, options);
  ExpectSameScan(Scan{v.unsafe, v.witness_guess, v.guesses, v.total_tuples,
                      v.rule_firings, v.join_attempts, v.index_probes,
                      v.index_hits},
                 replay, label);
  EXPECT_EQ(v.queries_evaluated + v.solves_skipped + v.solves_shared,
            v.guesses)
      << label;
  EXPECT_EQ(v.solves_skipped, rejected) << label;
  EXPECT_EQ(v.solves_shared, shared) << label;
  tally->scanned += v.guesses;
  tally->skipped += v.solves_skipped;
  tally->solved += v.queries_evaluated;
  tally->shared += v.solves_shared;
}

// (d) and (f)
void ExpectGroupsLarge(const Tally& t) {
  ASSERT_GT(t.scanned, 0u);
  EXPECT_GE(4 * t.skipped, t.scanned)
      << t.skipped << " of " << t.scanned << " guesses skipped";
  EXPECT_GE(4 * (t.solved + t.shared), t.scanned)
      << t.solved << " solved and " << t.shared << " shared of "
      << t.scanned << " guesses";
  EXPECT_GT(t.shared, t.solved)
      << t.shared << " shared, " << t.solved << " solved";
}

TEST(GoalSkipTest, CatalogMatchesReplay) {
  Tally tally;
  for (const BenchmarkCase& bench : StandardBenchmarks()) {
    CheckQuery(bench.system.simpl(), std::nullopt, bench.name, &tally);
  }
  // dekker-cas alone makes all 384 of its guesses skippable.
  EXPECT_GT(tally.skipped, 0u);
  EXPECT_GT(tally.solved, 0u);
}

// A generated shape with the goals the benchmark corpus gives each
// generator seed.
template <typename MakeSystem>
void CheckShape(std::uint64_t first, std::uint64_t last,
                MakeSystem make_system) {
  Tally tally;
  for (std::uint64_t seed = first; seed < last; ++seed) {
    const ParamSystem sys = make_system(seed);
    CheckQuery(sys.simpl(), GuessHeavyGoal(sys, seed),
               "seed " + std::to_string(seed), &tally);
  }
  ExpectGroupsLarge(tally);
}

// The guess-heavy shape on seeds 0-599, the band the benchmark corpus
// draws its systems from, in shards of 100 for ctest's parallelism.
ParamSystem GuessHeavySystem(std::uint64_t seed) {
  return RandGuessySystem(seed);
}

TEST(GoalSkipTest, GuessHeavyShapeFirstHundred) {
  CheckShape(0, 100, GuessHeavySystem);
}

TEST(GoalSkipTest, GuessHeavyShapeSecondHundred) {
  CheckShape(100, 200, GuessHeavySystem);
}

TEST(GoalSkipTest, GuessHeavyShapeThirdHundred) {
  CheckShape(200, 300, GuessHeavySystem);
}

TEST(GoalSkipTest, GuessHeavyShapeFourthHundred) {
  CheckShape(300, 400, GuessHeavySystem);
}

TEST(GoalSkipTest, GuessHeavyShapeFifthHundred) {
  CheckShape(400, 500, GuessHeavySystem);
}

TEST(GoalSkipTest, GuessHeavyShapeSixthHundred) {
  CheckShape(500, 600, GuessHeavySystem);
}

TEST(GoalSkipTest, DisCasShapeMatchesReplay) {
  CheckShape(0, 100, [](std::uint64_t s) {
    return RandGuessySystem(s, 3, /*dis_cas=*/true);
  });
}

TEST(GoalSkipTest, TwoDisThreadShapeMatchesReplay) {
  CheckShape(0, 60, RandGuessyTwoDisSystem);
}

ParamSystem SystemOf(const std::string& env, const std::string& dis) {
  const auto parse = [](const std::string& text) {
    Expected<Program> p = ParseProgram(text);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    return std::move(p).value();
  };
  ParamSystem::Builder builder;
  builder.Env(parse(env)).Dis(parse(dis));
  Expected<ParamSystem> sys = builder.Build();
  EXPECT_TRUE(sys.ok()) << (sys.ok() ? "" : sys.error());
  return std::move(sys).value();
}

// A dis thread that writes x, then y with 1 or 2 as its choice goes: its
// two guesses differ in nothing but the branch taken after the write of x
// and the value then written to y.
constexpr char kChoiceWriter[] = R"(
  program dis
  vars x y
  regs r
  dom 3
  begin
    r := 1;
    x := r;
    choice { r := 1 } or { r := 2 };
    y := r
  end
)";

// Both guesses of kChoiceWriter under env `env`: whether MayDerive passes
// them, whether their class keys are equal, and the verifier's counts,
// checked against the replay.
void CheckChoiceWriter(const std::string& env, bool keys_equal,
                       const std::string& label) {
  const ParamSystem sys = SystemOf(env, kChoiceWriter);
  bool complete = false;
  const std::vector<DisGuess> guesses =
      EnumerateDisGuesses(sys.simpl(), {}, &complete);
  ASSERT_TRUE(complete) << label;
  ASSERT_EQ(guesses.size(), 2u) << label;
  const MakePEncoder encoder(sys.simpl(), MakePOptions{});
  std::string key0;
  std::string key1;
  ASSERT_TRUE(encoder.MayDerive(guesses[0], &key0)) << label;
  ASSERT_TRUE(encoder.MayDerive(guesses[1], &key1)) << label;
  EXPECT_EQ(key0 == key1, keys_equal) << label;
  Tally tally;
  CheckQuery(sys.simpl(), std::nullopt, label, &tally);
  EXPECT_EQ(tally.scanned, 2u) << label;
  EXPECT_EQ(tally.skipped, 0u) << label;
  EXPECT_EQ(tally.shared, keys_equal ? 1u : 0u) << label;
  EXPECT_EQ(tally.solved, keys_equal ? 1u : 2u) << label;
}

// Envs that assert after reading x = 2, which nothing writes, so every
// guess of kChoiceWriter passes MayDerive and the scan visits both. The
// second also reads y on the way to the assert.
constexpr char kEnvReadsX[] = R"(
  program env
  vars x y
  regs a
  dom 3
  begin
    a := x;
    assume (a == 2);
    assert false
  end
)";
constexpr char kEnvReadsYThenX[] = R"(
  program env
  vars x y
  regs a b
  dom 3
  begin
    b := y;
    a := x;
    assume (a == 2);
    assert false
  end
)";

TEST(GoalSkipTest, DemandCutSharesGuessesThatDifferInUndemandedWrites) {
  // Nothing demands y: no env load reads it, no dis step reads it and the
  // goal is the assert. dlopt deletes the chain after the write of x, so
  // the guesses share one solve.
  CheckChoiceWriter(kEnvReadsX, /*keys_equal=*/true, "y undemanded");
  // An env load of y on the way to the assert demands every write of y,
  // so the guesses stay apart.
  CheckChoiceWriter(kEnvReadsYThenX, /*keys_equal=*/false, "y demanded");
}

}  // namespace
}  // namespace rapar
