// Pins the Datalog backend's absolute derivation counts on a fixed set of
// queries. The parity suites compare the engine with itself (threads,
// EDB reuse, index ablations), so a change that reorders derivations the
// same way in every configuration passes them; this suite does not. Any
// change to the evaluation core must keep every solve deriving the same
// tuples in the same order, which keeps these numbers — verdict, guesses,
// tuples, firings, join attempts, index probes and hits — exactly as they
// are. The values were recorded from the engine before its native opcodes,
// trail-reset binding frame and constant-keyed delta dispatch landed. The
// catalog, three-variable and two-word rows were re-recorded once, when
// dlopt's productivity pass became value-level: it removes more rules
// (dekker-cas: every one), so fewer tuples are derived, and verdicts and
// guess counts stayed. The verifier's skip of guesses that cannot derive
// the goal moves no row: such a guess's optimized program is empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "lang/parser.h"
#include "lang/random_program.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rapar {
namespace {

struct Pinned {
  std::string verdict;
  std::size_t guesses;
  std::size_t tuples;
  std::size_t rule_firings;
  std::size_t join_attempts;
  std::size_t index_probes;
  std::size_t index_hits;
};

Pinned Measure(const ParamSystem& sys,
               std::optional<std::pair<VarId, Value>> goal) {
  VerifierOptions options;
  options.backend = Backend::kDatalog;
  const Verdict v = SafetyVerifier(sys).Run(goal, options);
  const obs::Telemetry& t = v.telemetry;
  return Pinned{std::string(VerdictName(v.result)),
                t.counter(obs::metric::kGuesses),
                t.counter(obs::metric::kTuples),
                t.counter(obs::metric::kRuleFirings),
                t.counter(obs::metric::kJoinAttempts),
                t.counter(obs::metric::kIndexProbes),
                t.counter(obs::metric::kIndexHits)};
}

// One pinned row in the table syntax below, so a failure prints the
// measured row ready to paste after an intended change of the derivation
// order.
std::string Row(const Pinned& p) {
  return "{\"" + p.verdict + "\", " + std::to_string(p.guesses) + ", " +
         std::to_string(p.tuples) + ", " + std::to_string(p.rule_firings) +
         ", " + std::to_string(p.join_attempts) + ", " +
         std::to_string(p.index_probes) + ", " +
         std::to_string(p.index_hits) + "}";
}

void ExpectPinned(const Pinned& want, const Pinned& got,
                  const std::string& label) {
  EXPECT_EQ(Row(want), Row(got)) << label;
}

TEST(DerivationPinTest, TqbfReductions) {
  // TqbfSystem(RandomQbf(n = 3, 3 literals)) from generator seeds 0..2,
  // the instances that open the tqbf-eval corpus: one guess each, so the
  // counts are those of a single large fixpoint.
  const Pinned want[] = {
      {"unsafe", 1, 10671, 77442, 76120, 6802, 76120},
      {"unsafe", 1, 13361, 107260, 105777, 8783, 105777},
      {"unsafe", 1, 9230, 60215, 59014, 5655, 59014},
  };
  for (int k = 0; k < 3; ++k) {
    Rng rng(static_cast<std::uint64_t>(k));
    Expected<ParamSystem> sys = TqbfSystem(RandomQbf(rng, 3, 3));
    ASSERT_TRUE(sys.ok()) << sys.error();
    ExpectPinned(want[k], Measure(sys.value(), std::nullopt),
                 "qbf:" + std::to_string(k));
  }
}

TEST(DerivationPinTest, CatalogCases) {
  const std::pair<const char*, Pinned> want[] = {
      {"dekker-cas", {"safe", 384, 0, 0, 0, 0, 0}},
      // A pinned dis read checks the message's pinned timestamp with two
      // field natives: it is not part of the join key, so more candidates
      // reach the checks than tuples fire.
      {"peterson-ra", {"unsafe", 29, 76, 80, 29, 14, 18}},
  };
  const std::vector<BenchmarkCase> catalog = StandardBenchmarks();
  for (const auto& [name, pinned] : want) {
    bool found = false;
    for (const BenchmarkCase& c : catalog) {
      if (c.name != name) continue;
      found = true;
      ExpectPinned(pinned, Measure(c.system, std::nullopt), c.name);
    }
    EXPECT_TRUE(found) << name;
  }
}

// The rand-guessy shape (`num_vars` vars, 3 regs, dom 4, env size 10,
// dis size 8, no CAS, no loops) with generator seed `seed`'s
// Message-Generation goal, as in the guess-heavy corpus.
void ExpectGeneratedPinned(std::uint64_t seed, int num_vars,
                           const Pinned& want) {
  Rng rng(seed);
  RandomProgramOptions env_opts;
  env_opts.num_vars = num_vars;
  env_opts.num_regs = 3;
  env_opts.dom = 4;
  env_opts.size = 10;
  RandomProgramOptions dis_opts = env_opts;
  dis_opts.size = 8;
  Program env = RandomProgram(rng, env_opts, "env");
  Program dis = RandomProgram(rng, dis_opts, "dis");
  Expected<ParamSystem> sys =
      ParamSystem::Builder().Env(std::move(env)).Dis(std::move(dis)).Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  Rng goal_rng(0x6d67676f616c7321ULL ^ seed);
  const std::string var = "v" + std::to_string(goal_rng.Below(
                                      static_cast<std::uint64_t>(num_vars)));
  const Value val = static_cast<Value>(goal_rng.IntIn(1, env_opts.dom - 1));
  const VarId x = sys.value().vars().Find(var);
  ASSERT_TRUE(x.valid()) << var;
  ExpectPinned(want, Measure(sys.value(), std::pair<VarId, Value>{x, val}),
               "gen:" + std::to_string(seed) + " vars=" +
                   std::to_string(num_vars) + " mg(" + var + ", " +
                   std::to_string(val) + ")");
}

TEST(DerivationPinTest, GeneratedMessageGenerationQueries) {
  // Seed 4 is unsafe after 124 guesses (the first-unsafe early exit),
  // seed 49 a join-heavy safe scan.
  ExpectGeneratedPinned(4, 3, {"unsafe", 124, 3241, 6173, 1240, 1499, 1239});
  ExpectGeneratedPinned(49, 3, {"safe", 35, 1958, 13539, 13177, 3354, 13177});
}

TEST(DerivationPinTest, GeneratedTwelveVariableQueries) {
  // Twelve variables: a guess with two or more dis stores on one variable
  // needs 3-bit view components, ten to a 32-bit word, so its views take
  // two words. The verifier's pre-pass slices stores to variables no
  // thread loads, which leaves such guesses rare here: all 70 of seed
  // 120's, none of the 79 and 185 that seeds 4 and 124 scan. These rows
  // pin guess counts and derivations that never join two-word views;
  // TwoWordViewQuery below pins a query that does.
  ExpectGeneratedPinned(4, 12, {"unsafe", 79, 6, 7, 2, 1, 1});
  ExpectGeneratedPinned(120, 12, {"safe", 70, 210, 210, 0, 0, 0});
  ExpectGeneratedPinned(124, 12, {"safe", 185, 370, 370, 0, 0, 0});
}

TEST(DerivationPinTest, TwoWordViewQuery) {
  // Twelve variables and two dis stores to v0, which the env loads: every
  // view takes two words, v10's and v11's timestamps in the second. The
  // env publishes v1, ..., v11 in order; the dis thread reads v11 = 1 and
  // then v10 = 0, which release-acquire forbids only because the view
  // join on the read carries v10's timestamp in the second word.
  std::string vars = "vars";
  for (int v = 0; v < 12; ++v) vars += " v" + std::to_string(v);
  std::string publish;
  for (int v = 1; v < 12; ++v) {
    publish += "; v" + std::to_string(v) + " := one";
  }
  auto parse = [](const std::string& text) {
    Expected<Program> p = ParseProgram(text);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    return std::move(p).value();
  };
  Program env = parse("program w\n" + vars + "\nregs one a\ndom 2\nbegin\n" +
                      "one := 1; a := v0" + publish + "\nend\n");
  Program dis = parse("program r\n" + vars + "\nregs s a b\ndom 2\nbegin\n" +
                      "s := 1; v0 := s; v0 := s; a := v11; assume (a == 1); " +
                      "b := v10; assume (b == 0); assert false\nend\n");
  Expected<ParamSystem> sys =
      ParamSystem::Builder().Env(std::move(env)).Dis(std::move(dis)).Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  ExpectPinned({"safe", 2, 94, 100, 15, 12, 9},
               Measure(sys.value(), std::nullopt), "two-word views");
}

}  // namespace
}  // namespace rapar
