// Pins the Datalog backend's absolute derivation counts on a fixed set of
// queries. The parity suites compare the engine with itself (threads,
// EDB reuse, index ablations), so a change that reorders derivations the
// same way in every configuration passes them; this suite does not. Any
// change to the evaluation core must keep every solve deriving the same
// tuples in the same order, which keeps these numbers — verdict, guesses,
// tuples, firings, join attempts, index probes and hits — exactly as they
// are. The values were recorded from the engine before its native opcodes,
// trail-reset binding frame and constant-keyed delta dispatch landed.
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
  options.datalog.threads = 1;
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
      {"dekker-cas", {"safe", 384, 80, 84, 28, 32, 24}},
      {"peterson-ra", {"unsafe", 29, 122, 127, 27, 20, 17}},
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

TEST(DerivationPinTest, GeneratedMessageGenerationQueries) {
  // The rand-guessy shape (3 vars, 3 regs, dom 4, env size 10, dis size
  // 8, no CAS, no loops) with each generator seed's Message-Generation
  // goal, as in the guess-heavy corpus: seed 4 is unsafe after 124
  // guesses (the first-unsafe early exit), seed 49 a join-heavy safe scan.
  const std::pair<std::uint64_t, Pinned> want[] = {
      {4, {"unsafe", 124, 3478, 6410, 1240, 1610, 1239}},
      {49, {"safe", 35, 2002, 13583, 13181, 3390, 13181}},
  };
  for (const auto& [seed, pinned] : want) {
    Rng rng(seed);
    RandomProgramOptions env_opts;
    env_opts.num_vars = 3;
    env_opts.num_regs = 3;
    env_opts.dom = 4;
    env_opts.size = 10;
    RandomProgramOptions dis_opts = env_opts;
    dis_opts.size = 8;
    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << sys.error();
    Rng goal_rng(0x6d67676f616c7321ULL ^ seed);
    const std::string var = "v" + std::to_string(goal_rng.Below(3));
    const Value val =
        static_cast<Value>(goal_rng.IntIn(1, env_opts.dom - 1));
    const VarId x = sys.value().vars().Find(var);
    ASSERT_TRUE(x.valid()) << var;
    ExpectPinned(pinned,
                 Measure(sys.value(), std::pair<VarId, Value>{x, val}),
                 "gen:" + std::to_string(seed) + " mg(" + var + ", " +
                     std::to_string(val) + ")");
  }
}

}  // namespace
}  // namespace rapar
