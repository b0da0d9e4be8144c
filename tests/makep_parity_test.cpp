// Parity of the per-verify makeP encoder and of the consuming optimizer.
//
// The Datalog guess loop encodes guesses with one MakePEncoder per run
// (the env prefix is emitted once per store profile and copied per
// guess) and moves each program into dlopt::OptimizeForQuery. Both are
// refactors of what the loop evaluates, so for every enumerated guess:
//
//   1. the encoder's program equals a fresh MakeP(sys, g) — rule text,
//      declaration order and constants;
//   2. optimizing the moved-in program gives the same surviving rules,
//      per-rule removal causes and statistics as optimizing a copy;
//   3. every rule of the emitted and of the optimized program has at most
//      two body atoms (Lemma 4.2's thread-message join), so the engine,
//      which joins the rest of a body in body order once a delta fixes
//      one atom, never has an order to choose (DESIGN.md §7).
//
// Inputs: the benchmark catalog, 200 seeded random systems and one
// TQBF(n=3) reduction, each under an assert goal and a Message-Generation
// goal. Dekker-CAS contributes CAS-glued gaps and guesses spread over
// several store profiles, so the encoder's prefix cache both misses and
// hits.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "dlopt/optimize.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "lang/random_program.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rapar {
namespace {

using Goal = std::optional<std::pair<VarId, Value>>;

// Property 3: no rule of `prog` joins more than two body atoms.
void ExpectBinaryJoins(const dl::Program& prog, const std::string& at) {
  for (const dl::Rule& r : prog.rules()) {
    EXPECT_LE(r.body.size(), 2u) << at << ": " << prog.RuleToString(r);
  }
}

struct SystemStats {
  std::size_t guesses = 0;
  std::size_t profiles = 0;
  bool has_glued_gap = false;
};

// Checks both parity properties on every guess of `sys` (up to
// `max_guesses`) and reports what the corpus exercised.
SystemStats CheckSystem(const SimplSystem& sys, const Goal& goal,
                        std::size_t max_guesses, const std::string& label) {
  GuessEnumOptions ge;
  ge.max_guesses = max_guesses;
  bool complete = false;
  const std::vector<DisGuess> guesses = EnumerateDisGuesses(sys, ge, &complete);
  MakePOptions options;
  options.goal_message = goal;
  MakePEncoder encoder(sys, options);
  SystemStats stats;
  stats.guesses = guesses.size();
  for (std::size_t i = 0; i < guesses.size(); ++i) {
    const std::string at = label + " guess " + std::to_string(i);
    for (std::size_t x = 0; x < guesses[i].mem.size(); ++x) {
      for (int h = 0; h < guesses[i].StoresOn(x); ++h) {
        stats.has_glued_gap |= guesses[i].GapFrozen(x, h);
      }
    }
    MakePResult encoded = encoder.Encode(guesses[i]);
    const MakePResult fresh = MakeP(sys, guesses[i], options);
    EXPECT_EQ(encoded.goal, fresh.goal) << at;
    const std::string fresh_text = fresh.prog->ToString();
    EXPECT_EQ(encoded.prog->ToString(), fresh_text) << at;
    ExpectBinaryJoins(*fresh.prog, at + " emitted");

    const dlopt::OptimizeResult copied =
        dlopt::OptimizeForQuery(*fresh.prog, fresh.goal);
    EXPECT_EQ(fresh.prog->ToString(), fresh_text) << at << ": input changed";
    const dlopt::OptimizeResult moved =
        dlopt::OptimizeForQuery(std::move(*encoded.prog), encoded.goal);
    EXPECT_EQ(moved.prog.ToString(), copied.prog.ToString()) << at;
    ExpectBinaryJoins(moved.prog, at + " optimized");
    EXPECT_EQ(moved.cause, copied.cause) << at;
    EXPECT_EQ(moved.stats.ToString(), copied.stats.ToString()) << at;
    EXPECT_EQ(moved.stats.preds_before, copied.stats.preds_before) << at;
    EXPECT_EQ(moved.stats.preds_after, copied.stats.preds_after) << at;
    EXPECT_EQ(moved.stats.rules_before, fresh.prog->size()) << at;
  }
  stats.profiles = encoder.profiles();
  return stats;
}

// The first variable's value 1 as the Message-Generation goal.
Goal FirstVarGoal() { return std::pair<VarId, Value>{VarId(0), 1}; }

TEST(MakePParityTest, CatalogUnderAssertAndMgGoals) {
  const std::vector<BenchmarkCase> catalog = StandardBenchmarks();
  std::vector<std::pair<std::string, const SimplSystem*>> inputs;
  for (const BenchmarkCase& bench : catalog) {
    inputs.emplace_back(bench.name, &bench.system.simpl());
  }
  // One more input: a TQBF(n=3) reduction, the tqbf-eval workload's shape.
  Rng rng(0);
  const Expected<ParamSystem> tqbf = TqbfSystem(RandomQbf(rng, 3, 3));
  ASSERT_TRUE(tqbf.ok()) << tqbf.error();
  inputs.emplace_back("tqbf", &tqbf.value().simpl());
  for (const auto& [name, simpl] : inputs) {
    for (const Goal& goal : {Goal{}, FirstVarGoal()}) {
      const std::string label = name + (goal.has_value() ? " mg" : " assert");
      CheckSystem(*simpl, goal, 400, label);
    }
  }
}

TEST(MakePParityTest, DekkerCasCoversGluedGapsAndCacheHitsAndMisses) {
  const BenchmarkCase bench = DekkerCas();
  const SystemStats stats =
      CheckSystem(bench.system.simpl(), Goal{}, 400, bench.name);
  EXPECT_EQ(stats.guesses, 384u);
  EXPECT_TRUE(stats.has_glued_gap);
  // Misses: more than one profile. Hits: fewer profiles than guesses.
  EXPECT_GE(stats.profiles, 2u);
  EXPECT_LT(stats.profiles, stats.guesses);
}

TEST(MakePParityTest, RandomSystemsAcrossTwoHundredSeeds) {
  std::size_t guesses = 0;
  std::size_t multi_profile = 0;
  std::size_t glued = 0;
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
    dis_opts.allow_cas = seed % 2 == 1;
    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed << ": "
                          << (sys.ok() ? "" : sys.error());
    // Even seeds: assert goal. Odd seeds: a seeded MG goal.
    Goal goal;
    if (seed % 2 == 1) {
      goal = std::pair<VarId, Value>{
          VarId(static_cast<std::uint32_t>(rng.Below(2))),
          static_cast<Value>(rng.IntIn(1, 2))};
    }
    const SystemStats stats = CheckSystem(sys.value().simpl(), goal, 300,
                                          "seed " + std::to_string(seed));
    guesses += stats.guesses;
    multi_profile += stats.profiles >= 2 ? 1 : 0;
    glued += stats.has_glued_gap ? 1 : 0;
  }
  // The corpus must exercise the cache's miss path beyond the first
  // profile, and CAS glue.
  EXPECT_GT(guesses, 1000u);
  EXPECT_GT(multi_profile, 20u);
  EXPECT_GT(glued, 0u);
}

}  // namespace
}  // namespace rapar
