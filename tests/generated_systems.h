// Generated systems shared by the test suites: the rand-guessy shape of
// the guess-heavy benchmark corpus (rabench/workloads.cpp), its
// Message-Generation goals, a CAS-enabled variant of it and a variant
// with two dis threads.
#ifndef RAPAR_TESTS_GENERATED_SYSTEMS_H_
#define RAPAR_TESTS_GENERATED_SYSTEMS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/verifier.h"
#include "lang/random_program.h"

namespace rapar {

// Generator seed `seed` in the rand-guessy shape: `num_vars` variables,
// 3 registers, domain 4, env size 10, dis size 8, no loops. With
// `dis_cas` the dis thread may also CAS (the env stays CAS-free, as
// makeP requires).
inline ParamSystem RandGuessySystem(std::uint64_t seed, int num_vars = 3,
                                    bool dis_cas = false,
                                    int dis_threads = 1, int dis_size = 8) {
  Rng rng(seed);
  RandomProgramOptions env_opts;
  env_opts.num_vars = num_vars;
  env_opts.num_regs = 3;
  env_opts.dom = 4;
  env_opts.size = 10;
  env_opts.allow_cas = false;
  env_opts.allow_loops = false;
  RandomProgramOptions dis_opts = env_opts;
  dis_opts.size = dis_size;
  dis_opts.allow_cas = dis_cas;
  ParamSystem::Builder builder;
  builder.Env(RandomProgram(rng, env_opts, "env"));
  for (int t = 0; t < dis_threads; ++t) {
    builder.Dis(RandomProgram(rng, dis_opts, "dis"));
  }
  Expected<ParamSystem> sys = builder.Build();
  EXPECT_TRUE(sys.ok()) << "seed " << seed << ": "
                        << (sys.ok() ? "" : sys.error());
  return std::move(sys).value();
}

// Generator seed `seed` in the rand-guessy shape with two dis threads of
// size 5 each: the second thread's dtp predicates are numbered after the
// first thread's, so their ids depend on the first thread's path length.
inline ParamSystem RandGuessyTwoDisSystem(std::uint64_t seed) {
  return RandGuessySystem(seed, 3, /*dis_cas=*/false, /*dis_threads=*/2,
                          /*dis_size=*/5);
}

// The Message-Generation goal the guess-heavy corpus gives generator seed
// `seed` (RandomProgram never emits `assert false`, so the assert query
// of a generated system is SAFE by construction): a variable v0..v{n-1}
// and a value 1..dom-1, never the init value.
inline std::pair<VarId, Value> GuessHeavyGoal(const ParamSystem& sys,
                                              std::uint64_t seed,
                                              int num_vars = 3,
                                              Value dom = 4) {
  Rng goal_rng(0x6d67676f616c7321ULL ^ seed);
  const std::string var =
      "v" + std::to_string(
                goal_rng.Below(static_cast<std::uint64_t>(num_vars)));
  const Value val = static_cast<Value>(goal_rng.IntIn(1, dom - 1));
  const VarId x = sys.vars().Find(var);
  EXPECT_TRUE(x.valid()) << var;
  return {x, val};
}

// A SAFE system with a long Datalog guess scan: generator seed 135 in the
// two-dis-thread shape enumerates 63,000 guesses. Its assert query is
// SAFE by construction and no guess can derive the goal, so the verifier
// skips every guess. A full scan is guess enumeration and the skip test
// alone: ~9 ms on a 4-vCPU x86 VM (RelWithDebInfo), about 9x the 1 ms
// budget the deadline tests give it. (Seed 272's one dis thread, 3,750
// guesses, scans in ~1 ms since the cursor steps its guesses in place,
// so a 1 ms budget cut that scan short only some of the time.)
inline ParamSystem ManyGuessSafeSystem() { return RandGuessyTwoDisSystem(135); }

}  // namespace rapar

#endif  // RAPAR_TESTS_GENERATED_SYSTEMS_H_
