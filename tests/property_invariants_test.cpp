// Property-based invariant tests.
//
//  * View lattice laws (the join semilattice the semantics computes in).
//  * Timestamp-lifting laws (Lemma 3.1's machinery): strictly increasing
//    per-variable transformations commute with join and preserve the
//    order — the algebraic core of why canonical/dense timestamps are
//    sound in both explorers.
//  * Random-walk invariants of the simplified configurations: whatever
//    enabled steps are applied, the structural invariants hold.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "lang/random_program.h"
#include "ra/view.h"
#include "simplified/explorer.h"

namespace rapar {
namespace {

View RandomView(Rng& rng, std::size_t vars, Timestamp max_ts) {
  View v(vars);
  for (std::size_t i = 0; i < vars; ++i) {
    v.Slot(i) = static_cast<Timestamp>(rng.Below(max_ts + 1));
  }
  return v;
}

class ViewLatticeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewLatticeTest, JoinLaws) {
  Rng rng(GetParam());
  const std::size_t vars = 1 + rng.Below(6);
  View a = RandomView(rng, vars, 9);
  View b = RandomView(rng, vars, 9);
  View c = RandomView(rng, vars, 9);

  // Idempotence, commutativity, associativity.
  EXPECT_TRUE(a.Join(a) == a);
  EXPECT_TRUE(a.Join(b) == b.Join(a));
  EXPECT_TRUE(a.Join(b).Join(c) == a.Join(b.Join(c)));
  // Join is the least upper bound.
  EXPECT_TRUE(a.Leq(a.Join(b)));
  EXPECT_TRUE(b.Leq(a.Join(b)));
  View ub = a.Join(b).Join(c);
  EXPECT_TRUE(a.Join(b).Leq(ub));
}

TEST_P(ViewLatticeTest, LeqIsPartialOrder) {
  Rng rng(GetParam() + 1000);
  const std::size_t vars = 1 + rng.Below(6);
  View a = RandomView(rng, vars, 9);
  View b = RandomView(rng, vars, 9);
  EXPECT_TRUE(a.Leq(a));
  if (a.Leq(b) && b.Leq(a)) {
    EXPECT_TRUE(a == b);
  }
  // Monotone: joins dominate.
  EXPECT_TRUE(a.Leq(a.Join(b)));
}

TEST_P(ViewLatticeTest, LiftingCommutesWithJoin) {
  // A per-variable strictly increasing map (Lemma 3.1's M) applied to
  // views: M(a ⊔ b) == M(a) ⊔ M(b), and a ≤ b iff M(a) ≤ M(b).
  Rng rng(GetParam() + 2000);
  const std::size_t vars = 1 + rng.Below(4);
  // Random strictly increasing maps on 0..9 with mu(0)=0.
  std::vector<std::vector<Timestamp>> mu(vars);
  for (std::size_t x = 0; x < vars; ++x) {
    Timestamp cur = 0;
    mu[x].push_back(0);
    for (int t = 1; t <= 9; ++t) {
      cur += 1 + static_cast<Timestamp>(rng.Below(3));
      mu[x].push_back(cur);
    }
  }
  auto lift = [&](const View& v) {
    View out(vars);
    for (std::size_t x = 0; x < vars; ++x) {
      out.Slot(x) = mu[x][static_cast<std::size_t>(v.Slot(x))];
    }
    return out;
  };
  View a = RandomView(rng, vars, 9);
  View b = RandomView(rng, vars, 9);
  EXPECT_TRUE(lift(a.Join(b)) == lift(a).Join(lift(b)));
  EXPECT_EQ(a.Leq(b), lift(a).Leq(lift(b)));
  EXPECT_EQ(a == b, lift(a) == lift(b));
}

INSTANTIATE_TEST_SUITE_P(Random, ViewLatticeTest,
                         ::testing::Range<std::uint64_t>(1, 40));

// --- random-walk invariants over the simplified semantics --------------------

struct WalkSystem {
  std::vector<std::unique_ptr<Cfa>> owned;
  SimplSystem sys;
};

WalkSystem MakeWalkSystem(std::uint64_t seed) {
  Rng rng(seed);
  RandomProgramOptions env_opts;
  env_opts.num_vars = 2;
  env_opts.num_regs = 2;
  env_opts.dom = 3;
  env_opts.size = 5;
  RandomProgramOptions dis_opts = env_opts;
  dis_opts.allow_cas = true;
  WalkSystem w;
  Program env = RandomProgram(rng, env_opts, "env");
  Program dis = RandomProgram(rng, dis_opts, "dis");
  w.owned.push_back(std::make_unique<Cfa>(Cfa::Build(env)));
  w.owned.push_back(std::make_unique<Cfa>(Cfa::Build(dis)));
  w.sys.env = w.owned[0].get();
  w.sys.dis = {w.owned[1].get()};
  w.sys.dom = env_opts.dom;
  w.sys.num_vars = env_opts.num_vars;
  return w;
}

// Structural invariants every reachable abstract configuration satisfies.
void CheckInvariants(const SimplSystem& sys, const SimplConfig& cfg) {
  for (std::size_t xi = 0; xi < sys.num_vars; ++xi) {
    const VarId x(static_cast<std::uint32_t>(xi));
    const auto& seq = cfg.DisMsgsOf(x);
    ASSERT_GE(seq.size(), 1u);
    // Dis message i has its own timestamp 2i; init is first, never glued.
    EXPECT_EQ(seq[0].val, kInitValue);
    EXPECT_FALSE(seq[0].glued);
    for (std::size_t p = 0; p < seq.size(); ++p) {
      EXPECT_EQ(seq[p].view[x], DisTs(static_cast<int>(p)));
      EXPECT_LT(seq[p].val, sys.dom);
    }
  }
  for (const EnvMsg& m : cfg.env_msgs()) {
    // Env timestamps are of the ⁺ form and within the gap range.
    EXPECT_TRUE(IsPlus(m.ts()));
    EXPECT_LT(GapOf(m.ts()), cfg.NumGaps(m.var));
    // Frozen gaps hold no env messages.
    EXPECT_FALSE(cfg.GapFrozen(m.var, GapOf(m.ts())));
    EXPECT_LT(m.val, sys.dom);
  }
  // Views never exceed the top timestamp of their variable.
  auto check_view = [&](const View& vw) {
    for (std::size_t xi = 0; xi < sys.num_vars; ++xi) {
      const VarId x(static_cast<std::uint32_t>(xi));
      EXPECT_GE(vw[x], 0);
      EXPECT_LE(vw[x], PlusTs(cfg.NumGaps(x) - 1));
    }
  };
  for (const EnvMsg& m : cfg.env_msgs()) check_view(m.view);
  for (const LocalCfg& c : cfg.env_cfgs()) check_view(c.view);
  for (const LocalCfg& t : cfg.dis_threads()) check_view(t.view);
}

class RandomWalkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWalkTest, InvariantsHoldAlongRandomRuns) {
  const std::uint64_t seed = GetParam();
  WalkSystem w = MakeWalkSystem(seed);
  Rng rng(seed * 31 + 7);
  for (ViewChoice policy : {ViewChoice::kMinimal, ViewChoice::kAll}) {
    SimplConfig cfg = InitialConfig(w.sys);
    CheckInvariants(w.sys, cfg);
    std::vector<SimplStep> steps;
    for (int i = 0; i < 60; ++i) {
      steps.clear();
      EnumerateSteps(w.sys, cfg, policy, steps);
      if (steps.empty()) break;
      const SimplStep& step = steps[rng.Below(steps.size())];
      ApplyStep(w.sys, cfg, step);
      CheckInvariants(w.sys, cfg);
    }
  }
}

TEST_P(RandomWalkTest, HashEqualityConsistentAlongRuns) {
  const std::uint64_t seed = GetParam();
  WalkSystem w = MakeWalkSystem(seed);
  Rng rng(seed * 17 + 3);
  SimplConfig cfg = InitialConfig(w.sys);
  std::vector<SimplStep> steps;
  for (int i = 0; i < 40; ++i) {
    steps.clear();
    EnumerateSteps(w.sys, cfg, ViewChoice::kMinimal, steps);
    if (steps.empty()) break;
    SimplConfig copy = cfg;
    EXPECT_EQ(copy.DisPartHash(), cfg.DisPartHash());
    EXPECT_TRUE(copy == cfg && cfg == copy);
    ApplyStep(w.sys, cfg, steps[rng.Below(steps.size())]);
  }
}

TEST_P(RandomWalkTest, MonotoneComponentsOnlyGrow) {
  const std::uint64_t seed = GetParam();
  WalkSystem w = MakeWalkSystem(seed);
  Rng rng(seed * 13 + 11);
  SimplConfig cfg = InitialConfig(w.sys);
  std::vector<SimplStep> steps;
  for (int i = 0; i < 50; ++i) {
    steps.clear();
    EnumerateSteps(w.sys, cfg, ViewChoice::kMinimal, steps);
    if (steps.empty()) break;
    const std::size_t msgs = cfg.env_msgs().size();
    const std::size_t cfgs = cfg.env_cfgs().size();
    ApplyStep(w.sys, cfg, steps[rng.Below(steps.size())]);
    EXPECT_GE(cfg.env_msgs().size(), msgs);
    EXPECT_GE(cfg.env_cfgs().size(), cfgs);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, RandomWalkTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rapar
