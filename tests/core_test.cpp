// Public-API tests: ParamSystem builder, SafetyVerifier backends, and the
// benchmark suite verdicts (the RA litmus facts of §1's benchmark
// classification).
#include "core/verifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/benchmarks.h"
#include "generated_systems.h"
#include "lang/classify.h"
#include "lang/parser.h"

namespace rapar {
namespace {

Program MustParse(const std::string& text) {
  Expected<Program> p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
  return std::move(p).value();
}

TEST(ParamSystemTest, BuilderUnifiesVariableTables) {
  Program env = MustParse(R"(
    program env
    vars x y
    regs r
    dom 4
    begin
      r := x
    end
  )");
  Program dis = MustParse(R"(
    program dis
    vars y z
    regs s
    dom 4
    begin
      s := z
    end
  )");
  ParamSystem::Builder b;
  auto sys = b.Env(std::move(env)).Dis(std::move(dis)).Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  // Union {x, y, z} with env's variables first.
  EXPECT_EQ(sys.value().vars().size(), 3u);
  EXPECT_EQ(sys.value().vars().Name(VarId(0)), "x");
  EXPECT_EQ(sys.value().vars().Name(VarId(1)), "y");
  EXPECT_EQ(sys.value().vars().Name(VarId(2)), "z");
  // Every CFA sees the full universe.
  EXPECT_EQ(sys.value().env_cfa().program().vars().size(), 3u);
  EXPECT_EQ(sys.value().dis_cfa(0).program().vars().size(), 3u);
}

TEST(ParamSystemTest, RejectsCasInEnv) {
  Program env = MustParse(R"(
    program env
    vars x
    regs a b
    dom 2
    begin
      cas(x, a, b)
    end
  )");
  ParamSystem::Builder b;
  auto sys = b.Env(std::move(env)).Build();
  ASSERT_FALSE(sys.ok());
  EXPECT_NE(sys.error().find("undecidable"), std::string::npos);
}

TEST(ParamSystemTest, RejectsDomainMismatch) {
  ParamSystem::Builder b;
  b.Env(MustParse("program e\nvars x\nregs r\ndom 2\nbegin\nskip\nend"));
  b.Dis(MustParse("program d\nvars x\nregs r\ndom 3\nbegin\nskip\nend"));
  auto sys = b.Build();
  EXPECT_FALSE(sys.ok());
}

TEST(ParamSystemTest, DisLoopsRequireUnrollBound) {
  Program dis = MustParse(R"(
    program dis
    vars x
    regs r
    dom 2
    begin
      loop { r := x }
    end
  )");
  Program env =
      MustParse("program e\nvars x\nregs r\ndom 2\nbegin\nskip\nend");
  {
    ParamSystem::Builder b;
    auto sys = b.Env(env).Dis(dis).Build();
    EXPECT_FALSE(sys.ok());
  }
  {
    ParamSystem::Builder b;
    auto sys = b.Env(env).Dis(dis).UnrollDis(2).Build();
    ASSERT_TRUE(sys.ok()) << sys.error();
    EXPECT_TRUE(Classify(sys.value().dis_programs()[0]).loop_free);
  }
}

// BuildSystem, the one query builder of the CLI and serve: a parse error
// names the program by the caller's label (a file path, or "env" /
// "dis[i]"), and the unroll bound reaches the builder.
TEST(ParamSystemTest, BuildSystemLabelsParseErrors) {
  const std::string env =
      "program e\nvars x\nregs r\ndom 2\nbegin\nr := x\nend";
  const std::string loop =
      "program d\nvars x\nregs r\ndom 2\nbegin\nloop { r := x }\nend";
  const std::string bad = "program p\nbegin nonsense\n";
  const auto error = [](const Expected<ParamSystem>& sys) {
    return sys.ok() ? std::string("ok") : sys.error();
  };
  EXPECT_EQ(error(BuildSystem({"progs/env.rap", bad}, {}, 0))
                .rfind("progs/env.rap: expected 'vars'", 0),
            0u);
  EXPECT_EQ(error(BuildSystem({"env", bad}, {}, 0)).rfind("env: ", 0), 0u);
  EXPECT_EQ(error(BuildSystem({"env", env}, {{"dis[0]", env}, {"dis[1]", bad}},
                              0))
                .rfind("dis[1]: ", 0),
            0u);
  // Anything else is Build's error; the unroll bound reaches it.
  EXPECT_NE(error(BuildSystem({"env", env}, {{"dis[0]", loop}}, 0))
                .find("has loops"),
            std::string::npos);
  const Expected<ParamSystem> sys =
      BuildSystem({"env", env}, {{"dis[0]", loop}}, 2);
  ASSERT_TRUE(sys.ok()) << sys.error();
  EXPECT_TRUE(Classify(sys.value().dis_programs()[0]).loop_free);
}

// ResolveGoal, the one MG goal check of the CLI and serve: the variable is
// declared and 0 <= val < dom; the error spells the value as the caller
// does.
TEST(ParamSystemTest, ResolveGoalChecksVariableAndDomain) {
  const Expected<ParamSystem> sys = BuildSystem(
      {"env", "program e\nvars x y\nregs r\ndom 3\nbegin\nr := y\nend"},
      {}, 0);
  ASSERT_TRUE(sys.ok()) << sys.error();
  const Expected<std::pair<VarId, Value>> goal =
      ResolveGoal(sys.value(), "y", 2, "--val");
  ASSERT_TRUE(goal.ok()) << goal.error();
  EXPECT_EQ(goal.value().first, VarId(1));
  EXPECT_EQ(goal.value().second, 2);
  const auto error = [&](const char* var, long long val,
                         const char* val_name) {
    const Expected<std::pair<VarId, Value>> g =
        ResolveGoal(sys.value(), var, val, val_name);
    return g.ok() ? std::string("ok") : g.error();
  };
  EXPECT_EQ(error("zz", 1, "--val"), "unknown variable 'zz'");
  EXPECT_EQ(error("x", -1, "--val"),
            "--val -1 is outside the domain 0..2 of the system");
  EXPECT_EQ(error("x", 3, "\"val\""),
            "\"val\" 3 is outside the domain 0..2 of the system");
  EXPECT_EQ(error("x", 0, "--val"), "ok");
}

TEST(ParamSystemTest, SignatureAndBudgets) {
  BenchmarkCase pc = ProducerConsumer(2);
  // The producer happens to be loop-free too: env(nocas,acyc).
  EXPECT_NE(pc.system.Signature().find("env(nocas"), std::string::npos);
  EXPECT_NE(pc.system.Signature().find("dis1("), std::string::npos);
  // Consumer has exactly one store (y := one).
  EXPECT_EQ(pc.system.TimestampBudget(), 1);
  EXPECT_GT(pc.system.Q0(), 0);
}

// The signature recomposed from a fresh Classify of every built program;
// Build stores one composed from the classifications it validated with.
std::string RecomposedSignature(const ParamSystem& sys) {
  const Classification env = Classify(sys.env_program());
  std::string out = "env(" + env.ToString() + ")";
  std::vector<Classification> dis;
  for (std::size_t i = 0; i < sys.dis_programs().size(); ++i) {
    dis.push_back(Classify(sys.dis_programs()[i]));
    out += " || dis" + std::to_string(i + 1) + "(" + dis.back().ToString() +
           ")";
  }
  out += "  [" + ClassifySystem(env, dis).ToString() + "]";
  return out;
}

TEST(ParamSystemTest, StoredSignatureMatchesRecomposedClassification) {
  for (const BenchmarkCase& bench : StandardBenchmarks()) {
    EXPECT_EQ(bench.system.Signature(), RecomposedSignature(bench.system))
        << bench.name;
  }
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const ParamSystem plain = RandGuessySystem(seed);
    EXPECT_EQ(plain.Signature(), RecomposedSignature(plain)) << seed;
    const ParamSystem cas = RandGuessySystem(seed, 3, /*dis_cas=*/true);
    EXPECT_EQ(cas.Signature(), RecomposedSignature(cas)) << seed;
    const ParamSystem two = RandGuessyTwoDisSystem(seed);
    EXPECT_EQ(two.Signature(), RecomposedSignature(two)) << seed;
  }
  // A looping dis program is classified again after UnrollDis changed
  // it: the signature names the unrolled, loop-free program.
  Program dis = MustParse(R"(
    program dis
    vars x
    regs r
    dom 2
    begin
      loop { r := x; x := r }
    end
  )");
  ASSERT_FALSE(Classify(dis).loop_free);
  Program env =
      MustParse("program e\nvars x\nregs r\ndom 2\nbegin\nskip\nend");
  auto sys = ParamSystem::Builder().Env(env).Dis(dis).UnrollDis(2).Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  EXPECT_EQ(sys.value().Signature(), RecomposedSignature(sys.value()));
  EXPECT_NE(sys.value().Signature().find("dis1(nocas,acyc"),
            std::string::npos)
      << sys.value().Signature();
}

// --- Verifier on the benchmark suite -----------------------------------------

class BenchmarkVerdictTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BenchmarkVerdictTest, SimplifiedBackendMatchesExpectation) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  const BenchmarkCase& bench = suite[GetParam()];
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.time_budget_ms = 60'000;
  Verdict v = verifier.Run(std::nullopt, opts);
  ASSERT_NE(v.result, Verdict::Result::kUnknown) << bench.name;
  if (bench.expected_unsafe.has_value()) {
    EXPECT_EQ(v.unsafe(), *bench.expected_unsafe)
        << bench.name << ": " << bench.description;
  }
  if (v.unsafe()) {
    EXPECT_FALSE(v.witness.empty()) << bench.name;
    EXPECT_TRUE(v.env_thread_bound.has_value()) << bench.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, BenchmarkVerdictTest,
                         ::testing::Range<std::size_t>(0, 11));

TEST(BenchmarkSuiteTest, DatalogBackendAgreesOnSmallCases) {
  // The Datalog backend enumerates dis guesses; restrict to the cases
  // where that stays small.
  std::vector<BenchmarkCase> cases;
  cases.push_back(ProducerConsumer(1));
  cases.push_back(Barrier());
  cases.push_back(Rcu());
  for (const BenchmarkCase& bench : cases) {
    SafetyVerifier verifier(bench.system);
    VerifierOptions simpl_opts;
    Verdict vs = verifier.Run(std::nullopt, simpl_opts);
    VerifierOptions dl_opts;
    dl_opts.backend = Backend::kDatalog;
    Verdict vd = verifier.Run(std::nullopt, dl_opts);
    ASSERT_NE(vs.result, Verdict::Result::kUnknown) << bench.name;
    ASSERT_NE(vd.result, Verdict::Result::kUnknown) << bench.name;
    EXPECT_EQ(vs.unsafe(), vd.unsafe()) << bench.name;
  }
}

TEST(BenchmarkSuiteTest, ConcreteBackendConfirmsBugsWithinBound) {
  // §4.3: for unsafe cases the env-thread bound from the witness is a
  // sufficient concrete instance size.
  BenchmarkCase pc = ProducerConsumer(2);
  SafetyVerifier verifier(pc.system);
  Verdict v = verifier.Run(std::nullopt);
  ASSERT_TRUE(v.unsafe());
  ASSERT_TRUE(v.env_thread_bound.has_value());

  VerifierOptions copts;
  copts.backend = Backend::kConcrete;
  copts.concrete.env_threads = static_cast<int>(*v.env_thread_bound);
  Verdict vc = verifier.Run(std::nullopt, copts);
  EXPECT_TRUE(vc.unsafe());
}

// An env-thread count outside [1, kMaxEnvThreads] is invalid input, not
// an instance: Run throws before exploring (0 threads would explore only
// the dis threads and answer SAFE for this UNSAFE system; -1 would
// wrap). 4097 is checked only through the throw.
TEST(BenchmarkSuiteTest, ConcreteBackendRejectsEnvThreadsOutOfRange) {
  BenchmarkCase pc = ProducerConsumer(2);
  SafetyVerifier verifier(pc.system);
  VerifierOptions opts;
  opts.backend = Backend::kConcrete;
  for (const int n : {-1, 0, ConcreteBackendOptions::kMaxEnvThreads + 1}) {
    opts.concrete.env_threads = n;
    try {
      verifier.Run(std::nullopt, opts);
      ADD_FAILURE() << "env_threads " << n << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("concrete.env_threads"), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 4096]"), std::string::npos) << what;
    }
  }
}

TEST(BenchmarkSuiteTest, VerdictToStringMentionsResult) {
  BenchmarkCase rcu = Rcu();
  SafetyVerifier verifier(rcu.system);
  Verdict v = verifier.Run(std::nullopt);
  EXPECT_NE(v.ToString().find("SAFE"), std::string::npos);
}

TEST(BenchmarkSuiteTest, MessageGenerationQueries) {
  BenchmarkCase pc = ProducerConsumer(2);
  SafetyVerifier verifier(pc.system);
  VarId x = pc.system.vars().Find("x");
  // Producers can generate (x, 1) and (x, 2) but never (x, 3).
  EXPECT_TRUE(verifier.Run(std::pair{x, Value{1}}).unsafe());
  EXPECT_TRUE(verifier.Run(std::pair{x, Value{2}}).unsafe());
  EXPECT_TRUE(verifier.Run(std::pair{x, Value{3}}).safe());
}

TEST(BenchmarkSuiteTest, ProducerConsumerSafeVariantIsSafe) {
  BenchmarkCase pc = ProducerConsumerSafe(2);
  SafetyVerifier verifier(pc.system);
  EXPECT_TRUE(verifier.Run(std::nullopt).safe());
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  EXPECT_TRUE(verifier.Run(std::nullopt, opts).safe());
}

// A --scan-limit stop is requested, not a deadline: the text says so,
// while the JSON stopped_phase keeps its "scan-limit" value.
TEST(BenchmarkSuiteTest, VerdictToStringNamesScanLimitStop) {
  BenchmarkCase bench = DekkerCas();
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  opts.datalog.scan_limit = 5;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnknown);
  EXPECT_EQ(v.stopped_phase, "scan-limit");
  const std::string text = v.ToString();
  EXPECT_NE(text.find("[scan limit hit]"), std::string::npos) << text;
  EXPECT_EQ(text.find("deadline"), std::string::npos) << text;
}

// A deadline that fires after the answer is found cuts nothing short. The
// concrete backend explores an MG query to the end and reads the goal off
// the messages generated so far, so on ProducerConsumer(6), whose state
// space is far past what 200 ms explores, the deadline fires with (y, 1)
// long generated: a definitive UNSAFE, named by no stopped phase.
TEST(BenchmarkSuiteTest, UnsafeFoundBeforeTheDeadlineIsNotTruncated) {
  BenchmarkCase bench = ProducerConsumer(6);
  const VarId y = bench.system.vars().Find("y");
  ASSERT_TRUE(y.valid());
  VerifierOptions opts;
  opts.backend = Backend::kConcrete;
  opts.concrete.env_threads = 5;
  opts.time_budget_ms = 200;
  const Verdict v =
      SafetyVerifier(bench.system).Run(std::pair<VarId, Value>{y, 1}, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnsafe);
  EXPECT_EQ(v.stopped_phase, "");
  const std::string text = v.ToString();
  EXPECT_EQ(text.find("[deadline hit"), std::string::npos) << text;
}

// TMAI reads no deadline: a fixpoint cut short by tmai.max_iterations is
// printed as such, not as an expired deadline ("fixpoint" stays the
// stopped_phase). A chain of 63 dis threads, thread i passing x_i = 1 on
// to x_{i+1}, needs one interference round per link: one link more than
// the fixed 64 rounds converge on (62 threads converge at round 64).
TEST(BenchmarkSuiteTest, VerdictToStringNamesFixpointStop) {
  constexpr int kLinks = 63;
  std::string vars = "vars";
  for (int i = 0; i <= kLinks; ++i) vars += StrCat(" x", i);
  ParamSystem::Builder builder;
  builder.Env(MustParse(StrCat("program env\n", vars,
                               "\nregs one\ndom 2\nbegin\n"
                               "  one := 1;\n  x0 := one\nend\n")));
  for (int i = 0; i < kLinks; ++i) {
    builder.Dis(MustParse(StrCat(
        "program link", i, "\n", vars, "\nregs r s\ndom 2\nbegin\n  r := x",
        i, ";\n  assume (r == 1);\n  s := 1;\n  x", i + 1,
        " := s\nend\n")));
  }
  Expected<ParamSystem> system = builder.Build();
  ASSERT_TRUE(system.ok()) << system.error();
  SafetyVerifier verifier(system.value());
  VerifierOptions opts;
  opts.backend = Backend::kTmai;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnknown);
  ASSERT_EQ(v.stopped_phase, "fixpoint");
  const std::string text = v.ToString();
  EXPECT_NE(text.find("[fixpoint did not converge]"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("deadline"), std::string::npos) << text;
  // An unconverged small-set run is not retried relationally.
  EXPECT_FALSE(v.telemetry.Has("tmai.relational.rounds"));
}

}  // namespace
}  // namespace rapar
