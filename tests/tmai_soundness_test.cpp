// Differential soundness for the TMAI backend and bit-consistency for
// the portfolio cascade.
//
//  * TmaiSoundnessTest — TMAI is an over-approximation, so a kSafe
//    answer must agree with the exact Datalog backend (Theorem 4.1) on
//    every input: a corpus of random parameterized systems (all message
//    -generation goals of each) plus the benchmark catalog. One unsound
//    answer fails the run.
//  * TmaiPortfolioTest — the portfolio runs TMAI, then Datalog, so it
//    answers "portfolio:tmai" exactly when TMAI alone proves kSafe and
//    otherwise returns the Datalog backend's verdict bit for bit, and
//    two runs of a query give the same envelope apart from gauges.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/verifier.h"
#include "encoding/datalog_verifier.h"
#include "lang/random_program.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"

namespace rapar {
namespace {

constexpr int kNumVars = 2;
constexpr Value kDom = 3;

struct RandomSystem {
  std::vector<std::unique_ptr<Cfa>> owned;
  SimplSystem sys;
};

RandomSystem MakeRandomSystem(std::uint64_t seed) {
  Rng rng(seed);
  RandomProgramOptions opts;
  opts.num_vars = kNumVars;
  opts.num_regs = 2;
  opts.dom = kDom;
  opts.size = 4;
  opts.allow_cas = false;
  opts.allow_loops = false;

  RandomSystem r;
  Program env = RandomProgram(rng, opts, "env");
  Program dis = RandomProgram(rng, opts, "dis");
  r.owned.push_back(std::make_unique<Cfa>(Cfa::Build(env)));
  r.owned.push_back(std::make_unique<Cfa>(Cfa::Build(dis)));
  r.sys.env = r.owned[0].get();
  r.sys.dis = {r.owned[1].get()};
  r.sys.dom = kDom;
  r.sys.num_vars = kNumVars;
  return r;
}

// 300 random systems, every non-zero message-generation goal of each:
// whenever TMAI proves the goal ungenerable, the exact backend must
// agree. The generator has no asserts, so MG goals are the only
// abstraction-visible property — and the one the Datalog encoding
// decides directly.
TEST(TmaiSoundnessTest, RandomMessageGenerationDifferential) {
  int tmai_safe = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomSystem r = MakeRandomSystem(seed);
    tmai::TmaiSystem tsys = tmai::TmaiSystem::FromSimpl(r.sys);
    for (int var = 0; var < kNumVars; ++var) {
      for (Value val = 1; val < kDom; ++val) {
        tmai::TmaiGoal goal;
        goal.check_assert = false;
        goal.var = VarId(static_cast<std::uint32_t>(var));
        goal.val = val;
        tmai::TmaiResult tr = tmai::RunTmai(tsys, goal, {});
        if (!tr.safe) continue;
        ++tmai_safe;
        DatalogVerifierOptions dopts;
        dopts.goal_message = {goal.var, goal.val};
        DatalogVerdict dv = DatalogVerify(r.sys, dopts);
        EXPECT_FALSE(dv.unsafe)
            << "UNSOUND: seed " << seed << " goal (v" << var << ", " << val
            << "): TMAI proved the message ungenerable, Datalog generated "
            << "it";
        EXPECT_TRUE(dv.exhaustive) << "seed " << seed;
      }
    }
  }
  // The differential has no teeth if the abstraction never proves
  // anything on the corpus.
  EXPECT_GT(tmai_safe, 0);
}

// The same 300-seed differential under the relational and auto domains:
// the relational must-domain prunes reads, so its kSafe answers need
// their own soundness check against the exact backend. Auto must also be
// at least as strong as small-set (it retries relationally on kUnknown).
TEST(TmaiSoundnessTest, RandomMgDifferentialRelationalDomains) {
  int relational_safe = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomSystem r = MakeRandomSystem(seed);
    tmai::TmaiSystem tsys = tmai::TmaiSystem::FromSimpl(r.sys);
    for (int var = 0; var < kNumVars; ++var) {
      for (Value val = 1; val < kDom; ++val) {
        tmai::TmaiGoal goal;
        goal.check_assert = false;
        goal.var = VarId(static_cast<std::uint32_t>(var));
        goal.val = val;
        tmai::TmaiOptions sopts;
        sopts.domain = tmai::Domain::kSmallSet;
        tmai::TmaiOptions ropts;
        ropts.domain = tmai::Domain::kRelational;
        tmai::TmaiOptions aopts;
        aopts.domain = tmai::Domain::kAuto;
        const tmai::TmaiResult sr = tmai::RunTmai(tsys, goal, sopts);
        const tmai::TmaiResult rr = tmai::RunTmai(tsys, goal, ropts);
        const tmai::TmaiResult ar = tmai::RunTmai(tsys, goal, aopts);
        EXPECT_GE(ar.safe, sr.safe)
            << "seed " << seed << ": auto lost a small-set proof";
        if (!rr.safe && !ar.safe) continue;
        ++relational_safe;
        DatalogVerifierOptions dopts;
        dopts.goal_message = {goal.var, goal.val};
        DatalogVerdict dv = DatalogVerify(r.sys, dopts);
        EXPECT_FALSE(dv.unsafe)
            << "UNSOUND: seed " << seed << " goal (v" << var << ", " << val
            << "): the relational domain proved the message ungenerable, "
            << "Datalog generated it";
        EXPECT_TRUE(dv.exhaustive) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(relational_safe, 0);
}

// Every certificate the catalog produces must be accepted by the
// independent checker (conditions 1–4 of tmai/certcheck.h) against the
// very system it certifies: those of the fixpoint itself under each
// domain, and those SafetyVerifier::Run returns under the tmai and
// portfolio backends (one fixed configuration, the kAuto cascade), which
// it checks against the pre-passed system it proved them on.
TEST(TmaiSoundnessTest, CertcheckAcceptsEveryCatalogCertificate) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  suite.push_back(ProducerConsumerSafe(2));
  int certificates = 0;
  int auto_certificates = 0;
  int returned = 0;
  for (const BenchmarkCase& bench : suite) {
    const tmai::TmaiSystem tsys =
        tmai::TmaiSystem::FromSimpl(bench.system.simpl());
    for (tmai::Domain domain :
         {tmai::Domain::kSmallSet, tmai::Domain::kRelational,
          tmai::Domain::kAuto}) {
      tmai::TmaiOptions opts;
      opts.domain = domain;
      const tmai::TmaiResult r = tmai::RunTmai(tsys, {}, opts);
      if (!r.safe) continue;
      ASSERT_NE(r.certificate, nullptr)
          << bench.name << " under " << tmai::DomainName(domain)
          << ": safe without a certificate";
      const tmai::CertCheckResult res =
          tmai::CheckCertificate(tsys, *r.certificate);
      EXPECT_TRUE(res.valid)
          << bench.name << " under " << tmai::DomainName(domain) << ": "
          << res.error;
      ++certificates;
      if (domain == tmai::Domain::kAuto) ++auto_certificates;
    }
    const PreparedSystem prep = PrepareSystem(
        bench.system.simpl(), /*run_prepass=*/true, VarId::Invalid());
    const tmai::TmaiSystem prepared = tmai::TmaiSystem::FromSimpl(prep.simpl);
    for (Backend backend : {Backend::kTmai, Backend::kPortfolio}) {
      VerifierOptions vopts;
      vopts.backend = backend;
      const Verdict v = SafetyVerifier(bench.system).Run(std::nullopt, vopts);
      const std::string label =
          bench.name + " under " + BackendName(backend);
      if (v.certificate == nullptr) continue;
      EXPECT_TRUE(v.safe()) << label;
      const tmai::CertCheckResult res =
          tmai::CheckCertificate(prepared, *v.certificate);
      EXPECT_TRUE(res.valid) << label << ": " << res.error;
      ++returned;
    }
  }
  // Small-set proves 4 catalog cases; relational and auto prove those
  // plus the three mutual-exclusion protocols.
  EXPECT_GE(certificates, 11);
  EXPECT_GE(auto_certificates, 7);
  // The verifier returns a checked certificate for each of auto's proofs,
  // through both backends.
  EXPECT_EQ(returned, 2 * auto_certificates);
}

// Catalog half of the soundness differential: on every case TMAI proves
// safe, the exact backend (run to exhaustion) must also answer safe.
TEST(TmaiSoundnessTest, CatalogDifferential) {
  std::vector<BenchmarkCase> suite;
  suite.push_back(ProducerConsumer(1));
  suite.push_back(Barrier());
  suite.push_back(Rcu());
  suite.push_back(ChaseLevDeque());
  suite.push_back(Seqlock());
  suite.push_back(ProducerConsumerSafe(2));
  for (const BenchmarkCase& bench : suite) {
    SafetyVerifier verifier(bench.system);
    VerifierOptions topts;
    topts.backend = Backend::kTmai;
    Verdict tv = verifier.Run(std::nullopt, topts);
    if (!tv.safe()) continue;
    VerifierOptions dopts;
    dopts.backend = Backend::kDatalog;
    Verdict dv = verifier.Run(std::nullopt, dopts);
    EXPECT_EQ(dv.result, Verdict::Result::kSafe)
        << "UNSOUND: TMAI proved " << bench.name
        << " safe, Datalog says " << dv.ToString();
  }
}

// The JSON envelope of `v` with every gauge (the timings) zeroed.
std::string EnvelopeWithoutGauges(Verdict v, const VerifierOptions& options) {
  std::vector<std::string> gauges;
  for (const obs::Telemetry::Entry& e : v.telemetry.entries()) {
    if (e.is_gauge) gauges.push_back(e.name);
  }
  for (const std::string& name : gauges) v.telemetry.SetGauge(name, 0.0);
  return VerdictToJson(v, options, "verify", "");
}

// The portfolio is the cascade TMAI, then Datalog: "portfolio:tmai"
// exactly when TMAI alone answers kSafe, otherwise the Datalog backend's
// verdict with the same witness and counts, and a second run must give
// the same envelope apart from gauges. Returns whether TMAI decided.
bool ExpectPortfolioIsTheCascade(const SafetyVerifier& verifier,
                                 std::optional<std::pair<VarId, Value>> goal,
                                 const std::string& label) {
  VerifierOptions topts;
  topts.backend = Backend::kTmai;
  const bool tmai_safe = verifier.Run(goal, topts).safe();
  VerifierOptions dopts;
  dopts.backend = Backend::kDatalog;
  const Verdict dv = verifier.Run(goal, dopts);
  VerifierOptions popts;
  popts.backend = Backend::kPortfolio;
  const Verdict pv = verifier.Run(goal, popts);
  EXPECT_EQ(pv.result, dv.result)
      << label << ": portfolio " << pv.ToString() << " vs datalog "
      << dv.ToString();
  if (tmai_safe) {
    EXPECT_EQ(pv.backend, "portfolio:tmai") << label;
  } else {
    EXPECT_EQ(pv.backend, "portfolio:datalog") << label;
    EXPECT_EQ(pv.witness, dv.witness) << label;
    EXPECT_EQ(pv.stopped_phase, dv.stopped_phase) << label;
    for (const char* name : {obs::metric::kGuesses, obs::metric::kTuples,
                             obs::metric::kRuleFirings}) {
      EXPECT_TRUE(pv.telemetry.Has(name)) << label << " " << name;
      EXPECT_EQ(pv.telemetry.counter(name), dv.telemetry.counter(name))
          << label << " " << name;
    }
  }
  EXPECT_EQ(EnvelopeWithoutGauges(verifier.Run(goal, popts), popts),
            EnvelopeWithoutGauges(pv, popts))
      << label;
  return tmai_safe;
}

TEST(TmaiPortfolioTest, CatalogBitConsistency) {
  std::vector<BenchmarkCase> suite;
  suite.push_back(ProducerConsumer(1));
  suite.push_back(Barrier());
  suite.push_back(Rcu());
  suite.push_back(ChaseLevDeque());
  suite.push_back(Seqlock());
  suite.push_back(ProducerConsumerSafe(2));
  int tmai_decided = 0;
  for (const BenchmarkCase& bench : suite) {
    SafetyVerifier verifier(bench.system);
    tmai_decided +=
        ExpectPortfolioIsTheCascade(verifier, std::nullopt, bench.name);
  }
  // Both stages decide some of the catalog.
  EXPECT_GT(tmai_decided, 0);
  EXPECT_LT(tmai_decided, static_cast<int>(suite.size()));
}

// The portfolio's TMAI stage runs under the kAuto default, so a
// relational-only proof (Spinlock, Peterson handover, Dekker-CAS) must
// decide the cascade in its first stage: the verdict is TMAI's and
// carries the invariant certificate.
TEST(TmaiPortfolioTest, RelationalAutoProofSkipsTheRace) {
  for (const BenchmarkCase& bench :
       {Spinlock(), PetersonHandover(), DekkerCas()}) {
    SafetyVerifier verifier(bench.system);
    VerifierOptions popts;
    popts.backend = Backend::kPortfolio;
    Verdict v = verifier.Run(std::nullopt, popts);
    EXPECT_TRUE(v.safe()) << bench.name;
    EXPECT_EQ(v.backend, "portfolio:tmai") << bench.name;
    EXPECT_NE(v.certificate, nullptr) << bench.name;
    EXPECT_GE(v.telemetry.counter(obs::metric::kTmaiRelationalRounds), 1u)
        << bench.name;
  }
}

// Every non-zero MG goal of 25 random systems, so that both stages
// decide some of the queries.
TEST(TmaiPortfolioTest, RandomMgBitConsistency) {
  int queries = 0;
  int tmai_decided = 0;
  // ParamSystem owns its CFAs, so rebuild the random programs through the
  // builder (they are CAS- and loop-free by construction, hence in
  // class).
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    RandomProgramOptions opts;
    opts.num_vars = kNumVars;
    opts.num_regs = 2;
    opts.dom = kDom;
    opts.size = 4;
    opts.allow_cas = false;
    opts.allow_loops = false;
    Program env = RandomProgram(rng, opts, "env");
    Program dis = RandomProgram(rng, opts, "dis");
    Expected<ParamSystem> sys =
        ParamSystem::Builder().Env(std::move(env)).Dis(std::move(dis)).Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed << ": " << sys.error();
    SafetyVerifier verifier(sys.value());
    for (int var = 0; var < kNumVars; ++var) {
      for (Value val = 1; val < kDom; ++val) {
        ++queries;
        tmai_decided += ExpectPortfolioIsTheCascade(
            verifier,
            std::pair<VarId, Value>{VarId(static_cast<std::uint32_t>(var)),
                                    val},
            "seed " + std::to_string(seed) + " goal (" +
                std::to_string(var) + ", " + std::to_string(val) + ")");
      }
    }
  }
  EXPECT_GT(tmai_decided, 0);
  EXPECT_LT(tmai_decided, queries);
}

}  // namespace
}  // namespace rapar
