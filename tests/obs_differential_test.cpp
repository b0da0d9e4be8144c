// Observability must be verdict-neutral and deadlines must degrade
// gracefully:
//
//   1. Tracing on vs off produces bit-identical verdicts, witnesses and
//      aggregate statistics. The recorder only appends to a buffer;
//      nothing the verifier computes may depend on it.
//   2. A wall-clock deadline (VerifierOptions::time_budget_ms) aborts
//      each backend cooperatively: the verdict degrades to kUnknown and
//      Verdict::stopped_phase names the phase that was cut short
//      ("solve" for the Datalog guess loop, "explore" for the
//      explorers). The abort point is timing-dependent; the verdict kind
//      and stopped_phase are not.
#include <gtest/gtest.h>

#include <limits>

#include "core/benchmarks.h"
#include "core/verifier.h"
#include "generated_systems.h"
#include "obs/trace.h"

namespace rapar {
namespace {

void ExpectIdentical(const Verdict& a, const Verdict& b, const char* label) {
  EXPECT_EQ(a.result, b.result) << label;
  EXPECT_EQ(a.witness, b.witness) << label;
  EXPECT_EQ(a.env_thread_bound, b.env_thread_bound) << label;
  EXPECT_EQ(a.stopped_phase, b.stopped_phase) << label;
  for (const char* name : {obs::metric::kGuesses, obs::metric::kTuples,
                           obs::metric::kRuleFirings,
                           obs::metric::kJoinAttempts, obs::metric::kStates}) {
    EXPECT_EQ(a.telemetry.counter(name), b.telemetry.counter(name))
        << label << " " << name;
  }
}

TEST(ObsDifferentialTest, TraceOnOffIdenticalDatalog) {
  for (bool safe_case : {false, true}) {
    BenchmarkCase bench =
        safe_case ? ProducerConsumerSafe(6) : ProducerConsumer(6);
    SafetyVerifier verifier(bench.system);
    VerifierOptions opts;
    opts.backend = Backend::kDatalog;

    const Verdict off = verifier.Run(std::nullopt, opts);
    obs::TraceRecorder rec;
    opts.obs.trace = &rec;
    const Verdict on = verifier.Run(std::nullopt, opts);

    ExpectIdentical(off, on, bench.name.c_str());
    EXPECT_GT(rec.size(), 0u) << bench.name;
  }
}

TEST(ObsDifferentialTest, TraceOnOffIdenticalSimplified) {
  for (bool safe_case : {false, true}) {
    BenchmarkCase bench =
        safe_case ? ProducerConsumerSafe(6) : ProducerConsumer(6);
    SafetyVerifier verifier(bench.system);
    VerifierOptions opts;
    opts.backend = Backend::kSimplifiedExplorer;

    const Verdict off = verifier.Run(std::nullopt, opts);
    obs::TraceRecorder rec;
    opts.obs.trace = &rec;
    const Verdict on = verifier.Run(std::nullopt, opts);

    ExpectIdentical(off, on, bench.name.c_str());
    EXPECT_GT(rec.size(), 0u);
  }
}

// The Datalog guess loop checks the deadline before every solve, so a
// 1 ms budget reliably cuts the scan short (the scan is SAFE, so only the
// deadline can stop it). The verdict must degrade to kUnknown with
// stopped_phase = "solve" — never a wrong "safe" — and the partial guess
// count must stay below the full scan.
TEST(ObsDifferentialTest, DeadlineAbortsDatalogSerial) {
  const ParamSystem system = ManyGuessSafeSystem();
  SafetyVerifier verifier(system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  VerifierOptions full = opts;
  const Verdict complete = verifier.Run(std::nullopt, full);
  ASSERT_EQ(complete.result, Verdict::Result::kSafe);
  ASSERT_EQ(complete.telemetry.counter(obs::metric::kGuesses), 63000u);
  opts.time_budget_ms = 1;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnknown);
  EXPECT_EQ(v.stopped_phase, "solve");
  EXPECT_TRUE(v.witness.empty());
  EXPECT_LT(v.telemetry.counter(obs::metric::kGuesses),
            complete.telemetry.counter(obs::metric::kGuesses));
  EXPECT_NE(v.ToString().find("[deadline hit in solve]"), std::string::npos);
}

// The saturation explorer checks its budget every few expansion steps;
// the safe producer/consumer instance takes several milliseconds to
// saturate, so a 1 ms budget reliably interrupts the search
// mid-exploration.
TEST(ObsDifferentialTest, DeadlineAbortsSimplifiedExplorer) {
  BenchmarkCase bench = ProducerConsumerSafe(12);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kSimplifiedExplorer;
  opts.time_budget_ms = 1;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnknown);
  EXPECT_EQ(v.stopped_phase, "explore");
}

TEST(ObsDifferentialTest, DeadlineAbortsConcreteExplorer) {
  BenchmarkCase bench = ProducerConsumerSafe(12);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kConcrete;
  opts.concrete.env_threads = 2;
  opts.time_budget_ms = 1;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kUnknown);
  EXPECT_EQ(v.stopped_phase, "explore");
}

// Without a budget the same instances complete: the deadline plumbing
// must not interfere with unbudgeted runs.
TEST(ObsDifferentialTest, NoBudgetMeansNoDeadline) {
  BenchmarkCase bench = ProducerConsumerSafe(6);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  opts.time_budget_ms = 0;
  const Verdict v = verifier.Run(std::nullopt, opts);
  EXPECT_EQ(v.result, Verdict::Result::kSafe);
  EXPECT_TRUE(v.stopped_phase.empty());
}

// Serve and the CLI accept any non-negative 64-bit budget. One longer
// than the steady clock can count from now never expires; adding it to
// the clock would overflow.
TEST(ObsDifferentialTest, BudgetBeyondTheClockMeansNoDeadline) {
  BenchmarkCase bench = ProducerConsumerSafe(6);
  SafetyVerifier verifier(bench.system);
  for (Backend backend : {Backend::kDatalog, Backend::kSimplifiedExplorer,
                          Backend::kConcrete}) {
    VerifierOptions opts;
    opts.backend = backend;
    opts.time_budget_ms = std::numeric_limits<long long>::max();
    const Verdict v = verifier.Run(std::nullopt, opts);
    EXPECT_NE(v.result, Verdict::Result::kUnknown) << v.backend;
    EXPECT_TRUE(v.stopped_phase.empty()) << v.backend;
  }
}

}  // namespace
}  // namespace rapar
