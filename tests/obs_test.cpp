// Unit tests for the observability layer: the shared JSON
// writer/parser (common/json.h), the Telemetry registry and the
// TraceRecorder/ScopedSpan machinery (src/obs/), plus an end-to-end
// check that a traced verify produces a well-formed Chrome trace with
// the documented span names and per-guess nesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/benchmarks.h"
#include "core/verifier.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace rapar {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\n");
  w.Key("i").Int(-42);
  w.Key("u").UInt(18446744073709551615ull);
  w.Key("b").Bool(true);
  w.Key("n").Null();
  w.Key("a").BeginArray().Int(1).Int(2).EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":-42,"
            "\"u\":18446744073709551615,\"b\":true,\"n\":null,"
            "\"a\":[1,2]}");
}

TEST(JsonWriterTest, DoublesTrimTrailingNoise) {
  JsonWriter w;
  w.BeginArray().Double(0.5).Double(3.0).Double(0.1).EndArray();
  Expected<JsonValue> v = ParseJson(w.str());
  ASSERT_TRUE(v.ok()) << v.error();
  ASSERT_EQ(v.value().items.size(), 3u);
  EXPECT_DOUBLE_EQ(v.value().items[0].number, 0.5);
  EXPECT_DOUBLE_EQ(v.value().items[1].number, 3.0);
  EXPECT_DOUBLE_EQ(v.value().items[2].number, 0.1);
  // The 0.1 rendering must not be printf noise.
  EXPECT_EQ(w.str().find("0.10000000000000001"), std::string::npos);
}

TEST(JsonWriterTest, PrettyOutputParses) {
  JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Key("outer").BeginObject().Key("inner").Int(1).EndObject();
  w.Key("list").BeginArray().String("x").EndArray();
  w.EndObject();
  EXPECT_NE(w.str().find('\n'), std::string::npos);
  EXPECT_TRUE(ParseJson(w.str()).ok());
}

TEST(ParseJsonTest, RoundTripAndLookup) {
  Expected<JsonValue> v =
      ParseJson("{\"a\": [1, 2.5, \"s\", null, false], \"b\": {\"c\": 7}}");
  ASSERT_TRUE(v.ok()) << v.error();
  const JsonValue* a = v.value().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_TRUE(a->items[0].number_is_int);
  EXPECT_EQ(a->items[0].integer, 1);
  EXPECT_FALSE(a->items[1].number_is_int);
  EXPECT_EQ(a->items[2].string, "s");
  EXPECT_TRUE(a->items[3].is_null());
  EXPECT_FALSE(a->items[4].boolean);
  const JsonValue* b = v.value().Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_EQ(b->Find("c")->integer, 7);
  EXPECT_EQ(v.value().Find("missing"), nullptr);
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{'a': 1}").ok());
}

TEST(ParseJsonTest, UnescapesStrings) {
  Expected<JsonValue> v = ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(v.ok()) << v.error();
  EXPECT_EQ(v.value().string, "a\"b\\c\n\tA");
}

// ----------------------------------------------------------- Telemetry

TEST(TelemetryTest, CountersAndGauges) {
  obs::Telemetry t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.counter("verify.states"), 0u);
  EXPECT_FALSE(t.Has("verify.states"));

  t.SetCounter("verify.states", 10);
  t.SetGauge("phase.total_ms", 1.25);
  EXPECT_EQ(t.counter("verify.states"), 10u);
  EXPECT_DOUBLE_EQ(t.gauge("phase.total_ms"), 1.25);
  EXPECT_TRUE(t.Has("phase.total_ms"));
  EXPECT_FALSE(t.empty());
}

TEST(TelemetryTest, InsertionOrderIsPreserved) {
  obs::Telemetry t;
  t.SetCounter("z.last", 1);
  t.SetCounter("a.first", 2);
  t.SetGauge("m.mid", 3.0);
  t.SetCounter("z.last", 4);  // update must not reorder
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.entries()[0].name, "z.last");
  EXPECT_EQ(t.entries()[1].name, "a.first");
  EXPECT_EQ(t.entries()[2].name, "m.mid");
  EXPECT_EQ(t.entries()[0].counter, 4u);
}

TEST(TelemetryTest, JsonAndTextRenderings) {
  obs::Telemetry t;
  t.SetCounter("verify.states", 42);
  t.SetGauge("phase.total_ms", 2.5);
  JsonWriter w;
  t.WriteJson(w);
  Expected<JsonValue> v = ParseJson(w.str());
  ASSERT_TRUE(v.ok()) << v.error();
  ASSERT_NE(v.value().Find("verify.states"), nullptr);
  EXPECT_EQ(v.value().Find("verify.states")->integer, 42);
  EXPECT_DOUBLE_EQ(v.value().Find("phase.total_ms")->number, 2.5);

  const std::string s = t.ToString();
  EXPECT_NE(s.find("verify.states=42"), std::string::npos);
  EXPECT_NE(s.find("phase.total_ms=2.500"), std::string::npos);
}

// ---------------------------------------------------------------- Trace

TEST(TraceRecorderTest, RecordsAndExports) {
  obs::TraceRecorder rec;
  {
    obs::ScopedSpan outer(&rec, "outer");
    EXPECT_TRUE(outer.active());
    obs::ScopedSpan inner(&rec, "inner");
  }
  obs::TraceInstant(&rec, "marker", "{\"k\": 1}");
  EXPECT_EQ(rec.size(), 3u);

  Expected<JsonValue> doc = ParseJson(rec.ToChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.error();
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 3u);
  // Inner closes first, so it is recorded before outer.
  EXPECT_EQ(events->items[0].Find("name")->string, "inner");
  EXPECT_EQ(events->items[0].Find("ph")->string, "X");
  EXPECT_EQ(events->items[1].Find("name")->string, "outer");
  EXPECT_EQ(events->items[2].Find("name")->string, "marker");
  EXPECT_EQ(events->items[2].Find("ph")->string, "i");
  ASSERT_NE(events->items[2].Find("args"), nullptr);
  EXPECT_EQ(events->items[2].Find("args")->Find("k")->integer, 1);
  // The inner span is contained in the outer one.
  const std::uint64_t inner_ts =
      static_cast<std::uint64_t>(events->items[0].Find("ts")->integer);
  const std::uint64_t inner_end =
      inner_ts +
      static_cast<std::uint64_t>(events->items[0].Find("dur")->integer);
  const std::uint64_t outer_ts =
      static_cast<std::uint64_t>(events->items[1].Find("ts")->integer);
  const std::uint64_t outer_end =
      outer_ts +
      static_cast<std::uint64_t>(events->items[1].Find("dur")->integer);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(TraceRecorderTest, NullRecorderIsANoOp) {
  obs::ScopedSpan span(nullptr, "ignored");
  EXPECT_FALSE(span.active());
  span.set_args("{\"x\": 1}");  // must not crash
  obs::TraceInstant(nullptr, "ignored");
}

TEST(TraceRecorderTest, ThreadIdIsStable) {
  const std::uint32_t a = obs::TraceRecorder::CurrentThreadId();
  const std::uint32_t b = obs::TraceRecorder::CurrentThreadId();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 1u);
}

// A traced datalog verify emits the documented span names, and the
// per-guess spans nest inside the solve phase (same containment
// Perfetto uses to draw the flame graph). The portfolio cascade traces
// both stages: its TMAI stage cannot prove this UNSAFE system and hands
// it to Datalog.
TEST(TraceRecorderTest, VerifySpansNestUnderSolve) {
  BenchmarkCase bench = ProducerConsumer(4);
  SafetyVerifier verifier(bench.system);
  for (const Backend backend : {Backend::kDatalog, Backend::kPortfolio}) {
    const bool portfolio = backend == Backend::kPortfolio;
    SCOPED_TRACE(portfolio ? "portfolio" : "datalog");
    VerifierOptions opts;
    opts.backend = backend;
    obs::TraceRecorder rec;
    opts.obs.trace = &rec;
    const Verdict v = verifier.Run(std::nullopt, opts);
    EXPECT_TRUE(v.unsafe());

    Expected<JsonValue> doc = ParseJson(rec.ToChromeTraceJson());
    ASSERT_TRUE(doc.ok()) << doc.error();
    const JsonValue* events = doc.value().Find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::vector<std::string> names;
    for (const JsonValue& e : events->items) {
      names.push_back(e.Find("name")->string);
    }
    auto has = [&](const char* n) {
      return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has(portfolio ? "verify:portfolio" : "verify:datalog"));
    EXPECT_EQ(has("fixpoint"), portfolio);
    EXPECT_TRUE(has("solve"));
    EXPECT_TRUE(has("guess"));
    EXPECT_TRUE(has("makep"));
    EXPECT_TRUE(has("eval"));

    // Every guess span lies inside the solve span's window.
    std::uint64_t solve_ts = 0, solve_end = 0;
    for (const JsonValue& e : events->items) {
      if (e.Find("name")->string == "solve") {
        solve_ts = static_cast<std::uint64_t>(e.Find("ts")->integer);
        solve_end =
            solve_ts + static_cast<std::uint64_t>(e.Find("dur")->integer);
      }
    }
    for (const JsonValue& e : events->items) {
      if (e.Find("name")->string != "guess") continue;
      const std::uint64_t ts =
          static_cast<std::uint64_t>(e.Find("ts")->integer);
      const std::uint64_t end =
          ts + static_cast<std::uint64_t>(e.Find("dur")->integer);
      EXPECT_GE(ts, solve_ts);
      EXPECT_LE(end, solve_end);
    }
  }
}

// The Verdict telemetry carries the per-phase gauges.
TEST(TelemetryTest, VerdictPhaseGaugesAndAccessors) {
  BenchmarkCase bench = ProducerConsumer(4);
  SafetyVerifier verifier(bench.system);
  VerifierOptions opts;
  opts.backend = Backend::kDatalog;
  const Verdict v = verifier.Run(std::nullopt, opts);
  namespace metric = obs::metric;
  EXPECT_TRUE(v.telemetry.Has(metric::kPhaseTotalMs));
  EXPECT_TRUE(v.telemetry.Has(metric::kPhaseSolveMs));
  EXPECT_GE(v.telemetry.gauge(metric::kPhaseTotalMs),
            v.telemetry.gauge(metric::kPhaseSolveMs));
  // The serial guess loop's per-layer split lies inside its solve phase.
  EXPECT_TRUE(v.telemetry.Has(metric::kPhaseMakePMs));
  EXPECT_TRUE(v.telemetry.Has(metric::kPhaseDlOptMs));
  EXPECT_TRUE(v.telemetry.Has(metric::kPhaseEvalMs));
  EXPECT_GT(v.telemetry.gauge(metric::kPhaseEvalMs), 0.0);
  EXPECT_LE(v.telemetry.gauge(metric::kPhaseMakePMs) +
                v.telemetry.gauge(metric::kPhaseDlOptMs) +
                v.telemetry.gauge(metric::kPhaseEvalMs),
            v.telemetry.gauge(metric::kPhaseSolveMs));
}

// Every scanned guess is solved (datalog.queries), skipped because the
// guess skeleton rules the goal out (datalog.solves_skipped) or shared
// with an earlier guess of its class (datalog.solves_shared), on a
// complete scan (dekker-cas, SAFE: no guess can reach an assert, so it
// solves none) and on an early exit (peterson-ra, UNSAFE at guess 29).
TEST(TelemetryTest, ScannedGuessesAreSolvedOrSkipped) {
  namespace metric = obs::metric;
  const std::vector<BenchmarkCase> catalog = StandardBenchmarks();
  for (const char* name : {"dekker-cas", "peterson-ra"}) {
    const bool solves = std::string(name) == "peterson-ra";
    const auto it =
        std::find_if(catalog.begin(), catalog.end(),
                     [&](const BenchmarkCase& c) { return c.name == name; });
    ASSERT_NE(it, catalog.end()) << name;
    VerifierOptions opts;
    opts.backend = Backend::kDatalog;
    const Verdict v = SafetyVerifier(it->system).Run(std::nullopt, opts);
    const std::uint64_t solved = v.telemetry.counter(metric::kQueries);
    const std::uint64_t skipped = v.telemetry.counter(metric::kSolvesSkipped);
    const std::uint64_t shared = v.telemetry.counter(metric::kSolvesShared);
    EXPECT_TRUE(v.telemetry.Has(metric::kSolvesSkipped)) << name;
    EXPECT_TRUE(v.telemetry.Has(metric::kSolvesShared)) << name;
    EXPECT_EQ(solved + skipped + shared, v.telemetry.counter(metric::kGuesses))
        << name;
    EXPECT_EQ(solved > 0, solves) << name;
    EXPECT_GT(skipped, 0u) << name;
  }
}

}  // namespace
}  // namespace rapar
