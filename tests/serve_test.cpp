// End-to-end tests for the verification service (core/serve.h): request
// decoding, the verdict cache keyed by the request as sent (fingerprint
// sensitivity, LRU eviction, repeats answered from the cache, reformatted
// copies that miss with the same fingerprint, a reproducible cache.bytes),
// the catalog replay differential — every standard benchmark served twice
// must be 100% cache hits on the second pass with envelopes identical to
// the first modulo telemetry, and both must agree with a one-shot
// SafetyVerifier run — Run() answering a stream in order, and a seeded
// fuzz of the request line (ServeFuzzTest).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/serve.h"
#include "core/verifier.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rapar {
namespace {

// The MP pair (examples/programs/mp_writer.rap / mp_reader_stale.rap):
// safe, and provable by the TMAI backend — the certificate-replay case.
constexpr char kMpWriter[] =
    "program writer\n"
    "vars x y\n"
    "regs one\n"
    "dom 2\n"
    "begin\n"
    "  one := 1;\n"
    "  y := one;\n"
    "  x := one\n"
    "end\n";

constexpr char kMpReader[] =
    "program reader\n"
    "vars x y\n"
    "regs a b\n"
    "dom 2\n"
    "begin\n"
    "  a := x;\n"
    "  assume (a == 1);\n"
    "  b := y;\n"
    "  assume (b == 0);\n"
    "  assert false\n"
    "end\n";

struct RequestSpec {
  std::string command = "verify";
  std::string env;
  std::vector<std::string> dis;
  std::string var;
  long long val = -1;
  // Raw JSON for the "options" member; empty = omit.
  std::string options_json;
  long long id = -1;
};

serve::ServeOptions Opts(std::size_t cache_entries = 1024) {
  serve::ServeOptions o;
  o.cache_entries = cache_entries;
  return o;
}

std::string RequestLine(const RequestSpec& spec) {
  JsonWriter w;
  w.BeginObject();
  if (spec.id >= 0) w.Key("id").Int(spec.id);
  w.Key("command").String(spec.command);
  w.Key("env").String(spec.env);
  if (!spec.dis.empty()) {
    w.Key("dis").BeginArray();
    for (const std::string& d : spec.dis) w.String(d);
    w.EndArray();
  }
  if (!spec.var.empty()) {
    w.Key("var").String(spec.var);
    w.Key("val").Int(spec.val);
  }
  if (!spec.options_json.empty()) {
    w.Key("options").Raw(spec.options_json);
  }
  w.EndObject();
  return w.TakeString();
}

// A verify request for `sys`, its programs printed as parsed.
std::string SystemLine(const ParamSystem& sys, const std::string& options_json) {
  RequestSpec spec;
  spec.env = sys.env_program().ToString();
  for (const Program& dis : sys.dis_programs()) {
    spec.dis.push_back(dis.ToString());
  }
  spec.options_json = options_json;
  return RequestLine(spec);
}

std::string MakeLine(const std::string& command, const std::string& env,
                     std::vector<std::string> dis = {},
                     const std::string& var = {}, long long val = -1,
                     const std::string& options_json = {}) {
  RequestSpec spec;
  spec.command = command;
  spec.env = env;
  spec.dis = std::move(dis);
  spec.var = var;
  spec.val = val;
  spec.options_json = options_json;
  return RequestLine(spec);
}

JsonValue Parse(const std::string& line) {
  auto doc = ParseJson(line);
  EXPECT_TRUE(doc.ok()) << doc.error() << "\n" << line;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

std::string Str(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

std::uint64_t Counter(const JsonValue& doc, const char* name) {
  const JsonValue* t = doc.Find("telemetry");
  if (t == nullptr) return ~std::uint64_t{0};
  const JsonValue* c = t->Find(name);
  return c != nullptr ? c->uinteger : ~std::uint64_t{0};
}

double Gauge(const JsonValue& doc, const char* name) {
  const JsonValue* t = doc.Find("telemetry");
  const JsonValue* g = t != nullptr ? t->Find(name) : nullptr;
  return g != nullptr && g->is_number() ? g->number : -1.0;
}

// Re-emits `doc` minus the members that legitimately differ between a
// miss and the hit that replays it (telemetry counters/timings and the
// cache marker itself).
std::string StripVolatile(const JsonValue& doc) {
  JsonValue copy = doc;
  std::vector<std::pair<std::string, JsonValue>> kept;
  for (auto& [key, value] : copy.members) {
    if (key == "telemetry" || key == "cache") continue;
    kept.emplace_back(key, std::move(value));
  }
  copy.members = std::move(kept);
  JsonWriter w;
  WriteJsonValue(copy, &w);
  return w.TakeString();
}

std::string Reemit(const JsonValue* v) {
  if (v == nullptr) return "<absent>";
  JsonWriter w;
  WriteJsonValue(*v, &w);
  return w.TakeString();
}

TEST(ServeTest, MissThenHit) {
  serve::ServeSession session(Opts());
  RequestSpec spec;
  spec.env = kMpWriter;
  spec.dis = {kMpReader};
  const std::string line = RequestLine(spec);

  const JsonValue first = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(first, "command"), "verify");
  EXPECT_EQ(Str(first, "verdict"), "safe");
  EXPECT_EQ(Str(first, "cache"), "miss");
  EXPECT_EQ(Counter(first, "cache.hit"), 0u);
  EXPECT_EQ(Counter(first, "cache.misses"), 1u);
  EXPECT_EQ(Str(first, "fingerprint").size(), 32u);

  const JsonValue second = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(second, "cache"), "hit");
  EXPECT_EQ(Counter(second, "cache.hit"), 1u);
  EXPECT_EQ(Counter(second, "cache.hits"), 1u);
  EXPECT_EQ(Str(second, "fingerprint"), Str(first, "fingerprint"));
  EXPECT_EQ(StripVolatile(second), StripVolatile(first));
  // The repeat is answered from the request as sent: nothing is parsed.
  EXPECT_EQ(Gauge(second, "phase.parse_ms"), 0.0);

  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

// The cache is keyed by the request as sent, so the same programs re-sent
// with comments and blank lines are a miss: the copy parses, runs the
// pipeline and fills an entry of its own, which its own repeat hits. The
// fingerprint digests the programs as parsed (DESIGN.md §12), so the copy
// answers the first text's verdict and fingerprint, and its envelope
// equals the first one modulo telemetry.
TEST(ServeTest, ReformattedProgramsHitTheFilledEntry) {
  serve::ServeSession session(Opts());
  const JsonValue first =
      Parse(session.HandleLine(MakeLine("verify", kMpWriter, {kMpReader})));
  ASSERT_EQ(Str(first, "cache"), "miss");

  const std::string reformatted = MakeLine(
      "verify", std::string("// the MP writer\n\n") + kMpWriter + "\n\n",
      {std::string("# reader\n\n") + kMpReader});
  const JsonValue copy = Parse(session.HandleLine(reformatted));
  EXPECT_EQ(Str(copy, "cache"), "miss");
  EXPECT_EQ(Str(copy, "verdict"), Str(first, "verdict"));
  EXPECT_EQ(Str(copy, "fingerprint"), Str(first, "fingerprint"));
  EXPECT_EQ(StripVolatile(copy), StripVolatile(first));
  EXPECT_GT(Gauge(copy, "phase.parse_ms"), 0.0);

  const JsonValue repeat = Parse(session.HandleLine(reformatted));
  EXPECT_EQ(Str(repeat, "cache"), "hit");
  EXPECT_EQ(Str(repeat, "fingerprint"), Str(first, "fingerprint"));
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

// The request key holds what env_file names, not the path: the same line
// sent after the file changed is a miss and answers the new program.
TEST(ServeTest, EnvFileRepeatAfterTheFileChangedIsAMiss) {
  const std::string path = testing::TempDir() + "/serve_test_env_" +
                           std::to_string(::getpid()) + ".rap";
  const auto write_env = [&path](const char* text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  JsonWriter w;
  w.BeginObject();
  w.Key("command").String("verify");
  w.Key("env_file").String(path);
  w.Key("dis").BeginArray().String(kMpReader).EndArray();
  w.EndObject();
  const std::string line = w.TakeString();
  serve::ServeSession session(Opts());

  write_env(kMpWriter);
  const JsonValue first = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(first, "cache"), "miss");
  EXPECT_EQ(Str(first, "verdict"), "safe");
  const JsonValue repeat = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(repeat, "cache"), "hit");

  // The writer without its flag store: the reader sees x == 1, y == 0.
  write_env(
      "program writer\n"
      "vars x y\n"
      "regs one\n"
      "dom 2\n"
      "begin\n"
      "  one := 1;\n"
      "  x := one\n"
      "end\n");
  const JsonValue changed = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(changed, "cache"), "miss");
  EXPECT_EQ(Str(changed, "verdict"), "unsafe");
  EXPECT_NE(Str(changed, "fingerprint"), Str(first, "fingerprint"));
  std::remove(path.c_str());
}

TEST(ServeTest, MgRequest) {
  serve::ServeSession session(Opts());
  RequestSpec spec;
  spec.command = "mg";
  spec.env = kMpWriter;
  spec.var = "x";
  spec.val = 1;
  const JsonValue doc = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_EQ(Str(doc, "command"), "mg");
  EXPECT_EQ(Str(doc, "verdict"), "unsafe");
  // Same request again: mg verdicts memoize like verify verdicts.
  const JsonValue again = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_EQ(Str(again, "cache"), "hit");
  EXPECT_EQ(StripVolatile(again), StripVolatile(doc));
}

TEST(ServeTest, ErrorEnvelopes) {
  serve::ServeSession session(Opts());
  const struct {
    std::string line;
    const char* expect;
  } cases[] = {
      {"this is not json", "invalid request JSON"},
      {"{\"command\":\"launch\"}", "unknown command"},
      {"{\"command\":\"verify\"}", "missing env program"},
      // A directory is not an empty program: ReadFile refuses it.
      {"{\"command\":\"verify\",\"env_file\":\"" + testing::TempDir() +
           "\"}",
       "cannot read env file"},
      {"{\"id\":7,\"command\":\"verify\",\"env\":\"nonsense !\"}", "env:"},
      {MakeLine("mg", kMpWriter, {}, "zz", 1), "unknown variable"},
      // mp_writer has dom 2: no thread can write 7.
      {MakeLine("mg", kMpWriter, {}, "x", 7),
       "\"val\" 7 is outside the domain 0..1"},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"backend\":\"quantum\"}"),
       "unknown backend"},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"env_threads\":\"many\"}"),
       "must be an integer"},
      // 2^33: survives int64 parsing but not the narrowing to int — must
      // be a decode error, never a silently wrapped knob.
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"env_threads\":8589934592}"),
       "out of range"},
      // Negative caps and budgets: never the default, never "no
      // deadline".
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"max_states\":-1}"),
       "field 'max_states' out of range"},
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"max_guesses\":-1}"),
       "field 'max_guesses' out of range"},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"time_budget_ms\":-1}"),
       "field 'time_budget_ms' out of range"},
      // Keys outside the decoded set: removed knobs and misspellings
      // must not silently run with defaults.
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"engine_storage\":\"columnar\"}"),
       "unknown option \"engine_storage\""},
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"delta_solve\":true}"),
       "unknown option \"delta_solve\""},
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"time_budget\":0}"),
       "unknown option \"time_budget\""},
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"threads\":4}"),
       "unknown option \"threads\""},
      {MakeLine("verify", kMpWriter, {}, "", -1, "{\"batch_size\":8}"),
       "unknown option \"batch_size\""},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"enable_dlopt\":false}"),
       "unknown option \"enable_dlopt\""},
      // TMAI runs one fixed configuration: its four keys are retired.
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"tmai_domain\":\"relational\"}"),
       "unknown option \"tmai_domain\""},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"tmai_max_iterations\":-8589934592}"),
       "unknown option \"tmai_max_iterations\""},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"tmai_widening_delay\":8}"),
       "unknown option \"tmai_widening_delay\""},
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"tmai_value_set_limit\":16}"),
       "unknown option \"tmai_value_set_limit\""},
  };
  for (const auto& c : cases) {
    const JsonValue doc = Parse(session.HandleLine(c.line));
    EXPECT_EQ(Str(doc, "command"), "error") << c.line;
    const JsonValue* exit_code = doc.Find("exit_code");
    ASSERT_NE(exit_code, nullptr) << c.line;
    EXPECT_EQ(exit_code->integer, 3) << c.line;
    EXPECT_NE(Str(doc, "error").find(c.expect), std::string::npos)
        << c.line << " -> " << Str(doc, "error");
  }
  // The id echo survives decoding failures that happen after "id".
  const JsonValue with_id =
      Parse(session.HandleLine("{\"id\":7,\"command\":\"launch\"}"));
  ASSERT_NE(with_id.Find("id"), nullptr);
  EXPECT_EQ(with_id.Find("id")->integer, 7);
  // Errors never touch the cache.
  EXPECT_EQ(session.cache_stats().misses, 0u);
}

// A definitive UNSAFE is memoized even when the deadline fired after the
// backend found it (BenchmarkSuiteTest.
// UnsafeFoundBeforeTheDeadlineIsNotTruncated has the query): the miss
// names no stopped phase and the repeat is a hit.
TEST(ServeTest, UnsafeFoundBeforeTheDeadlineIsMemoized) {
  const BenchmarkCase bench = ProducerConsumer(6);
  RequestSpec spec;
  spec.command = "mg";
  spec.env = bench.system.env_program().ToString();
  for (const Program& dis : bench.system.dis_programs()) {
    spec.dis.push_back(dis.ToString());
  }
  spec.var = "y";
  spec.val = 1;
  spec.options_json =
      "{\"backend\":\"concrete\",\"env_threads\":5,"
      "\"time_budget_ms\":200}";
  serve::ServeSession session(Opts());
  const JsonValue first = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_EQ(Str(first, "verdict"), "unsafe");
  EXPECT_EQ(Str(first, "cache"), "miss");
  const JsonValue* stopped = first.Find("stopped_phase");
  ASSERT_NE(stopped, nullptr);
  EXPECT_TRUE(stopped->is_null());
  const JsonValue again = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_EQ(Str(again, "cache"), "hit");
  EXPECT_EQ(Str(again, "verdict"), "unsafe");
  EXPECT_EQ(session.cache_stats().hits, 1u);
}

TEST(ServeTest, FingerprintSensitivity) {
  serve::ServeSession session(Opts());
  RequestSpec spec;
  spec.env = kMpWriter;
  spec.dis = {kMpReader};
  spec.options_json = "{\"backend\":\"datalog\"}";
  const JsonValue datalog = Parse(session.HandleLine(RequestLine(spec)));

  // A different backend is a different verification: new fingerprint,
  // cache miss.
  spec.options_json = "{\"backend\":\"simplified\"}";
  const JsonValue simplified = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_NE(Str(simplified, "fingerprint"), Str(datalog, "fingerprint"));
  EXPECT_EQ(Str(simplified, "cache"), "miss");

  // So is the same env and options with another dis list.
  spec.dis.clear();
  const JsonValue no_dis = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_NE(Str(no_dis, "fingerprint"), Str(simplified, "fingerprint"));
  EXPECT_EQ(Str(no_dis, "cache"), "miss");

  // A removed option key is a request error, not a silent default.
  spec.options_json =
      "{\"backend\":\"datalog\",\"engine_storage\":\"rowwise\"}";
  const JsonValue bad = Parse(session.HandleLine(RequestLine(spec)));
  EXPECT_EQ(Str(bad, "command"), "error");
}

TEST(ServeTest, EvictionWithSingleEntryCache) {
  serve::ServeSession session(Opts(/*cache_entries=*/1));
  const std::string a = MakeLine("verify", kMpWriter, {kMpReader});
  const std::string b = MakeLine("mg", kMpWriter, {}, "x", 1);
  EXPECT_EQ(Str(Parse(session.HandleLine(a)), "cache"), "miss");
  EXPECT_EQ(Str(Parse(session.HandleLine(b)), "cache"), "miss");  // evicts a
  EXPECT_EQ(Str(Parse(session.HandleLine(a)), "cache"), "miss");  // evicts b
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeTest, CacheDisabled) {
  serve::ServeSession session(Opts(/*cache_entries=*/0));
  const std::string line = MakeLine("verify", kMpWriter);
  EXPECT_EQ(Str(Parse(session.HandleLine(line)), "cache"), "miss");
  EXPECT_EQ(Str(Parse(session.HandleLine(line)), "cache"), "miss");
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

// A miss runs the pipeline on engines of its own: with the cache off, a
// request answered after others reports the same engine counters as a
// one-shot run. Index builds and EDB-snapshot reuses once carried over
// from the previous request a worker served.
TEST(ServeTest, EngineCountersDoNotDependOnEarlierRequests) {
  Rng rng(0);
  const Expected<ParamSystem> tqbf = TqbfSystem(RandomQbf(rng, 3, 3));
  ASSERT_TRUE(tqbf.ok()) << tqbf.error();
  const std::vector<BenchmarkCase> suite = StandardBenchmarks();
  std::vector<const ParamSystem*> systems = {&tqbf.value()};
  for (const BenchmarkCase& bench : suite) {
    if (bench.name == "peterson-ra") systems.push_back(&bench.system);
  }
  ASSERT_EQ(systems.size(), 2u);

  serve::ServeSession session(Opts(/*cache_entries=*/0));
  for (const std::size_t i : {0, 1, 0}) {
    const JsonValue doc = Parse(session.HandleLine(SystemLine(
        *systems[i], "{\"backend\":\"datalog\",\"time_budget_ms\":0}")));
    EXPECT_EQ(Str(doc, "cache"), "miss");

    VerifierOptions opts;
    opts.backend = Backend::kDatalog;
    const Verdict oracle = SafetyVerifier(*systems[i]).Run(std::nullopt, opts);
    EXPECT_EQ(Str(doc, "verdict"), VerdictName(oracle.result));
    std::size_t engine_counters = 0;
    for (const obs::Telemetry::Entry& e : oracle.telemetry.entries()) {
      if (e.is_gauge || e.name.rfind("engine.", 0) != 0) continue;
      ++engine_counters;
      EXPECT_EQ(Counter(doc, e.name.c_str()), e.counter)
          << "request system " << i << ": " << e.name;
    }
    EXPECT_GT(engine_counters, 0u);
  }
}

TEST(ServeTest, NonDefinitiveVerdictsAreNotMemoized) {
  serve::ServeSession session(Opts());
  // One state is not enough to exhaust the safe MP pair: the verdict
  // degrades to unknown, which is wall-clock state, not a program fact.
  RequestSpec spec;
  spec.env = kMpWriter;
  spec.dis = {kMpReader};
  spec.options_json = "{\"max_states\":1}";
  const std::string line = RequestLine(spec);
  const JsonValue first = Parse(session.HandleLine(line));
  ASSERT_EQ(Str(first, "verdict"), "unknown");
  EXPECT_EQ(Str(first, "cache"), "miss");
  const JsonValue second = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(second, "cache"), "miss");
  EXPECT_EQ(session.cache_stats().entries, 0u);
}

TEST(ServeTest, CertificateReplaysByteIdentical) {
  serve::ServeSession session(Opts());
  RequestSpec spec;
  spec.env = kMpWriter;
  spec.dis = {kMpReader};
  spec.options_json = "{\"backend\":\"tmai\"}";
  const std::string line = RequestLine(spec);
  const JsonValue first = Parse(session.HandleLine(line));
  ASSERT_EQ(Str(first, "verdict"), "safe");
  ASSERT_NE(first.Find("certificate"), nullptr)
      << "TMAI safe verdicts carry a certificate";
  // The verifier checked the certificate before the miss filled the
  // entry, so the hit replays it verbatim.
  const JsonValue second = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(second, "cache"), "hit");
  EXPECT_EQ(Reemit(second.Find("certificate")),
            Reemit(first.Find("certificate")));
  // Like every hit, a certificate hit parses nothing.
  EXPECT_EQ(Gauge(second, "phase.parse_ms"), 0.0);
}

// The tentpole differential: the whole standard benchmark catalog served
// twice. Every first-pass verdict must match a one-shot SafetyVerifier
// run bit-for-bit on verdict/witness/bound/certificate; every
// second-pass response must be a cache hit whose envelope is identical
// to the first modulo telemetry.
TEST(ServeTest, CatalogReplayDifferential) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  serve::ServeSession session(Opts());

  std::vector<std::string> lines;
  std::vector<std::string> first_pass;
  for (const BenchmarkCase& bench : suite) {
    lines.push_back(SystemLine(bench.system, "{\"time_budget_ms\":60000}"));
  }

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string response = session.HandleLine(lines[i]);
    const JsonValue doc = Parse(response);
    EXPECT_EQ(Str(doc, "cache"), "miss") << suite[i].name;
    ASSERT_NE(Str(doc, "verdict"), "unknown") << suite[i].name;

    // One-shot oracle: same options, fresh verifier.
    VerifierOptions opts;
    opts.time_budget_ms = 60'000;
    SafetyVerifier verifier(suite[i].system);
    const Verdict oracle = verifier.Run(std::nullopt, opts);
    EXPECT_EQ(Str(doc, "verdict"), VerdictName(oracle.result))
        << suite[i].name;
    const JsonValue* witness = doc.Find("witness");
    ASSERT_NE(witness, nullptr) << suite[i].name;
    if (oracle.witness.empty()) {
      EXPECT_TRUE(witness->is_null()) << suite[i].name;
    } else {
      EXPECT_EQ(witness->string, oracle.witness) << suite[i].name;
    }
    const JsonValue* bound = doc.Find("env_thread_bound");
    ASSERT_NE(bound, nullptr) << suite[i].name;
    if (oracle.env_thread_bound.has_value()) {
      EXPECT_EQ(bound->integer, *oracle.env_thread_bound) << suite[i].name;
    } else {
      EXPECT_TRUE(bound->is_null()) << suite[i].name;
    }
    EXPECT_EQ(doc.Find("certificate") != nullptr,
              oracle.certificate != nullptr)
        << suite[i].name;
    first_pass.push_back(response);
  }

  // Second pass: 100% hits, byte-identical envelopes modulo telemetry.
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const JsonValue replay = Parse(session.HandleLine(lines[i]));
    EXPECT_EQ(Str(replay, "cache"), "hit") << suite[i].name;
    EXPECT_EQ(StripVolatile(replay), StripVolatile(Parse(first_pass[i])))
        << suite[i].name;
  }
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, suite.size());
  EXPECT_EQ(stats.misses, suite.size());
}

// cache.bytes counts only what an entry holds whose size does not depend
// on timing (not the rendered envelope, whose phase.*_ms gauges print a
// run-dependent number of digits), so two fresh sessions fed the same
// lines report the same figure on every response. The TMAI line fills an
// entry with a certificate.
TEST(ServeTest, CacheBytesAreReproducible) {
  std::vector<std::string> lines;
  for (const BenchmarkCase& bench : StandardBenchmarks()) {
    lines.push_back(SystemLine(bench.system, "{\"time_budget_ms\":60000}"));
  }
  lines.push_back(MakeLine("verify", kMpWriter, {kMpReader}, "", -1,
                           "{\"backend\":\"tmai\"}"));

  std::vector<std::uint64_t> bytes[2];
  for (std::vector<std::uint64_t>& run : bytes) {
    serve::ServeSession session(Opts());
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& line : lines) {
        run.push_back(Counter(Parse(session.HandleLine(line)), "cache.bytes"));
      }
    }
    EXPECT_EQ(session.cache_stats().bytes, run.back());
  }
  ASSERT_EQ(bytes[0].size(), 2 * lines.size());
  for (std::size_t i = 0; i < bytes[0].size(); ++i) {
    EXPECT_EQ(bytes[0][i], bytes[1][i]) << "response " << i;
  }
  EXPECT_GT(bytes[0].back(), 0u);
}

// istream buffer that blocks in underflow until more input is pushed —
// models a synchronous client that waits for response N before sending
// line N+1 (a plain stringstream reports EOF instead of "not yet").
class BlockingInputBuf : public std::streambuf {
 public:
  void Push(const std::string& s) {
    std::lock_guard<std::mutex> lock(m_);
    data_ += s;
    cv_.notify_all();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
    cv_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return pos_ < data_.size() || closed_; });
    if (pos_ >= data_.size()) return traits_type::eof();
    buf_ = data_[pos_++];
    setg(&buf_, &buf_, &buf_ + 1);
    return traits_type::to_int_type(buf_);
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::string data_;
  std::size_t pos_ = 0;
  bool closed_ = false;
  char buf_ = 0;
};

// ostream buffer that records complete lines and wakes waiters, so the
// test can observe a response the moment the daemon writes it.
class LineCaptureBuf : public std::streambuf {
 public:
  bool WaitForLines(std::size_t n, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(m_);
    return cv_.wait_for(lock, timeout, [&] { return lines_.size() >= n; });
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(m_);
    return lines_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return ch;
    std::lock_guard<std::mutex> lock(m_);
    const char c = traits_type::to_char_type(ch);
    if (c == '\n') {
      lines_.push_back(std::move(current_));
      current_.clear();
      cv_.notify_all();
    } else {
      current_ += c;
    }
    return ch;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::string current_;
  std::vector<std::string> lines_;
};

// Regression: a synchronous request/response client must receive
// response N without sending request N+1 or closing the stream. Run()
// answers and flushes each line before it reads the next; a request pool
// that once drained completed answers only after reading the next input
// line deadlocked exactly this pattern.
TEST(ServeTest, RunAnswersWithoutFurtherInput) {
  BlockingInputBuf in_buf;
  LineCaptureBuf out_buf;
  std::istream in(&in_buf);
  std::ostream out(&out_buf);
  serve::ServeSession session(Opts());
  std::thread runner([&] { session.Run(in, out); });

  in_buf.Push(MakeLine("verify", kMpWriter, {kMpReader}) + "\n");
  ASSERT_TRUE(out_buf.WaitForLines(1, std::chrono::seconds(120)))
      << "daemon did not answer until more input arrived";
  in_buf.Push(MakeLine("mg", kMpWriter, {}, "x", 1) + "\n");
  ASSERT_TRUE(out_buf.WaitForLines(2, std::chrono::seconds(120)));
  in_buf.Close();
  runner.join();

  const std::vector<std::string> lines = out_buf.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Str(Parse(lines[0]), "verdict"), "safe");
  EXPECT_EQ(Str(Parse(lines[1]), "verdict"), "unsafe");
}

// Run() over a stream: responses come back in request order, and
// identical requests share one pipeline run through the cache — of 4
// copies of each of 3 programs, exactly 3 run the pipeline and 9 hit.
TEST(ServeTest, RunOrdersResponsesAndRepeatsHit) {
  const std::string programs[] = {
      MakeLine("verify", kMpWriter, {kMpReader}),
      MakeLine("mg", kMpWriter, {}, "x", 1),
      MakeLine("mg", kMpWriter, {}, "y", 1),
  };
  std::ostringstream input;
  int id = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& p : programs) {
      // Same id for every copy of a program: ids are part of the
      // response, not the fingerprint, so copies still hit.
      std::string line = p;
      line.insert(1, "\"id\":" + std::to_string(id % 3) + ",");
      input << line << "\n";
      ++id;
    }
  }

  serve::ServeSession session(Opts());
  std::istringstream in(input.str());
  std::ostringstream out;
  session.Run(in, out);

  std::istringstream result(out.str());
  std::string line;
  int count = 0;
  while (std::getline(result, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in serve output";
    const JsonValue doc = Parse(line);
    ASSERT_NE(doc.Find("id"), nullptr);
    EXPECT_EQ(doc.Find("id")->integer, count % 3) << "response order";
    EXPECT_NE(Str(doc, "verdict"), "") << line;
    ++count;
  }
  EXPECT_EQ(count, 12);
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 9u);
}

// Hits and evictions on a two-entry cache: four requests in rotation
// (one of them a reformatted copy of another, so a request key of its
// own) look entries up while others fill and evict them. Every response
// carries its program's verdict, whether it hit or missed.
TEST(ServeTest, HitsAndEvictionsKeepVerdicts) {
  const std::string programs[] = {
      MakeLine("verify", kMpWriter, {kMpReader}),
      MakeLine("mg", kMpWriter, {}, "x", 1),
      MakeLine("mg", kMpWriter, {}, "y", 1),
      MakeLine("verify", std::string("// reformatted\n") + kMpWriter,
               {kMpReader}),
  };
  const char* verdicts[] = {"safe", "unsafe", "unsafe", "safe"};
  constexpr int kRounds = 16;
  std::ostringstream input;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& p : programs) input << p << "\n";
  }

  serve::ServeSession session(Opts(/*cache_entries=*/2));
  std::istringstream in(input.str());
  std::ostringstream out;
  session.Run(in, out);

  std::istringstream result(out.str());
  std::string line;
  int count = 0;
  while (std::getline(result, line)) {
    EXPECT_EQ(Str(Parse(line), "verdict"), verdicts[count % 4]) << line;
    ++count;
  }
  EXPECT_EQ(count, 4 * kRounds);
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * kRounds);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 2u);
}

// --- request-line fuzzing ----------------------------------------------------
//
// The JSON request layer under bad input: every line gets exactly one
// answer line, which parses as JSON and is either a verdict envelope or
// an error envelope with exit code 3, and a valid request sent after each
// bad line still answers its verdict. Program texts stay the MP pair and
// one unparsable text; fuzzing the program language is parser_fuzz_test's
// job.

constexpr char kUnparsable[] = "program p\nbegin\n  nonsense !\nend\n";

// The valid request sent after every bad line.
std::string ValidLine() { return MakeLine("verify", kMpWriter, {kMpReader}); }

std::string JsonString(const std::string& text) {
  JsonWriter w;
  w.String(text);
  return w.TakeString();
}

// Sends each bad line followed by ValidLine() through Run() and checks the
// contract above.
void ExpectEachLineAnswered(const std::vector<std::string>& bad_lines) {
  std::string input;
  for (const std::string& bad : bad_lines) {
    ASSERT_EQ(bad.find('\n'), std::string::npos) << bad;
    ASSERT_NE(bad.find_first_not_of(" \t\r"), std::string::npos) << bad;
    input += bad + '\n' + ValidLine() + '\n';
  }
  serve::ServeSession session(Opts());
  std::istringstream in(input);
  std::ostringstream out;
  session.Run(in, out);

  std::istringstream answers(out.str());
  std::string answer;
  std::size_t n = 0;
  while (std::getline(answers, answer)) {
    ASSERT_LT(n, 2 * bad_lines.size()) << "extra answer line: " << answer;
    const std::string& request = bad_lines[n / 2];
    const bool after_bad = n % 2 == 1;
    ++n;
    auto doc = ParseJson(answer);
    ASSERT_TRUE(doc.ok()) << request << "\n-> " << answer;
    const std::string command = Str(doc.value(), "command");
    if (command == "error") {
      const JsonValue* exit_code = doc.value().Find("exit_code");
      ASSERT_NE(exit_code, nullptr) << request;
      EXPECT_EQ(exit_code->integer, 3) << request;
      EXPECT_FALSE(after_bad) << "the valid line after " << request
                              << "\n-> " << answer;
    } else {
      EXPECT_TRUE(command == "verify" || command == "mg")
          << request << "\n-> " << answer;
      EXPECT_NE(doc.value().Find("verdict"), nullptr) << request;
      if (after_bad) {
        EXPECT_EQ(Str(doc.value(), "verdict"), "safe")
            << "the valid line after " << request;
      }
    }
  }
  EXPECT_EQ(n, 2 * bad_lines.size());
}

// Every proper prefix of valid MP-pair lines (verify, mg, and one with an
// id and an options object): none is a JSON document.
TEST(ServeFuzzTest, EveryTruncationAnswersOneLine) {
  RequestSpec with_options;
  with_options.id = 12;
  with_options.env = kMpWriter;
  with_options.dis = {kMpReader};
  with_options.options_json =
      "{\"backend\":\"tmai\",\"unroll\":1,\"enable_prepass\":false,"
      "\"max_states\":100000,\"time_budget_ms\":60000}";
  const std::string valid_lines[] = {
      ValidLine(),
      MakeLine("mg", kMpWriter, {kMpReader}, "x", 1),
      RequestLine(with_options),
  };
  std::vector<std::string> bad_lines;
  for (const std::string& line : valid_lines) {
    ASSERT_TRUE(ParseJson(line).ok()) << line;
    for (std::size_t len = 1; len < line.size(); ++len) {
      bad_lines.push_back(line.substr(0, len));
    }
  }
  ExpectEachLineAnswered(bad_lines);
}

// Seeded: valid requests with one to three fields (top-level or option
// keys) replaced by values of the wrong type or out of range, and
// unrelated members added.
TEST(ServeFuzzTest, WrongTypedAndOutOfRangeFields) {
  const std::string fields[] = {
      "id", "command", "env", "env_file", "dis", "dis_files", "var", "val",
      "options", "requests"};
  const std::string option_keys[] = {
      "backend", "tmai_domain", "enable_prepass", "env_threads", "unroll",
      "tmai_max_iterations", "tmai_widening_delay", "tmai_value_set_limit",
      "max_states", "max_depth", "time_budget_ms", "max_guesses",
      "no_such_option"};
  const std::string values[] = {
      "null", "true", "false", "0", "-1", "1", "2", "1.5", "-0.0", "1e308",
      "-1e308", "2147483648", "-2147483649", "8589934592",
      "9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "18446744073709551616", "\"\"", "\"x\"", "\"verify\"", "\"mg\"",
      "\"datalog\"", "\"tmai\"", "\"relational\"", "\"no-such-dir/p.rap\"",
      JsonString(kMpWriter), JsonString(kMpReader), JsonString(kUnparsable),
      "[]", "[1]", "[null]", "[\"x\"]", "[[]]",
      "[" + JsonString(kMpReader) + "]", "[" + JsonString(kUnparsable) + "]",
      "{}", "{\"a\":1}", "{\"backend\":7}", "{\"max_depth\":-2}"};
  const auto pick = [](Rng& rng, const auto& pool) -> const std::string& {
    return pool[rng.Below(std::size(pool))];
  };

  Rng rng(20260);
  std::vector<std::string> bad_lines;
  for (int round = 0; round < 600; ++round) {
    // A valid verify or mg request as (key, raw JSON) members.
    std::vector<std::pair<std::string, std::string>> members = {
        {"command", rng.Chance(1, 2) ? "\"verify\"" : "\"mg\""},
        {"env", JsonString(kMpWriter)},
        {"dis", "[" + JsonString(kMpReader) + "]"},
        {"var", "\"x\""},
        {"val", "1"}};
    std::vector<std::pair<std::string, std::string>> options;
    const int mutations = rng.IntIn(1, 3);
    for (int m = 0; m < mutations; ++m) {
      const bool in_options = rng.Chance(1, 3);
      auto& target = in_options ? options : members;
      const std::string& key =
          in_options ? pick(rng, option_keys) : pick(rng, fields);
      const std::string& value = pick(rng, values);
      bool replaced = false;
      for (auto& member : target) {
        if (member.first == key) {
          member.second = value;
          replaced = true;
        }
      }
      if (!replaced) target.emplace_back(key, value);
    }
    std::string line = "{";
    for (const auto& [key, value] : members) {
      if (line.size() > 1) line += ',';
      line += JsonString(key) + ':' + value;
    }
    if (!options.empty()) {
      line += ",\"options\":{";
      for (std::size_t i = 0; i < options.size(); ++i) {
        if (i > 0) line += ',';
        line += JsonString(options[i].first) + ':' + options[i].second;
      }
      line += '}';
    }
    line += '}';
    bad_lines.push_back(std::move(line));
  }
  ExpectEachLineAnswered(bad_lines);
}

// Roots that are not request objects, {"requests":[...]} batch shapes (an
// object without "command" answers one error line), and duplicate keys
// (the first occurrence is the one read).
TEST(ServeFuzzTest, NonObjectRootsBatchShapesAndDuplicateKeys) {
  const std::string valid = ValidLine();
  const std::string body = valid.substr(1, valid.size() - 2);
  ExpectEachLineAnswered({
      "null", "true", "0", "-1", "1.5", "\"verify\"", "[]", "[1,2]",
      "[" + valid + "]", "[" + valid + "," + valid + "]", "{}", "{ }",
      "\"" + std::string(64, 'x') + "\"", "{\"command\":null}",
      "{\"requests\":[" + valid + "," + valid + "]}",
      "{\"id\":7,\"requests\":[" + valid + "]}",
      "{\"id\":7,\"requests\":[]}", "{\"requests\":{}}",
      "{\"requests\":\"x\"}", "{\"requests\":null}",
      "{\"requests\":[{\"command\":\"bogus\"}," + valid + "]}",
      "{\"requests\":[" + valid + "]," + body + "}",
      "{\"id\":1,\"id\":2," + body + "}",
      "{\"command\":\"launch\"," + body + "}",
      "{" + body + ",\"command\":\"launch\"}",
      "{" + body + ",\"env\":" + JsonString(kUnparsable) + "}",
      "{\"env\":" + JsonString(kUnparsable) + "," + body + "}",
      "{" + body + ",\"options\":{\"backend\":\"datalog\"," +
          "\"backend\":\"quantum\"}}",
      "{" + body + ",\"options\":{\"backend\":\"quantum\"," +
          "\"backend\":\"datalog\"}}",
      "{" + body + ",\"options\":{},\"options\":7}",
      "{" + body + ",\"options\":7,\"options\":{}}",
      valid + valid, valid + " " + valid, valid + "]", "{" + valid + "}",
  });
}

}  // namespace
}  // namespace rapar
