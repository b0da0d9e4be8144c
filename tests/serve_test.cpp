// End-to-end tests for the verification service (core/serve.h): request
// decoding, the content-addressed verdict cache (fingerprint
// sensitivity, LRU eviction, single-flight coalescing, hits by the
// request as sent and by the canonical key), the catalog
// replay differential — every standard benchmark served twice must be
// 100% cache hits on the second pass with envelopes identical to the
// first modulo telemetry, and both must agree with a one-shot
// SafetyVerifier run — and ordered concurrent Run().
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

serve::ServeOptions Opts(unsigned threads, std::size_t cache_entries = 1024) {
  serve::ServeOptions o;
  o.threads = threads;
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
  serve::ServeSession session(Opts(1));
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

// DESIGN.md §12's collision property: the canonical key holds the
// programs as parsed, so the same programs re-sent with comments and
// blank lines hit the entry the first text filled, with its fingerprint.
// Such a repeat is not the request that filled the entry, so it parses;
// and it adds no alias (one per entry), so a second copy parses too.
TEST(ServeTest, ReformattedProgramsHitTheFilledEntry) {
  serve::ServeSession session(Opts(1));
  const JsonValue first =
      Parse(session.HandleLine(MakeLine("verify", kMpWriter, {kMpReader})));
  ASSERT_EQ(Str(first, "cache"), "miss");

  const std::string reformatted = MakeLine(
      "verify", std::string("// the MP writer\n\n") + kMpWriter + "\n\n",
      {std::string("# reader\n\n") + kMpReader});
  for (int round = 0; round < 2; ++round) {
    const JsonValue again = Parse(session.HandleLine(reformatted));
    EXPECT_EQ(Str(again, "cache"), "hit") << round;
    EXPECT_EQ(Str(again, "fingerprint"), Str(first, "fingerprint")) << round;
    EXPECT_EQ(StripVolatile(again), StripVolatile(first)) << round;
    EXPECT_GT(Gauge(again, "phase.parse_ms"), 0.0) << round;
  }
  const serve::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
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
  serve::ServeSession session(Opts(1));

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
  serve::ServeSession session(Opts(1));
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
  serve::ServeSession session(Opts(1));
  const struct {
    std::string line;
    const char* expect;
  } cases[] = {
      {"this is not json", "invalid request JSON"},
      {"{\"command\":\"launch\"}", "unknown command"},
      {"{\"command\":\"verify\"}", "missing env program"},
      {"{\"id\":7,\"command\":\"verify\",\"env\":\"nonsense !\"}", "env:"},
      {MakeLine("mg", kMpWriter, {}, "zz", 1), "unknown variable"},
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
      {MakeLine("verify", kMpWriter, {}, "", -1,
                "{\"tmai_max_iterations\":-8589934592}"),
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

TEST(ServeTest, FingerprintSensitivity) {
  serve::ServeSession session(Opts(1));
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
  serve::ServeSession session(Opts(1, /*cache_entries=*/1));
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
  serve::ServeSession session(Opts(1, /*cache_entries=*/0));
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

  serve::ServeSession session(Opts(1, /*cache_entries=*/0));
  for (const std::size_t i : {0, 1, 0}) {
    RequestSpec spec;
    spec.env = systems[i]->env_program().ToString();
    for (const Program& dis : systems[i]->dis_programs()) {
      spec.dis.push_back(dis.ToString());
    }
    spec.options_json = "{\"backend\":\"datalog\",\"time_budget_ms\":0}";
    const JsonValue doc = Parse(session.HandleLine(RequestLine(spec)));
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
  serve::ServeSession session(Opts(1));
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
  serve::ServeSession session(Opts(1));
  RequestSpec spec;
  spec.env = kMpWriter;
  spec.dis = {kMpReader};
  spec.options_json = "{\"backend\":\"tmai\"}";
  const std::string line = RequestLine(spec);
  const JsonValue first = Parse(session.HandleLine(line));
  ASSERT_EQ(Str(first, "verdict"), "safe");
  ASSERT_NE(first.Find("certificate"), nullptr)
      << "TMAI safe verdicts carry a certificate";
  // The hit path re-validates the memoized certificate against the
  // freshly parsed system before replaying it.
  const JsonValue second = Parse(session.HandleLine(line));
  EXPECT_EQ(Str(second, "cache"), "hit");
  EXPECT_EQ(Reemit(second.Find("certificate")),
            Reemit(first.Find("certificate")));
  // The re-check needs the parsed system, so a certificate hit parses.
  EXPECT_GT(Gauge(second, "phase.parse_ms"), 0.0);
}

// The tentpole differential: the whole standard benchmark catalog served
// twice. Every first-pass verdict must match a one-shot SafetyVerifier
// run bit-for-bit on verdict/witness/bound/certificate; every
// second-pass response must be a cache hit whose envelope is identical
// to the first modulo telemetry.
TEST(ServeTest, CatalogReplayDifferential) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  serve::ServeSession session(Opts(1));

  std::vector<std::string> lines;
  std::vector<std::string> first_pass;
  for (const BenchmarkCase& bench : suite) {
    RequestSpec spec;
    spec.env = bench.system.env_program().ToString();
    for (const Program& dis : bench.system.dis_programs()) {
      spec.dis.push_back(dis.ToString());
    }
    spec.options_json = "{\"time_budget_ms\":60000}";
    lines.push_back(RequestLine(spec));
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
// response N without sending request N+1 or closing the stream. The
// pooled path used to drain completed slots only after reading the next
// input line, deadlocking exactly this pattern.
TEST(ServeTest, PooledRunAnswersWithoutFurtherInput) {
  BlockingInputBuf in_buf;
  LineCaptureBuf out_buf;
  std::istream in(&in_buf);
  std::ostream out(&out_buf);
  serve::ServeSession session(Opts(4));
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

// Concurrent Run(): responses come back in request order, and identical
// concurrent requests coalesce through the single-flight cache — with 4
// copies of each of 3 programs in flight at once, exactly 3 run the
// pipeline and 9 hit.
TEST(ServeTest, ConcurrentRunOrdersResponsesAndCoalesces) {
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
      // response, not the fingerprint, so twins still coalesce.
      std::string line = p;
      line.insert(1, "\"id\":" + std::to_string(id % 3) + ",");
      input << line << "\n";
      ++id;
    }
  }

  serve::ServeSession session(Opts(4));
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

// Pooled hits and evictions on a two-entry cache: with three canonical
// requests (one also sent reformatted) in rotation, workers look entries
// up by request key and by canonical key while others fill and evict
// them. Every response carries its program's verdict, whichever path
// answered it.
TEST(ServeTest, ConcurrentHitsAndEvictionsKeepVerdicts) {
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

  serve::ServeSession session(Opts(4, /*cache_entries=*/2));
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

}  // namespace
}  // namespace rapar
