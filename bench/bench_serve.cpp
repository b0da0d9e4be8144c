// Serve-mode load generator: the standard benchmark catalog replayed
// against a ServeSession in four regimes —
//   cold: a fresh session per request (empty cache),
//   warm: one long-lived session with the verdict cache disabled (every
//         request still runs the whole pipeline, on engines of its own),
//   hit:  one long-lived session with the cache on, second pass (every
//         request is the one that filled its entry: answered by the
//         request as sent, without parsing),
//   reformatted hit: the same session, each request re-sent with a
//         comment line prepended to every program (answered through
//         parsing and the canonical key).
// Every regime's verdict is checked against a one-shot SafetyVerifier
// run, and both hit regimes must answer "cache":"hit" (the parity
// column); the summary's speedup_hit is CI-gated at 2x over cold in
// scripts/check.sh.
//
// --json[=PATH] writes the table as BENCH_serve.json for CI upload.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "core/serve.h"
#include "core/verifier.h"

namespace rapar {
namespace {

using benchutil::Header;
using benchutil::Row;
using benchutil::Rule;
using benchutil::TimeMs;

serve::ServeOptions SessionOpts(std::size_t cache_entries) {
  serve::ServeOptions o;
  o.cache_entries = cache_entries;
  return o;
}

// One request line per catalog instance, datalog backend; `comment` is
// prepended to every program text.
std::string RequestLine(const BenchmarkCase& bench,
                        std::string_view comment = {}) {
  JsonWriter w;
  w.BeginObject();
  w.Key("command").String("verify");
  w.Key("env").String(std::string(comment) +
                      bench.system.env_program().ToString());
  w.Key("dis").BeginArray();
  for (const Program& dis : bench.system.dis_programs()) {
    w.String(std::string(comment) + dis.ToString());
  }
  w.EndArray();
  w.Key("options").BeginObject();
  w.Key("backend").String("datalog");
  w.Key("time_budget_ms").Int(60'000);
  w.Key("max_guesses").Int(30'000);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

// A string member of the response envelope ("verdict", "cache").
std::string MemberOf(const std::string& response, const char* key) {
  auto doc = ParseJson(response);
  if (!doc.ok()) return "parse-error";
  const JsonValue* v = doc.value().Find(key);
  return v != nullptr ? v->string : "missing";
}

std::string VerdictOf(const std::string& response) {
  return MemberOf(response, "verdict");
}

// A hit regime's parity: the oracle's verdict, answered from the cache.
bool HitParity(const std::string& response, const std::string& oracle) {
  return VerdictOf(response) == oracle && MemberOf(response, "cache") == "hit";
}

struct InstanceResult {
  std::string name;
  std::string verdict;
  bool parity = true;
  double cold_ms = 0;
  double warm_ms = 0;
  double hit_ms = 0;
  double reformatted_hit_ms = 0;
};

void RunLoadGenerator(const char* json_path) {
  constexpr int kColumn = 19;
  Header("serve-mode catalog replay (datalog backend)");
  Row({"instance", "verdict", "cold ms", "warm ms", "hit ms",
       "reformatted hit ms", "parity"},
      kColumn);
  Rule(7, kColumn);

  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  std::vector<InstanceResult> results;

  // Long-lived sessions: `warm` re-runs the pipeline every time;
  // `cached` answers the second pass from the verdict cache.
  serve::ServeSession warm(SessionOpts(/*cache_entries=*/0));
  serve::ServeSession cached(SessionOpts(/*cache_entries=*/1024));

  constexpr int kReps = 3;
  for (const BenchmarkCase& bench : suite) {
    InstanceResult r;
    r.name = bench.name;
    const std::string line = RequestLine(bench);
    const std::string reformatted = RequestLine(bench, "// reformatted\n");

    // One-shot oracle for the parity column.
    VerifierOptions opts;
    opts.backend = Backend::kDatalog;
    opts.time_budget_ms = 60'000;
    opts.max_guesses = 30'000;
    SafetyVerifier verifier(bench.system);
    const std::string oracle = VerdictName(verifier.Run(std::nullopt, opts).result);

    std::string response;
    // cold: fresh session per repetition; min wall-clock of kReps.
    for (int rep = 0; rep < kReps; ++rep) {
      serve::ServeSession session(SessionOpts(/*cache_entries=*/1024));
      const double ms = TimeMs([&] { response = session.HandleLine(line); });
      r.cold_ms = rep == 0 ? ms : std::min(r.cold_ms, ms);
    }
    r.verdict = VerdictOf(response);
    r.parity = r.verdict == oracle;

    // warm: one priming call, then timed repetitions on the live session.
    warm.HandleLine(line);
    for (int rep = 0; rep < kReps; ++rep) {
      const double ms = TimeMs([&] { response = warm.HandleLine(line); });
      r.warm_ms = rep == 0 ? ms : std::min(r.warm_ms, ms);
    }
    r.parity = r.parity && VerdictOf(response) == oracle;

    // hit: one populating miss, then timed cache replays.
    cached.HandleLine(line);
    for (int rep = 0; rep < kReps; ++rep) {
      const double ms = TimeMs([&] { response = cached.HandleLine(line); });
      r.hit_ms = rep == 0 ? ms : std::min(r.hit_ms, ms);
    }
    r.parity = r.parity && HitParity(response, oracle);

    // reformatted hit: the same entry, reached through the canonical key.
    for (int rep = 0; rep < kReps; ++rep) {
      const double ms =
          TimeMs([&] { response = cached.HandleLine(reformatted); });
      r.reformatted_hit_ms = rep == 0 ? ms : std::min(r.reformatted_hit_ms, ms);
    }
    r.parity = r.parity && HitParity(response, oracle);

    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", v);
      return std::string(buf);
    };
    Row({r.name, r.verdict, fmt(r.cold_ms), fmt(r.warm_ms), fmt(r.hit_ms),
         fmt(r.reformatted_hit_ms), r.parity ? "OK" : "MISMATCH"},
        kColumn);
    results.push_back(std::move(r));
  }

  double cold = 0, warm_total = 0, hit = 0, reformatted_hit = 0;
  bool parity = true;
  for (const InstanceResult& r : results) {
    cold += r.cold_ms;
    warm_total += r.warm_ms;
    hit += r.hit_ms;
    reformatted_hit += r.reformatted_hit_ms;
    parity = parity && r.parity;
  }
  const double speedup_warm = warm_total > 0 ? cold / warm_total : 0;
  const double speedup_hit = hit > 0 ? cold / hit : 0;
  std::printf(
      "\ntotals: cold %.2f ms, warm %.2f ms (%.2fx), cache-hit %.2f ms "
      "(%.2fx), reformatted cache-hit %.2f ms, parity %s\n",
      cold, warm_total, speedup_warm, hit, speedup_hit, reformatted_hit,
      parity ? "OK" : "MISMATCH");

  if (json_path == nullptr) return;
  JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Key("bench").String("serve_replay");
  w.Key("rows").BeginArray();
  for (const InstanceResult& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("verdict").String(r.verdict);
    w.Key("cold_ms").Double(r.cold_ms);
    w.Key("warm_ms").Double(r.warm_ms);
    w.Key("hit_ms").Double(r.hit_ms);
    w.Key("reformatted_hit_ms").Double(r.reformatted_hit_ms);
    w.Key("parity").String(r.parity ? "OK" : "MISMATCH");
    w.EndObject();
  }
  w.EndArray();
  w.Key("totals").BeginObject();
  w.Key("cold_ms").Double(cold);
  w.Key("warm_ms").Double(warm_total);
  w.Key("hit_ms").Double(hit);
  w.Key("reformatted_hit_ms").Double(reformatted_hit);
  w.Key("speedup_warm").Double(speedup_warm);
  w.Key("speedup_hit").Double(speedup_hit);
  w.Key("parity").String(parity ? "OK" : "MISMATCH");
  w.EndObject();
  w.EndObject();
  std::ofstream out(json_path);
  out << w.TakeString() << "\n";
  std::printf("wrote %s\n", json_path);
}

// --- google-benchmark timings ------------------------------------------------

void BM_ServeCacheHit(benchmark::State& state) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  serve::ServeSession session(SessionOpts(/*cache_entries=*/1024));
  const std::string line = RequestLine(suite[0]);
  session.HandleLine(line);  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.HandleLine(line));
  }
}
BENCHMARK(BM_ServeCacheHit);

void BM_ServeWarmMiss(benchmark::State& state) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  serve::ServeSession session(SessionOpts(/*cache_entries=*/0));
  const std::string line = RequestLine(suite[0]);
  session.HandleLine(line);  // prime the session
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.HandleLine(line));
  }
}
BENCHMARK(BM_ServeWarmMiss);

void BM_ServeColdSession(benchmark::State& state) {
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  const std::string line = RequestLine(suite[0]);
  for (auto _ : state) {
    serve::ServeSession session(SessionOpts(/*cache_entries=*/1024));
    benchmark::DoNotOptimize(session.HandleLine(line));
  }
}
BENCHMARK(BM_ServeColdSession);

}  // namespace
}  // namespace rapar

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_serve.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  rapar::RunLoadGenerator(json_path);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
