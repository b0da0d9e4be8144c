// Theorem 3.4 / Theorem 4.1 head-to-head: the three backends on the
// benchmark corpus. The verdicts must coincide (sound & complete
// abstraction; correct encoding); the costs differ by design:
// the saturation explorer is the production path, the Datalog path
// realises the PSPACE argument, the concrete path is the baseline whose
// state space the parameterization removes.
//
// --json additionally writes the observability and TMAI domain tables as
// JSON (BENCH_obs.json, BENCH_tmai_domains.json) for CI artifact upload.
#include <cstring>
#include <fstream>
#include <optional>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/benchmarks.h"
#include "core/verifier.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"

namespace rapar {
namespace {

using benchutil::Header;
using benchutil::Row;
using benchutil::Rule;
using benchutil::TimeMs;

void PrintComparison() {
  Header("Backends head-to-head on the benchmark corpus");
  Row({"instance", "simplified", "ms", "datalog", "ms", "concrete(n=2)",
       "ms"},
      17);
  Rule(7, 17);
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  for (const BenchmarkCase& bench : suite) {
    SafetyVerifier verifier(bench.system);
    auto run = [&](Backend backend, double* ms) {
      VerifierOptions opts;
      opts.backend = backend;
      opts.concrete.env_threads = 2;
      opts.time_budget_ms = 20'000;
      opts.max_guesses = 30'000;
      Verdict v;
      *ms = TimeMs([&] { v = verifier.Run(std::nullopt, opts); });
      if (v.unsafe()) return std::string("UNSAFE");
      return std::string(v.safe() ? "SAFE" : "unknown");
    };
    double ms_s = 0, ms_d = 0, ms_c = 0;
    const std::string s = run(Backend::kSimplifiedExplorer, &ms_s);
    const std::string d = run(Backend::kDatalog, &ms_d);
    const std::string c = run(Backend::kConcrete, &ms_c);
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", v);
      return std::string(buf);
    };
    Row({bench.name, s, fmt(ms_s), d, fmt(ms_d), c, fmt(ms_c)}, 17);
  }
  std::printf(
      "(the Datalog backend may report 'unknown' when the guess "
      "enumeration exceeds its cap; 'concrete' verdicts are instance-"
      "level, not parameterized)\n");
}

// Observability ablation: the same verify with no trace sink installed
// vs a live TraceRecorder, plus the per-phase wall-clock breakdown the
// telemetry gauges record. Two acceptance properties are on display:
// the no-sink overhead of the instrumentation (ScopedSpan reduces to a
// pointer test; the bar is <= 5%, the observed cost is noise) and
// verdict neutrality (recording must not change the result). With
// --json the rows are written to BENCH_obs.json for CI upload.
void PrintObsAblation(bool write_json) {
  Header("observability ablation (trace off vs on, per-phase breakdown)");
  Row({"instance", "ms(off)", "ms(on)", "overhead", "events", "phases(ms)",
       "verdict"},
      15);
  Rule(7, 15);
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return std::string(buf);
  };
  std::string json = "{\n  \"bench\": \"obs_ablation\",\n  \"rows\": [";
  bool first_row = true;

  auto run = [&](const ParamSystem& sys, const std::string& name,
                 Backend backend) {
    SafetyVerifier verifier(sys);
    VerifierOptions opts;
    opts.backend = backend;
    opts.concrete.env_threads = 2;
    opts.time_budget_ms = 20'000;
    opts.max_guesses = 30'000;
    // Interleave off/on runs and keep the best of 3 each, so the
    // overhead column measures the instrumentation, not cache warmup.
    double ms_off = 0, ms_on = 0;
    Verdict off, on;
    obs::TraceRecorder recorder;
    std::size_t events = 0;
    for (int rep = 0; rep < 3; ++rep) {
      opts.obs.trace = nullptr;
      const double off_ms = TimeMs([&] { off = verifier.Run(std::nullopt, opts); });
      if (rep == 0 || off_ms < ms_off) ms_off = off_ms;
      opts.obs.trace = &recorder;
      const double on_ms = TimeMs([&] { on = verifier.Run(std::nullopt, opts); });
      if (rep == 0 || on_ms < ms_on) ms_on = on_ms;
    }
    opts.obs.trace = nullptr;
    events = recorder.size() / 3;  // events per traced run
    const double pct =
        ms_off > 0 ? 100.0 * (ms_on - ms_off) / ms_off : 0.0;
    char overhead[32];
    std::snprintf(overhead, sizeof overhead, "%+.1f%%", pct);
    namespace metric = obs::metric;
    const std::string phases =
        StrCat("pre=", fmt(on.telemetry.gauge(metric::kPhasePrepassMs)),
               " solve=", fmt(on.telemetry.gauge(metric::kPhaseSolveMs)),
               " wit=", fmt(on.telemetry.gauge(metric::kPhaseWitnessMs)),
               " total=", fmt(on.telemetry.gauge(metric::kPhaseTotalMs)));
    const char* v = on.unsafe() ? "UNSAFE" : (on.safe() ? "SAFE" : "unknown");
    const bool same = on.result == off.result && on.witness == off.witness;
    Row({name, fmt(ms_off), fmt(ms_on), overhead, std::to_string(events),
         phases, StrCat(v, same ? "" : " (MISMATCH)")},
        15);
    json += StrCat(
        first_row ? "" : ",", "\n    {\"name\": \"", name,
        "\", \"ms_off\": ", fmt(ms_off), ", \"ms_on\": ", fmt(ms_on),
        ", \"overhead_pct\": ", fmt(pct), ", \"events\": ", events,
        ", \"prepass_ms\": ", fmt(on.telemetry.gauge(metric::kPhasePrepassMs)),
        ", \"solve_ms\": ", fmt(on.telemetry.gauge(metric::kPhaseSolveMs)),
        ", \"witness_ms\": ", fmt(on.telemetry.gauge(metric::kPhaseWitnessMs)),
        ", \"total_ms\": ", fmt(on.telemetry.gauge(metric::kPhaseTotalMs)),
        ", \"verdict\": \"", v, "\", \"verdict_neutral\": ",
        same ? "true" : "false", "}");
    first_row = false;
  };

  for (int z : {8, 12}) {
    const BenchmarkCase safe_pc = ProducerConsumerSafe(z);
    run(safe_pc.system, StrCat(safe_pc.name, "/datalog"), Backend::kDatalog);
    run(safe_pc.system, StrCat(safe_pc.name, "/simplified"),
        Backend::kSimplifiedExplorer);
  }
  Rng rng(42);
  const Qbf qbf = RandomQbf(rng, 3, 3);
  Expected<ParamSystem> tqbf = TqbfSystem(qbf);
  if (tqbf.ok()) {
    run(tqbf.value(), "tqbf(n=3)/datalog", Backend::kDatalog);
  }
  std::printf(
      "(ms are best-of-3; overhead compares no-sink runs against runs "
      "with a live TraceRecorder — the no-sink case is the one the <=5%% "
      "bar applies to, and it differs from 'off' only by a null pointer "
      "test per span)\n");

  json += "\n  ]\n}\n";
  if (write_json) {
    std::ofstream out("BENCH_obs.json");
    out << json;
    std::printf("wrote BENCH_obs.json\n");
  }
}

// TMAI domain ablation: the small-set value domain (PR 6) vs the
// relational must-domain (tmai/relational.h) vs the kAuto retry policy,
// on the benchmark catalog. Three acceptance properties are on display:
// the proof-rate ordering (relational must prove at least every case
// small-set proves — it only adds precision; the jq gate in CI enforces
// proof_rate_relational >= proof_rate_smallset), certificate validity
// (every kSafe verdict ships a certificate the independent checker
// accepts). Latency shows what the precision costs: the relational
// fixpoint re-runs with pairwise tracking and up to three pruning rounds
// (kMaxStrengthenRounds in tmai/relational.cpp), while kAuto pays that
// only on small-set kUnknown. With --json the table is written to
// BENCH_tmai_domains.json.
void PrintDomainAblation(bool write_json) {
  Header("TMAI domain ablation (small-set vs relational vs auto)");
  Row({"instance", "smallset", "ms", "relational", "ms", "auto", "ms",
       "cert"},
      13);
  Rule(8, 13);
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  std::string json = "{\n  \"bench\": \"tmai_domains\",\n  \"rows\": [";
  bool first_row = true;
  int safe_cases = 0;
  int proved_smallset = 0, proved_relational = 0, proved_auto = 0;
  int certs_total = 0, certs_valid = 0;
  bool all_parity = true;

  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  suite.push_back(ProducerConsumerSafe(2));
  for (const BenchmarkCase& bench : suite) {
    const bool expected_safe =
        bench.expected_unsafe.has_value() && !*bench.expected_unsafe;
    if (expected_safe) ++safe_cases;
    const tmai::TmaiSystem tsys =
        tmai::TmaiSystem::FromSimpl(bench.system.simpl());
    struct DomainRun {
      bool safe = false;
      bool cert_valid = false;
      bool has_cert = false;
      double ms = 0;
    };
    DomainRun runs[3];
    const tmai::Domain domains[3] = {tmai::Domain::kSmallSet,
                                     tmai::Domain::kRelational,
                                     tmai::Domain::kAuto};
    for (int i = 0; i < 3; ++i) {
      tmai::TmaiOptions opts;
      opts.domain = domains[i];
      tmai::TmaiResult r;
      runs[i].ms = TimeMs([&] { r = tmai::RunTmai(tsys, {}, opts); });
      runs[i].safe = r.safe;
      if (r.safe) {
        runs[i].has_cert = r.certificate != nullptr;
        if (runs[i].has_cert) {
          ++certs_total;
          runs[i].cert_valid =
              tmai::CheckCertificate(tsys, *r.certificate).valid;
          if (runs[i].cert_valid) ++certs_valid;
        }
      }
    }
    if (expected_safe) {
      proved_smallset += runs[0].safe;
      proved_relational += runs[1].safe;
      proved_auto += runs[2].safe;
    }
    // Parity: no unsound proof (a kSafe on an expected-unsafe case), no
    // lost precision (relational/auto prove everything small-set does),
    // and every emitted certificate validates.
    bool parity = true;
    if (bench.expected_unsafe.value_or(false) &&
        (runs[0].safe || runs[1].safe || runs[2].safe)) {
      parity = false;
    }
    if (runs[0].safe && (!runs[1].safe || !runs[2].safe)) parity = false;
    for (const DomainRun& r : runs) {
      if (r.safe && (!r.has_cert || !r.cert_valid)) parity = false;
    }
    all_parity = all_parity && parity;
    auto verdict = [](const DomainRun& r) {
      return std::string(r.safe ? "SAFE" : "unknown");
    };
    const int row_certs =
        runs[0].has_cert + runs[1].has_cert + runs[2].has_cert;
    const int row_valid =
        runs[0].cert_valid + runs[1].cert_valid + runs[2].cert_valid;
    const std::string cert =
        StrCat(row_valid, "/", row_certs, parity ? "" : " MISMATCH");
    Row({bench.name, verdict(runs[0]), fmt(runs[0].ms), verdict(runs[1]),
         fmt(runs[1].ms), verdict(runs[2]), fmt(runs[2].ms), cert},
        13);
    json += StrCat(
        first_row ? "" : ",", "\n    {\"name\": \"", bench.name,
        "\", \"expected_safe\": ", expected_safe ? "true" : "false",
        ", \"smallset\": \"", verdict(runs[0]),
        "\", \"smallset_ms\": ", fmt(runs[0].ms), ", \"relational\": \"",
        verdict(runs[1]), "\", \"relational_ms\": ", fmt(runs[1].ms),
        ", \"auto\": \"", verdict(runs[2]),
        "\", \"auto_ms\": ", fmt(runs[2].ms),
        ", \"certificates_valid\": ", row_valid,
        ", \"certificates\": ", row_certs,
        ", \"parity\": ", parity ? "true" : "false", "}");
    first_row = false;
  }

  auto rate = [&](int proved) {
    return safe_cases > 0 ? static_cast<double>(proved) / safe_cases : 0.0;
  };
  std::printf(
      "proof rate on the %d expected-safe catalog cases: smallset %d "
      "(%.2f), relational %d (%.2f), auto %d (%.2f)\n"
      "certificates: %d/%d valid; parity %s\n",
      safe_cases, proved_smallset, rate(proved_smallset), proved_relational,
      rate(proved_relational), proved_auto, rate(proved_auto), certs_valid,
      certs_total, all_parity ? "OK" : "MISMATCH");
  std::printf(
      "(cert = valid/emitted invariant certificates on that row, checked "
      "with tmai::CheckCertificate; parity requires no unsound proof, "
      "relational >= smallset precision per case, and every certificate "
      "valid)\n");

  json += StrCat(
      "\n  ],\n  \"totals\": {\n    \"safe_cases\": ", safe_cases,
      ",\n    \"proved_smallset\": ", proved_smallset,
      ",\n    \"proved_relational\": ", proved_relational,
      ",\n    \"proved_auto\": ", proved_auto,
      ",\n    \"proof_rate_smallset\": ", fmt(rate(proved_smallset)),
      ",\n    \"proof_rate_relational\": ", fmt(rate(proved_relational)),
      ",\n    \"proof_rate_auto\": ", fmt(rate(proved_auto)),
      ",\n    \"certificates_valid\": ", certs_valid,
      ",\n    \"certificates_total\": ", certs_total,
      ",\n    \"parity\": \"", all_parity ? "OK" : "MISMATCH",
      "\"\n  }\n}\n");
  if (write_json) {
    std::ofstream out("BENCH_tmai_domains.json");
    out << json;
    std::printf("wrote BENCH_tmai_domains.json\n");
  }
}

}  // namespace
}  // namespace rapar

static void PrintReproduction(bool write_json) {
  rapar::PrintComparison();
  rapar::PrintObsAblation(write_json);
  rapar::PrintDomainAblation(write_json);
}

static void BM_Backend(benchmark::State& state) {
  std::vector<rapar::BenchmarkCase> suite = rapar::StandardBenchmarks();
  const rapar::BenchmarkCase& bench =
      suite[static_cast<std::size_t>(state.range(0))];
  rapar::SafetyVerifier verifier(bench.system);
  rapar::VerifierOptions opts;
  opts.backend = static_cast<rapar::Backend>(state.range(1));
  opts.concrete.env_threads = 2;
  opts.time_budget_ms = 20'000;
  opts.max_guesses = 30'000;
  for (auto _ : state) {
    rapar::Verdict v = verifier.Run(std::nullopt, opts);
    benchmark::DoNotOptimize(v.result);
  }
  state.SetLabel(bench.name + "/" +
                 (state.range(1) == 0   ? "simplified"
                  : state.range(1) == 1 ? "datalog"
                                        : "concrete"));
}
BENCHMARK(BM_Backend)
    ->ArgsProduct({{0, 2, 6, 8}, {0, 1, 2}});

// RAPAR_BENCH_MAIN plus a --json flag (stripped before the
// google-benchmark flag parser sees it).
int main(int argc, char** argv) {
  bool write_json = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      write_json = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  PrintReproduction(write_json);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
