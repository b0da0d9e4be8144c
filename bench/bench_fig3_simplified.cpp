// Figure 3: execution under the simplified semantics. The headline
// property: the consumer can iterate its loop arbitrarily often, and the
// abstract analysis cost is *independent of the number of env threads*
// (there is no such number — the semantics saturates), while the concrete
// semantics needs z producers for loop bound z and its state space grows
// steeply in both z and the thread count. This bench regenerates that
// crossover shape.
#include "bench/bench_util.h"
#include "core/benchmarks.h"
#include "core/verifier.h"
#include "obs/telemetry.h"

namespace rapar {
namespace {

using benchutil::Header;
using benchutil::Row;
using benchutil::Rule;
using benchutil::TimeMs;

void PrintSweep() {
  Header(
      "Figure 3: producer-consumer, loop bound z — simplified (param.) vs "
      "concrete (z producers)");
  Row({"z", "simpl verdict", "simpl states", "simpl ms", "conc states",
       "conc ms"},
      16);
  Rule(6, 16);
  for (int z = 1; z <= 6; ++z) {
    BenchmarkCase bench = ProducerConsumer(z);
    SafetyVerifier verifier(bench.system);

    Verdict vs;
    const double simpl_ms = TimeMs([&] { vs = verifier.Run(std::nullopt); });

    VerifierOptions copts;
    copts.backend = Backend::kConcrete;
    copts.concrete.env_threads = z;
    copts.time_budget_ms = 20'000;
    Verdict vc;
    const double conc_ms = TimeMs([&] { vc = verifier.Run(std::nullopt, copts); });

    Row({std::to_string(z), vs.unsafe() ? "UNSAFE" : "safe",
         std::to_string(vs.telemetry.counter(obs::metric::kStates)), std::to_string(simpl_ms),
         vc.result == Verdict::Result::kUnknown
             ? "(budget)"
             : std::to_string(
                   vc.telemetry.counter(obs::metric::kStates)),
         std::to_string(conc_ms)},
        16);
  }
  std::printf(
      "shape: the simplified semantics' cost stays flat in z (and has no "
      "thread count at all), the concrete state space grows steeply — the "
      "paper's motivation for the abstraction.\n");
}

}  // namespace
}  // namespace rapar

static void PrintReproduction() { rapar::PrintSweep(); }

static void BM_SimplifiedVerify(benchmark::State& state) {
  rapar::BenchmarkCase bench =
      rapar::ProducerConsumer(static_cast<int>(state.range(0)));
  rapar::SafetyVerifier verifier(bench.system);
  for (auto _ : state) {
    rapar::Verdict v = verifier.Run(std::nullopt);
    benchmark::DoNotOptimize(v.result);
  }
}
BENCHMARK(BM_SimplifiedVerify)->DenseRange(1, 6);

static void BM_ConcreteVerify(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  rapar::BenchmarkCase bench = rapar::ProducerConsumer(z);
  rapar::SafetyVerifier verifier(bench.system);
  rapar::VerifierOptions opts;
  opts.backend = rapar::Backend::kConcrete;
  opts.concrete.env_threads = z;
  for (auto _ : state) {
    rapar::Verdict v = verifier.Run(std::nullopt, opts);
    benchmark::DoNotOptimize(v.result);
  }
}
BENCHMARK(BM_ConcreteVerify)->DenseRange(1, 3);

RAPAR_BENCH_MAIN()
