// Ablation of the simplified explorer's gap-choice policy for the
// ⁺-timestamps: minimal vs exhaustive. The minimal policy is justified by
// a monotonicity argument; the ablation quantifies what it buys while
// tests (equivalence_test, simplified_explorer_test) check it does not
// change verdicts.
#include "bench/bench_util.h"
#include "core/benchmarks.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"
#include "simplified/explorer.h"

namespace rapar {
namespace {

using benchutil::Header;
using benchutil::Row;
using benchutil::Rule;
using benchutil::TimeMs;

struct Cell {
  std::size_t states = 0;
  double ms = 0;
  bool ok = false;
};

Cell RunConfig(const SimplSystem& sys, ViewChoice policy) {
  SimplExplorer ex(sys);
  SimplExplorerOptions opts;
  opts.policy = policy;
  opts.stop_on_violation = false;
  opts.max_states = 60'000;
  opts.time_budget_ms = 15'000;
  Cell cell;
  SimplResult r;
  cell.ms = TimeMs([&] { r = ex.Check(opts); });
  cell.states = r.states;
  cell.ok = r.exhaustive;
  return cell;
}

void PrintAblation() {
  Header("Ablation: gap-choice policy (full exploration)");
  Row({"instance", "minimal", "all"}, 22);
  Rule(3, 22);

  struct Item {
    std::string name;
    ParamSystem system;
  };
  std::vector<Item> items;
  {
    std::vector<BenchmarkCase> suite = StandardBenchmarks();
    for (BenchmarkCase& b : suite) {
      items.push_back(Item{b.name, std::move(b.system)});
    }
  }
  {
    Rng rng(5);
    Qbf qbf = RandomQbf(rng, 1, 4);
    Expected<ParamSystem> sys = TqbfSystem(qbf);
    items.push_back(Item{"tqbf(n=1)", std::move(sys).value()});
  }

  for (const Item& item : items) {
    auto fmt = [](const Cell& c) {
      if (!c.ok) return std::string("(bound)");
      char buf[48];
      std::snprintf(buf, sizeof buf, "%zu st / %.1fms", c.states, c.ms);
      return std::string(buf);
    };
    Row({item.name, fmt(RunConfig(item.system.simpl(), ViewChoice::kMinimal)),
         fmt(RunConfig(item.system.simpl(), ViewChoice::kAll))},
        22);
  }
  std::printf(
      "(states counts abstract configurations after env saturation; the "
      "minimal policy collapses the gap nondeterminism)\n");
}

}  // namespace
}  // namespace rapar

static void PrintReproduction() { rapar::PrintAblation(); }

static void BM_Ablation(benchmark::State& state) {
  rapar::BenchmarkCase bench = rapar::ProducerConsumer(3);
  const bool all = state.range(0) != 0;
  const rapar::ViewChoice policy =
      all ? rapar::ViewChoice::kAll : rapar::ViewChoice::kMinimal;
  for (auto _ : state) {
    rapar::Cell c = rapar::RunConfig(bench.system.simpl(), policy);
    benchmark::DoNotOptimize(c.states);
  }
  state.SetLabel(all ? "all" : "min");
}
BENCHMARK(BM_Ablation)->Arg(0)->Arg(1);

RAPAR_BENCH_MAIN()
