#include "workloads.h"

#include <stdexcept>

#include "common/json.h"
#include "common/rng.h"
#include "core/benchmarks.h"
#include "lang/parser.h"
#include "lang/random_program.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rabench {

namespace {

using rapar::Backend;

// Replicate counts are calibrated so one run's timed loop costs about
// `seconds` of CPU on a 4-vCPU x86 VM, with a floor of kMinSamples
// samples per run. Percentiles are taken per replicate, so a tqbf-eval
// pass bases them on 40 samples (see README.md).
constexpr double kGuessHeavyPassSeconds = 4.1;
constexpr double kTqbfPassSeconds = 6.6;
constexpr double kServeStreamSeconds = 1.3;
constexpr std::size_t kMinSamples = 100;
constexpr double kReferenceSpacingSeconds = 0.010;
constexpr int kReferenceMaxPerGap = 4;  // half of run.py's REFERENCE_WINDOW

constexpr int kTqbfInstances = 40;
constexpr int kServeSimplifiedSeeds = 1000;  // generator seeds [0, 1000)
constexpr int kServeTmaiFirstSeed = 1100;    // [1100, 1200)
constexpr int kServeTmaiSeeds = 100;
constexpr int kServeRepeatsPerFill = 4;
constexpr int kServePopularPercent = 10;     // share of the pool
constexpr int kServePopularRepeatPercent = 80;

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kSimplifiedExplorer:
      return "simplified";
    case Backend::kDatalog:
      return "datalog";
    case Backend::kConcrete:
      return "concrete";
    case Backend::kTmai:
      return "tmai";
    case Backend::kPortfolio:
      return "portfolio";
  }
  return "simplified";
}

// Spaces the reference samples by the mean CPU of a request: about one
// per kReferenceSpacingSeconds. A window of samples then spans a few
// requests on either side of each one.
void SpaceReferenceSamples(Workload* w, double replicate_seconds,
                           std::size_t requests) {
  const double each = replicate_seconds / static_cast<double>(requests);
  const double per_request = each / kReferenceSpacingSeconds;
  const auto every = static_cast<std::size_t>(1 / per_request + 0.5);
  const auto per_gap = static_cast<int>(per_request + 0.5);
  w->reference_every = every < 1 ? 1 : every;
  w->reference_per_gap =
      per_gap < 1 ? 1 : (per_gap > kReferenceMaxPerGap ? kReferenceMaxPerGap
                                                       : per_gap);
}

int Repeats(double each_seconds, int seconds, std::size_t min) {
  const std::size_t n = static_cast<std::size_t>(seconds / each_seconds + 0.5);
  return static_cast<int>(n < min ? min : n);
}

// Fisher-Yates over rapar::Rng, so the order is identical on every
// platform and standard library.
void Shuffle(std::vector<std::uint32_t>& v, rapar::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

std::vector<std::uint32_t> Iota(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint32_t>(i);
  return v;
}

// `passes` passes over every entry, each in its own seeded order; each
// pass is a replicate.
void AddPasses(Workload* w, int passes, std::uint64_t seed) {
  rapar::Rng rng(seed);
  for (int p = 0; p < passes; ++p) {
    std::vector<std::uint32_t> order = Iota(w->entries.size());
    Shuffle(order, rng);
    w->replicate_starts.push_back(w->requests.size());
    w->requests.insert(w->requests.end(), order.begin(), order.end());
  }
}

Entry CatalogEntry(const rapar::BenchmarkCase& c, Backend backend) {
  Entry e;
  e.id = "cat:" + c.name;
  e.env_text = c.system.env_program().ToString();
  for (const rapar::Program& d : c.system.dis_programs()) {
    e.dis_texts.push_back(d.ToString());
  }
  e.backend = backend;
  e.expected_unsafe = c.expected_unsafe;
  return e;
}

std::string ServeLine(const Entry& e) {
  rapar::JsonWriter w;
  w.BeginObject();
  w.Key("id").String(e.id);
  w.Key("command").String(e.goal_var.empty() ? "verify" : "mg");
  w.Key("env").String(e.env_text);
  w.Key("dis").BeginArray();
  for (const std::string& d : e.dis_texts) w.String(d);
  w.EndArray();
  if (!e.goal_var.empty()) {
    w.Key("var").String(e.goal_var);
    w.Key("val").Int(e.goal_val);
  }
  // The daemon defaults to a 30 s deadline; 0 restores the library
  // default (no wall-clock deadline), so every verdict is reproducible.
  w.Key("options").BeginObject();
  w.Key("backend").String(BackendName(e.backend));
  w.Key("time_budget_ms").Int(0);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Workload GuessHeavy(std::uint64_t seed, int seconds) {
  Workload w;
  for (int s : BandSeeds(kGuessHeavyBand)) {
    w.entries.push_back(GeneratedEntry(s, Backend::kDatalog));
  }
  for (const rapar::BenchmarkCase& c : rapar::StandardBenchmarks()) {
    if (c.name == "peterson-ra" || c.name == "dekker-cas") {
      w.entries.push_back(CatalogEntry(c, Backend::kDatalog));
    }
  }
  const std::size_t floor = (kMinSamples + w.entries.size() - 1) /
                            w.entries.size();
  AddPasses(&w, Repeats(kGuessHeavyPassSeconds, seconds, floor), seed);
  SpaceReferenceSamples(&w, kGuessHeavyPassSeconds, w.entries.size());
  return w;
}

Workload TqbfEval(std::uint64_t seed, int seconds) {
  Workload w;
  for (int k = 0; k < kTqbfInstances; ++k) w.entries.push_back(TqbfEntry(k));
  const std::size_t floor = (kMinSamples + kTqbfInstances - 1) /
                            kTqbfInstances;
  AddPasses(&w, Repeats(kTqbfPassSeconds, seconds, floor), seed);
  SpaceReferenceSamples(&w, kTqbfPassSeconds, w.entries.size());
  return w;
}

// One stream per session: every pool entry is requested once in seeded
// order (the fills); after each fill come kServeRepeatsPerFill repeats of
// entries filled earlier, kServePopularRepeatPercent of them aimed at the
// stream's seeded popular subset. The pool exceeds the daemon's
// 1024-entry cache, so late fills evict and unpopular repeats can miss.
// Each stream starts on a fresh session, so every stream fills the cache
// from empty and streams are independent replicates.
void AppendStream(std::size_t pool, rapar::Rng& rng,
                  std::vector<std::uint32_t>* out) {
  std::vector<std::uint32_t> popular_order = Iota(pool);
  Shuffle(popular_order, rng);
  std::vector<char> popular(pool, 0);
  const std::size_t popular_n = pool * kServePopularPercent / 100;
  for (std::size_t i = 0; i < popular_n; ++i) popular[popular_order[i]] = 1;
  std::vector<std::uint32_t> fills = Iota(pool);
  Shuffle(fills, rng);
  std::vector<std::uint32_t> filled;
  std::vector<std::uint32_t> filled_popular;
  for (std::uint32_t f : fills) {
    out->push_back(f);
    filled.push_back(f);
    if (popular[f]) filled_popular.push_back(f);
    for (int r = 0; r < kServeRepeatsPerFill; ++r) {
      const bool hot = !filled_popular.empty() &&
                       rng.Below(100) < kServePopularRepeatPercent;
      const std::vector<std::uint32_t>& from = hot ? filled_popular : filled;
      out->push_back(from[rng.Below(from.size())]);
    }
  }
}

Workload ServeMixed(std::uint64_t seed, int seconds) {
  Workload w;
  w.serve = true;
  for (int s = 0; s < kServeSimplifiedSeeds; ++s) {
    w.entries.push_back(GeneratedEntry(s, Backend::kSimplifiedExplorer));
  }
  for (int s : BandSeeds(kServeDatalogBand)) {
    w.entries.push_back(GeneratedEntry(s, Backend::kDatalog));
  }
  for (int s = kServeTmaiFirstSeed; s < kServeTmaiFirstSeed + kServeTmaiSeeds;
       ++s) {
    w.entries.push_back(GeneratedEntry(s, Backend::kTmai));
  }
  for (const rapar::BenchmarkCase& c : rapar::StandardBenchmarks()) {
    w.entries.push_back(CatalogEntry(c, Backend::kSimplifiedExplorer));
  }
  for (Entry& e : w.entries) e.line = ServeLine(e);
  rapar::Rng rng(seed);
  const int streams = Repeats(kServeStreamSeconds, seconds, 1);
  for (int k = 0; k < streams; ++k) {
    w.replicate_starts.push_back(w.requests.size());
    AppendStream(w.entries.size(), rng, &w.requests);
  }
  SpaceReferenceSamples(&w, kServeStreamSeconds,
                        w.entries.size() * (1 + kServeRepeatsPerFill));
  return w;
}

}  // namespace

std::string ServeWarmUpLine() {
  Entry e = CatalogEntry(rapar::ProducerConsumer(2),
                         Backend::kSimplifiedExplorer);
  e.id = "warm-up";
  return ServeLine(e);
}

Entry TqbfEntry(int k) {
  rapar::Rng rng(static_cast<std::uint64_t>(k));
  const rapar::Qbf qbf = rapar::RandomQbf(rng, 3, 3);
  rapar::Expected<rapar::ParamSystem> sys = rapar::TqbfSystem(qbf);
  if (!sys.ok()) throw std::runtime_error("TqbfSystem: " + sys.error());
  Entry e;
  e.id = "qbf:" + std::to_string(k);
  e.env_text = sys.value().env_program().ToString();
  for (const rapar::Program& d : sys.value().dis_programs()) {
    e.dis_texts.push_back(d.ToString());
  }
  e.backend = Backend::kDatalog;
  // Theorem 5.1: the system is unsafe iff the QBF is true.
  e.expected_unsafe = rapar::EvalQbf(qbf);
  return e;
}

Entry GeneratedEntry(int seed, Backend backend) {
  rapar::Rng rng(static_cast<std::uint64_t>(seed));
  rapar::RandomProgramOptions env_opts;
  env_opts.num_vars = 3;
  env_opts.num_regs = 3;
  env_opts.dom = 4;
  env_opts.size = 10;
  env_opts.allow_cas = false;
  env_opts.allow_loops = false;
  rapar::RandomProgramOptions dis_opts = env_opts;
  dis_opts.size = 8;
  Entry e;
  e.id = "gen:" + std::to_string(seed);
  e.env_text = rapar::RandomProgram(rng, env_opts, "env").ToString();
  e.dis_texts.push_back(rapar::RandomProgram(rng, dis_opts, "dis").ToString());
  // RandomProgram never emits `assert false`, so the assert query is SAFE
  // by construction; every generated system gets a Message-Generation
  // goal instead, fixed by its generator seed.
  rapar::Rng goal_rng(0x6d67676f616c7321ULL ^ static_cast<std::uint64_t>(seed));
  e.goal_var = "v" + std::to_string(goal_rng.Below(env_opts.num_vars));
  e.goal_val = static_cast<rapar::Value>(goal_rng.IntIn(1, env_opts.dom - 1));
  e.backend = backend;
  return e;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds) {
  if (name == "guess-heavy") return GuessHeavy(seed, seconds);
  if (name == "tqbf-eval") return TqbfEval(seed, seconds);
  if (name == "serve-mixed") return ServeMixed(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

BuiltEntry BuildEntry(const Entry& e) {
  rapar::Expected<rapar::Program> env = rapar::ParseProgram(e.env_text);
  if (!env.ok()) throw std::runtime_error(e.id + ": env: " + env.error());
  rapar::ParamSystem::Builder builder;
  builder.Env(std::move(env).value());
  for (const std::string& text : e.dis_texts) {
    rapar::Expected<rapar::Program> dis = rapar::ParseProgram(text);
    if (!dis.ok()) throw std::runtime_error(e.id + ": dis: " + dis.error());
    builder.Dis(std::move(dis).value());
  }
  rapar::Expected<rapar::ParamSystem> sys = builder.Build();
  if (!sys.ok()) throw std::runtime_error(e.id + ": " + sys.error());
  BuiltEntry b;
  b.system = std::make_unique<rapar::ParamSystem>(std::move(sys).value());
  if (!e.goal_var.empty()) {
    const rapar::VarId var = b.system->vars().Find(e.goal_var);
    if (!var.valid()) throw std::runtime_error(e.id + ": unknown goal var");
    b.goal = std::pair<rapar::VarId, rapar::Value>{var, e.goal_val};
  }
  return b;
}

rapar::VerifierOptions OptionsFor(const Entry& e) {
  rapar::VerifierOptions o;
  o.backend = e.backend;
  return o;
}

std::string DumpRequests(const Workload& w) {
  std::string out;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Entry& e = w.entries[w.requests[i]];
    if (w.serve) {
      out += e.line;
    } else {
      rapar::JsonWriter j;
      j.BeginObject();
      j.Key("i").UInt(i);
      j.Key("id").String(e.id);
      j.Key("backend").String(BackendName(e.backend));
      j.Key("goal").String(e.goal_var.empty()
                               ? std::string("assert")
                               : e.goal_var + "=" +
                                     std::to_string(e.goal_val));
      j.Key("env").String(e.env_text);
      j.Key("dis").BeginArray();
      for (const std::string& d : e.dis_texts) j.String(d);
      j.EndArray();
      j.EndObject();
      out += j.TakeString();
    }
    out += '\n';
  }
  return out;
}

const std::vector<int>& BandSeeds(const GuessBand& band) {
  // Regenerate with `rabench_traced band NAME > NAME_seeds.inc`.
  static const std::vector<int> kGuessHeavy = {
#include "guess-heavy_seeds.inc"
  };
  static const std::vector<int> kServeDatalog = {
#include "serve-datalog_seeds.inc"
  };
  return std::string(band.name) == kServeDatalogBand.name ? kServeDatalog
                                                         : kGuessHeavy;
}

}  // namespace rabench
