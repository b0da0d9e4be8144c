// rabench_traced: the per-layer side of the benchmark. It replays each
// request through the public functions of every layer of the Theorem 4.1
// pipeline, timing each call in a span recorded from this file (no span
// is added inside src/), and cross-checks the replay's counts against the
// telemetry of the facade's own verdict.
//
//   rabench_traced trace --workload W --seed N --seconds S --out FILE
//                        --trace-file FILE [--from I] [--poisoned E,...]
//   rabench_traced band NAME  (prints the seeds of a GuessBand)
//
// The trace replays one pass over the corpus (every entry once, in the
// seeded order) or the first two serve streams, in order, since hits and
// misses depend on it. One JSON record
// per request goes to --out; rabench/run.py turns them into the
// per-layer metrics.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/prepass.h"
#include "common/json.h"
#include "core/result_json.h"
#include "core/serve.h"
#include "core/trace_render.h"
#include "core/verifier.h"
#include "datalog/engine.h"
#include "depgraph/dep_graph.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"
#include "driver_util.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "obs/trace.h"
#include "simplified/explorer.h"
#include "simplified/witness_min.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"
#include "workloads.h"

namespace rabench {
namespace {

using rapar::Backend;
using Goal = std::optional<std::pair<rapar::VarId, rapar::Value>>;

// The spans. A layer's self time is its span minus its child spans.
enum Layer : int {
  kVerdict,  // root of one replayed verdict
  kPrepass,
  kEnumerate,
  kMakeP,
  kOptimize,
  kHints,
  kEval,
  kExplore,
  kWitness,
  kDepCost,
  kTmaiFixpoint,
  kCertcheck,
  kServe,
  kJsonParse,
  kParse,
  kRender,
  kGenerate,
  kLayers
};
constexpr std::array<const char*, kLayers> kLayerNames = {
    "verdict",          "analysis.prepass",   "encoding.enumerate",
    "encoding.makep",   "dlopt.optimize",     "dlopt.hints",
    "datalog.eval",     "simplified.explore", "simplified.witness",
    "depgraph.cost",    "tmai.fixpoint",      "tmai.certcheck",
    "core.serve",       "common.json_parse",  "lang.parse",
    "core.render",      "lowerbound.generate"};

// Span recorder: process-CPU self/total time per layer for the current
// request, with every span also kept in an obs::TraceRecorder (wall
// clock, request id and CPU time as args) for the trace file.
class Tracer {
 public:
  explicit Tracer(rapar::obs::TraceRecorder* recorder) : rec_(recorder) {}

  void StartRequest(std::size_t id) {
    req_ = id;
    self_ns_.fill(0);
    total_ns_.fill(0);
    calls_.fill(0);
  }

  class Span {
   public:
    Span(Tracer& t, Layer layer) : t_(t) { t_.Open(layer); }
    ~Span() { t_.Close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
  };

  std::int64_t self_ns(Layer l) const { return self_ns_[l]; }
  std::int64_t total_ns(Layer l) const { return total_ns_[l]; }
  std::int64_t calls(Layer l) const { return calls_[l]; }

 private:
  struct Frame {
    Layer layer;
    std::int64_t cpu0;
    std::uint64_t wall0;
    std::int64_t child_ns;
  };

  void Open(Layer l) { stack_.push_back({l, CpuNs(), rec_->NowUs(), 0}); }

  void Close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = CpuNs() - f.cpu0;
    const std::uint64_t wall = rec_->NowUs() - f.wall0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    self_ns_[f.layer] += dur - f.child_ns;
    total_ns_[f.layer] += dur;
    ++calls_[f.layer];
    rec_->RecordComplete(kLayerNames[f.layer], f.wall0, wall,
                         "{\"req\":" + std::to_string(req_) +
                             ",\"cpu_ns\":" + std::to_string(dur) + "}");
  }

  rapar::obs::TraceRecorder* rec_;
  std::size_t req_ = 0;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::array<std::int64_t, kLayers> total_ns_{};
  std::array<std::int64_t, kLayers> calls_{};
};

// What a replay reproduced; compared field by field with the verdict.
struct Replay {
  rapar::Verdict::Result result = rapar::Verdict::Result::kUnknown;
  std::uint64_t guesses = 0;
  std::uint64_t tuples = 0;
  std::uint64_t firings = 0;
  std::uint64_t states = 0;
  std::uint64_t tmai_iterations = 0;
  std::uint64_t rules_emitted = 0;
  std::uint64_t rules_after = 0;
  std::uint64_t index_probes = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t join_attempts = 0;
  std::uint64_t budget_aborts = 0;
};

// The pre-pass as SafetyVerifier runs it: the goal variable is protected,
// and the pruned CFAs replace the originals only when something changed.
struct Prepared {
  rapar::SimplSystem simpl;
  std::unique_ptr<rapar::Cfa> env;
  std::vector<std::unique_ptr<rapar::Cfa>> dis;
};

Prepared Prepare(const rapar::SimplSystem& base, rapar::VarId protect) {
  Prepared p;
  p.simpl = base;
  rapar::PrepassResult r = rapar::RunPrepass(*base.env, base.dis, protect);
  if (!r.stats.Any()) return p;
  p.env = std::make_unique<rapar::Cfa>(std::move(r.env));
  p.simpl.env = p.env.get();
  p.simpl.dis.clear();
  for (rapar::Cfa& d : r.dis) {
    p.dis.push_back(std::make_unique<rapar::Cfa>(std::move(d)));
    p.simpl.dis.push_back(p.dis.back().get());
  }
  return p;
}

Prepared TracedPrepare(Tracer& t, const rapar::ParamSystem& sys,
                       const Goal& goal) {
  Tracer::Span s(t, kPrepass);
  return Prepare(sys.simpl(),
                 goal.has_value() ? goal->first : rapar::VarId::Invalid());
}

// The serial guess loop of encoding/datalog_verifier.cpp, from outside:
// the cursor is drained first so enumeration CPU (producer thread
// included) lands in its own span, then each guess goes makeP → dlopt →
// join hints → eval on one engine, stopping at the first terminating one.
Replay ReplayDatalog(Tracer& t, const rapar::ParamSystem& sys,
                     const Goal& goal, const rapar::VerifierOptions& vo) {
  Replay out;
  const Prepared prep = TracedPrepare(t, sys, goal);
  std::vector<rapar::IndexedGuess> guesses;
  std::size_t produced = 0;
  bool complete = false;
  {
    Tracer::Span s(t, kEnumerate);
    rapar::GuessEnumOptions ge;
    ge.max_guesses = vo.max_guesses;
    rapar::DisGuessCursor cursor(prep.simpl, ge);
    while (cursor.NextChunk(vo.datalog.batch_size, &guesses) != 0) {
    }
    produced = cursor.produced();
    complete = cursor.complete();
  }
  rapar::MakePOptions mp;
  mp.goal_message = goal;
  rapar::dl::EvalOptions eval;
  eval.max_tuples = rapar::DatalogVerifierOptions{}.max_tuples_per_query;
  eval.engine = vo.datalog.engine;
  const rapar::dlopt::DlOptOptions dlo;
  rapar::dl::Engine engine;
  bool derived = false;
  bool aborted = false;
  out.guesses = produced;
  for (std::size_t k = 0; k < guesses.size(); ++k) {
    rapar::MakePResult q = [&] {
      Tracer::Span s(t, kMakeP);
      return rapar::MakeP(prep.simpl, guesses[k].guess, mp);
    }();
    out.rules_emitted += q.prog->size();
    rapar::dlopt::OptimizeResult opt = [&] {
      Tracer::Span s(t, kOptimize);
      return rapar::dlopt::OptimizeForQuery(*q.prog, q.goal, dlo);
    }();
    out.rules_after += opt.prog.size();
    rapar::dl::JoinHints hints;
    {
      Tracer::Span s(t, kHints);
      const rapar::dlopt::PredGraph graph =
          rapar::dlopt::PredGraph::Build(opt.prog);
      hints = rapar::dlopt::MakeJoinHints(graph);
      if (k == 0) {
        // The verifier reports the first guess's width classification.
        rapar::dlopt::AnalyzeWidth(opt.prog, graph, q.goal.pred)
            .ToString(opt.prog, graph);
      }
    }
    eval.hints = &hints;
    {
      Tracer::Span s(t, kEval);
      try {
        derived = engine.Solve(opt.prog, q.goal, eval);
      } catch (const rapar::dl::BudgetExceeded&) {
        aborted = true;
      }
    }
    const rapar::dl::EvalStats& st = engine.last_stats();
    out.tuples += st.tuples;
    out.firings += st.rule_firings;
    out.index_probes += st.index_probes;
    out.index_hits += st.index_hits;
    out.join_attempts += st.join_attempts;
    if (derived || aborted) {
      out.guesses = k + 1;
      break;
    }
  }
  out.budget_aborts = aborted ? 1 : 0;
  if (derived) {
    out.result = rapar::Verdict::Result::kUnsafe;
  } else if (!aborted && complete) {
    out.result = rapar::Verdict::Result::kSafe;
  }
  return out;
}

// RunSimplified from outside: explore, then on UNSAFE minimize and render
// the witness and cost it on the dependency graph (§4.3).
Replay ReplaySimplified(Tracer& t, const rapar::ParamSystem& sys,
                        const Goal& goal, const rapar::VerifierOptions& vo) {
  Replay out;
  const Prepared prep = TracedPrepare(t, sys, goal);
  rapar::SimplResult r;
  {
    Tracer::Span s(t, kExplore);
    rapar::SimplExplorer explorer(prep.simpl);
    rapar::SimplExplorerOptions opts;
    opts.goal = goal;
    opts.max_states = vo.max_states;
    opts.max_depth = vo.max_depth;
    r = explorer.Check(opts);
  }
  out.states = r.states;
  const bool hit = goal.has_value() ? r.goal_reached : r.violation;
  if (hit) {
    {
      Tracer::Span s(t, kWitness);
      if (r.witness.size() <= 400) {
        const rapar::WitnessProperty property =
            goal.has_value() ? rapar::GoalProperty(goal->first, goal->second)
                             : rapar::ViolationProperty();
        r.witness =
            rapar::MinimizeWitness(prep.simpl, std::move(r.witness), property);
      }
      rapar::TraceRenderOptions render;
      render.elide_silent = true;
      rapar::RenderTrace(prep.simpl, r.witness, render);
    }
    if (!r.witness.empty()) {
      Tracer::Span s(t, kDepCost);
      std::map<std::uint32_t, int> final_reads;
      const rapar::DepGraph g =
          rapar::DepGraph::Build(prep.simpl, r.witness, &final_reads);
      if (goal.has_value()) {
        g.CostOfMessage(goal->first, goal->second);
      } else {
        g.CostOfReads(final_reads,
                      r.witness.back().actor == rapar::SimplStep::Actor::kEnv);
      }
    }
    out.result = rapar::Verdict::Result::kUnsafe;
  } else if (r.exhaustive) {
    out.result = rapar::Verdict::Result::kSafe;
  }
  return out;
}

rapar::tmai::TmaiOptions TmaiOptionsFor(const rapar::VerifierOptions& vo) {
  rapar::tmai::TmaiOptions o;
  o.max_iterations = vo.tmai.max_iterations;
  o.widening_delay = vo.tmai.widening_delay;
  o.value_set_limit = vo.tmai.value_set_limit;
  o.domain = vo.tmai.domain;
  return o;
}

Replay ReplayTmai(Tracer& t, const rapar::ParamSystem& sys, const Goal& goal,
                  const rapar::VerifierOptions& vo) {
  Replay out;
  const Prepared prep = TracedPrepare(t, sys, goal);
  Tracer::Span s(t, kTmaiFixpoint);
  const rapar::tmai::TmaiSystem tsys =
      rapar::tmai::TmaiSystem::FromSimpl(prep.simpl);
  rapar::tmai::TmaiGoal tgoal;
  if (goal.has_value()) {
    tgoal.check_assert = false;
    tgoal.var = goal->first;
    tgoal.val = goal->second;
  }
  const rapar::tmai::TmaiResult r =
      rapar::tmai::RunTmai(tsys, tgoal, TmaiOptionsFor(vo));
  out.tmai_iterations = static_cast<std::uint64_t>(r.iterations);
  if (r.safe) out.result = rapar::Verdict::Result::kSafe;
  return out;
}

Replay ReplayVerdict(Tracer& t, const rapar::ParamSystem& sys,
                     const Goal& goal, const rapar::VerifierOptions& vo) {
  Tracer::Span root(t, kVerdict);
  switch (vo.backend) {
    case Backend::kDatalog:
      return ReplayDatalog(t, sys, goal, vo);
    case Backend::kTmai:
      return ReplayTmai(t, sys, goal, vo);
    default:
      return ReplaySimplified(t, sys, goal, vo);
  }
}

// The verdict's own numbers, from the facade's Verdict or a serve
// envelope's telemetry.
struct Reference {
  std::string verdict;
  std::uint64_t guesses = 0, tuples = 0, firings = 0, states = 0;
  std::uint64_t tmai_iterations = 0;
};

Reference FromVerdict(const rapar::Verdict& v) {
  const rapar::obs::Telemetry& t = v.telemetry;
  return {rapar::VerdictName(v.result),   t.counter("verify.guesses"),
          t.counter("datalog.tuples"),    t.counter("engine.rule_firings"),
          t.counter("verify.states"),     t.counter("tmai.iterations")};
}

// Empty when the replay reproduced the reference exactly.
std::string Compare(const Replay& r, const Reference& ref) {
  std::string diff;
  const auto check = [&](const char* what, std::uint64_t got,
                         std::uint64_t want) {
    if (got != want) {
      diff += std::string(what) + " " + std::to_string(got) +
              " != " + std::to_string(want) + "; ";
    }
  };
  if (rapar::VerdictName(r.result) != ref.verdict) {
    diff += std::string("verdict ") + rapar::VerdictName(r.result) +
            " != " + ref.verdict + "; ";
  }
  check("verify.guesses", r.guesses, ref.guesses);
  check("datalog.tuples", r.tuples, ref.tuples);
  check("engine.rule_firings", r.firings, ref.firings);
  check("verify.states", r.states, ref.states);
  check("tmai.iterations", r.tmai_iterations, ref.tmai_iterations);
  return diff;
}

// What a serve request's record adds: the cache marker, HandleLine's CPU
// and the part of it the timed pieces do not account for.
struct ServeInfo {
  std::string cache;  // "hit", "miss", or empty for an error envelope
  std::int64_t handle_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t evictions = 0;
};

void WriteRecord(RecordFile& out, std::size_t i, std::uint32_t e,
                 const Tracer& t, const Replay* r, const std::string& diff,
                 std::int64_t untraced_ns, const ServeInfo* serve) {
  rapar::JsonWriter j;
  j.BeginObject().Key("i").UInt(i).Key("e").UInt(e);
  j.Key("self_ns").BeginObject();
  for (int l = 0; l < kLayers; ++l) {
    if (t.calls(static_cast<Layer>(l)) != 0) {
      j.Key(kLayerNames[l]).Int(t.self_ns(static_cast<Layer>(l)));
    }
  }
  j.EndObject();
  j.Key("calls").BeginObject();
  for (int l = 0; l < kLayers; ++l) {
    if (t.calls(static_cast<Layer>(l)) != 0) {
      j.Key(kLayerNames[l]).Int(t.calls(static_cast<Layer>(l)));
    }
  }
  j.EndObject();
  if (r != nullptr) {
    j.Key("replayed").Bool(true);
    j.Key("verdict").String(rapar::VerdictName(r->result));
    j.Key("traced_ns").Int(t.total_ns(kVerdict));
    j.Key("untraced_ns").Int(untraced_ns);
    j.Key("guesses").UInt(r->guesses).Key("tuples").UInt(r->tuples);
    j.Key("firings").UInt(r->firings).Key("states").UInt(r->states);
    j.Key("rules_emitted").UInt(r->rules_emitted);
    j.Key("rules_after").UInt(r->rules_after);
    j.Key("index_probes").UInt(r->index_probes);
    j.Key("index_hits").UInt(r->index_hits);
    j.Key("join_attempts").UInt(r->join_attempts);
    j.Key("budget_aborts").UInt(r->budget_aborts);
  }
  if (!diff.empty()) j.Key("mismatch").String(diff);
  if (serve != nullptr) {
    j.Key("cache").String(serve->cache);
    j.Key("handle_ns").Int(serve->handle_ns);
    j.Key("serve_self_ns").Int(serve->self_ns);
    j.Key("evictions").UInt(serve->evictions);
    if (serve->cache.empty()) j.Key("failed").String("error envelope");
  }
  j.EndObject();
  out.Line(j.TakeString());
}

// One corpus pass: regenerate (TQBF) and parse each entry, run the facade
// untraced for the reference verdict, then replay it traced.
void TraceCorpus(const Workload& w, std::size_t from, std::size_t n,
                 Tracer& tracer, RecordFile& out) {
  for (std::size_t i = from; i < n; ++i) {
    const std::uint32_t e = w.requests[i];
    const Entry& entry = w.entries[e];
    tracer.StartRequest(i);
    if (entry.id.rfind("qbf:", 0) == 0) {
      Tracer::Span s(tracer, kGenerate);
      TqbfEntry(std::stoi(entry.id.substr(4)));
    }
    BuiltEntry b = [&] {
      Tracer::Span s(tracer, kParse);
      return BuildEntry(entry);
    }();
    const rapar::VerifierOptions vo = OptionsFor(entry);
    const std::int64_t c0 = CpuNs();
    const rapar::Verdict v = rapar::SafetyVerifier(*b.system).Run(b.goal, vo);
    const std::int64_t untraced = CpuNs() - c0;
    const Replay r = ReplayVerdict(tracer, *b.system, b.goal, vo);
    WriteRecord(out, i, e, tracer, &r, Compare(r, FromVerdict(v)), untraced,
                nullptr);
  }
}

// The serve stream: HandleLine as the facade call, then the public pieces
// of the same line timed one by one. A miss is replayed layer by layer
// (and cross-checked against the envelope's telemetry); a TMAI-safe hit
// re-validates its certificate as the session does. What HandleLine spent
// beyond the pieces is the session's own work (core.serve.self).
void TraceServe(const Workload& w, std::size_t from, std::size_t n,
                const std::set<std::uint32_t>& poisoned, Tracer& tracer,
                RecordFile& out) {
  rapar::serve::ServeOptions so;
  so.threads = 1;
  auto session = std::make_unique<rapar::serve::ServeSession>(so);
  std::map<std::uint32_t, rapar::Verdict> memo;
  for (std::size_t i = from; i < n; ++i) {
    const std::uint32_t e = w.requests[i];
    if (i != from && std::binary_search(w.replicate_starts.begin(),
                                        w.replicate_starts.end(), i)) {
      session = std::make_unique<rapar::serve::ServeSession>(so);
      memo.clear();
    }
    if (poisoned.count(e) != 0) {
      rapar::JsonWriter j;
      j.BeginObject().Key("i").UInt(i).Key("e").UInt(e);
      j.Key("failed").String("poisoned").EndObject();
      out.Line(j.TakeString());
      continue;
    }
    const Entry& entry = w.entries[e];
    tracer.StartRequest(i);
    std::string resp;
    {
      Tracer::Span s(tracer, kServe);
      resp = session->HandleLine(entry.line);
    }
    {
      Tracer::Span s(tracer, kJsonParse);
      rapar::ParseJson(entry.line);
    }
    BuiltEntry b = [&] {
      Tracer::Span s(tracer, kParse);
      return BuildEntry(entry);
    }();
    const rapar::Expected<rapar::JsonValue> doc = rapar::ParseJson(resp);
    const rapar::JsonValue* cache_v =
        doc.ok() ? doc.value().Find("cache") : nullptr;
    const std::string cache =
        cache_v != nullptr && cache_v->is_string() ? cache_v->string : "";
    const rapar::JsonValue* telemetry =
        doc.ok() ? doc.value().Find("telemetry") : nullptr;
    const rapar::JsonValue* verdict_v =
        doc.ok() ? doc.value().Find("verdict") : nullptr;
    rapar::VerifierOptions vo = OptionsFor(entry);
    std::optional<Replay> replay;
    std::string diff;
    std::int64_t untraced = 0;
    if (cache == "miss") {
      const std::int64_t c0 = CpuNs();
      rapar::Verdict v = rapar::SafetyVerifier(*b.system).Run(b.goal, vo);
      untraced = CpuNs() - c0;
      replay = ReplayVerdict(tracer, *b.system, b.goal, vo);
      Reference ref;
      ref.verdict = verdict_v != nullptr && verdict_v->is_string()
                        ? verdict_v->string
                        : "";
      ref.guesses = JsonCounter(telemetry, "verify.guesses");
      ref.tuples = JsonCounter(telemetry, "datalog.tuples");
      ref.firings = JsonCounter(telemetry, "engine.rule_firings");
      ref.states = JsonCounter(telemetry, "verify.states");
      ref.tmai_iterations = JsonCounter(telemetry, "tmai.iterations");
      diff = Compare(*replay, ref);
      memo[e] = std::move(v);
    }
    const bool errored = cache.empty();
    auto it = memo.find(e);
    if (!errored && it != memo.end()) {
      const rapar::Verdict& v = it->second;
      {
        Tracer::Span s(tracer, kRender);
        rapar::EnvelopeExtras extras;
        extras.cache = cache;
        rapar::VerdictToJson(v, vo, entry.goal_var.empty() ? "verify" : "mg",
                             b.system->Signature(), false, &extras);
      }
      if (cache == "hit" && v.certificate != nullptr) {
        const rapar::tmai::Certificate& cert = *v.certificate;
        const Prepared prep = [&] {
          Tracer::Span s(tracer, kPrepass);
          return Prepare(b.system->simpl(),
                         cert.check_assert ? rapar::VarId::Invalid()
                                           : rapar::VarId(cert.goal_var));
        }();
        Tracer::Span s(tracer, kCertcheck);
        rapar::tmai::CheckCertificate(
            rapar::tmai::TmaiSystem::FromSimpl(prep.simpl), cert);
      }
    }
    std::int64_t pieces = 0;
    for (int l = 0; l < kLayers; ++l) {
      if (l != kServe) pieces += tracer.self_ns(static_cast<Layer>(l));
    }
    ServeInfo info;
    info.cache = cache;
    info.handle_ns = tracer.total_ns(kServe);
    info.self_ns = info.handle_ns - pieces;
    info.evictions = JsonCounter(telemetry, "cache.evictions");
    WriteRecord(out, i, e, tracer, replay ? &*replay : nullptr, diff, untraced,
                &info);
  }
}

int Trace(const Flags& f) {
  RecordFile out(f.Str("out"));
  const Workload w = MakeWorkload(f.Str("workload"), f.Int("seed", 1),
                                  static_cast<int>(f.Int("seconds", 10)));
  rapar::obs::TraceRecorder recorder;
  Tracer tracer(&recorder);
  const std::size_t from = static_cast<std::size_t>(f.Int("from", 0));
  // The trace replays one pass over the corpus, or the first two serve
  // streams: in the first, every request that aborts the daemon restarts
  // it with an empty cache; the second, where those requests are no
  // longer sent, fills the cache far enough to evict.
  const std::size_t replicates = w.serve ? 2 : 1;
  const std::size_t n = w.replicate_starts.size() > replicates
                            ? w.replicate_starts[replicates]
                            : w.requests.size();
  {
    rapar::JsonWriter j;
    j.BeginObject().Key("kind").String("setup").Key("order").BeginArray();
    for (std::size_t i = 0; i < n; ++i) j.UInt(w.requests[i]);
    j.EndArray().EndObject();
    out.Line(j.TakeString());
  }
  if (w.serve) {
    const std::vector<std::uint32_t> poisoned =
        ParseIndexList(f.Str("poisoned"));
    TraceServe(w, from, n, {poisoned.begin(), poisoned.end()}, tracer, out);
  } else {
    TraceCorpus(w, from, n, tracer, out);
  }
  const std::string trace_file = f.Str("trace-file");
  if (!trace_file.empty() && !recorder.WriteFile(trace_file)) {
    throw std::runtime_error("cannot write " + trace_file);
  }
  return 0;
}

// Prints the seeds of a GuessBand in the form workloads.cpp includes.
int Band(const std::string& name) {
  const GuessBand* band = nullptr;
  for (const GuessBand* b : {&kGuessHeavyBand, &kServeDatalogBand}) {
    if (name == b->name) band = b;
  }
  if (band == nullptr) throw std::invalid_argument("unknown band '" + name + "'");
  int printed = 0;
  for (int seed = band->first_seed; seed < band->seed_limit; ++seed) {
    const BuiltEntry b = BuildEntry(GeneratedEntry(seed, Backend::kDatalog));
    const Prepared prep = Prepare(b.system->simpl(), b.goal->first);
    rapar::DisGuessCursor cursor(prep.simpl, rapar::GuessEnumOptions{});
    std::vector<rapar::IndexedGuess> chunk;
    while (cursor.NextChunk(256, &chunk) != 0) chunk.clear();
    const std::size_t n = cursor.produced();
    if (n < band->min || n > band->max) continue;
    std::printf("%s%d,", printed % 12 == 0 ? (printed ? "\n    " : "    ")
                                           : " ",
                seed);
    ++printed;
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace rabench

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("missing mode");
    const std::string mode = argv[1];
    if (mode == "band" && argc == 3) return rabench::Band(argv[2]);
    const rabench::Flags f(argc, argv, 2);
    if (mode == "trace") return rabench::Trace(f);
    throw std::invalid_argument("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rabench_traced: %s\n", e.what());
    return 2;
  }
}
