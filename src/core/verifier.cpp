#include "core/verifier.h"

#include <chrono>
#include <map>
#include <stdexcept>

#include "analysis/prepass.h"
#include "common/strings.h"
#include "core/trace_render.h"
#include "depgraph/dep_graph.h"
#include "encoding/datalog_verifier.h"
#include "ra/explorer.h"
#include "simplified/explorer.h"
#include "simplified/witness_min.h"
#include "tmai/certcheck.h"
#include "tmai/tmai.h"

namespace rapar {

namespace {

namespace metric = obs::metric;

// Verdict::stopped_phase of a Datalog scan that --scan-limit stopped: a
// requested stop, not an expired deadline.
constexpr char kScanLimitPhase[] = "scan-limit";
// Verdict::stopped_phase of a TMAI fixpoint that did not converge within
// tmai.max_iterations; TMAI reads no deadline.
constexpr char kFixpointPhase[] = "fixpoint";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

PreparedSystem Prepare(const ParamSystem& system,
                       std::optional<std::pair<VarId, Value>> goal,
                       const VerifierOptions& options,
                       obs::Telemetry& telemetry) {
  obs::ScopedSpan span(options.obs.trace, "prepass");
  const auto start = std::chrono::steady_clock::now();
  PreparedSystem p = PrepareSystem(
      system.simpl(), options.enable_prepass,
      goal.has_value() ? goal->first : VarId::Invalid());
  if (options.enable_prepass) {
    telemetry.SetCounter(metric::kPrepassDeadEdges,
                         p.stats.dead_edges_removed);
    telemetry.SetCounter(metric::kPrepassGuardsFolded,
                         p.stats.guards_folded);
    telemetry.SetCounter(metric::kPrepassStoresSliced,
                         p.stats.stores_sliced);
    telemetry.SetCounter(metric::kPrepassAssignsDropped,
                         p.stats.assigns_dropped);
  }
  telemetry.SetGauge(metric::kPhasePrepassMs, MsSince(start));
  return p;
}

void ExportDatalogStats(const DatalogVerdict& dv, obs::Telemetry& t) {
  t.SetCounter(metric::kGuesses, dv.guesses);
  t.SetCounter(metric::kQueries, dv.queries_evaluated);
  t.SetCounter(metric::kSolvesSkipped, dv.solves_skipped);
  t.SetCounter(metric::kSolvesShared, dv.solves_shared);
  t.SetCounter(metric::kTuples, dv.total_tuples);
  t.SetCounter(metric::kRulesEmitted, dv.total_rules);
  t.SetCounter(metric::kRulesEvaluated, dv.total_rules_after);
  if (dv.budget_aborted_guess != kNoGuessIndex) {
    t.SetCounter(metric::kBudgetAbortedGuess, dv.budget_aborted_guess);
  }
  t.SetCounter(metric::kRuleFirings, dv.rule_firings);
  t.SetCounter(metric::kJoinAttempts, dv.join_attempts);
  t.SetCounter(metric::kIndexProbes, dv.index_probes);
  t.SetCounter(metric::kIndexHits, dv.index_hits);
  t.SetCounter(metric::kIndexBuilds, dv.index_builds);
  const dlopt::DlOptStats& o = dv.dlopt;
  t.SetCounter(metric::kDlOptRulesBefore, o.rules_before);
  t.SetCounter(metric::kDlOptRulesAfter, o.rules_after);
  t.SetCounter(metric::kDlOptUnproductive, o.unproductive_removed);
  t.SetCounter(metric::kDlOptUnreachable, o.unreachable_removed);
  t.SetCounter(metric::kDlOptDemand, o.demand_removed);
  t.SetCounter(metric::kDlOptDuplicates, o.duplicates_removed);
  t.SetCounter(metric::kDlOptCopyAliased, o.copy_aliased_removed);
  t.SetCounter(metric::kDlOptPredsBefore, o.preds_before);
  t.SetCounter(metric::kDlOptPredsAfter, o.preds_after);
  t.SetGauge(metric::kPhaseMakePMs, dv.makep_ms);
  t.SetGauge(metric::kPhaseDlOptMs, dv.dlopt_ms);
  t.SetGauge(metric::kPhaseEvalMs, dv.eval_ms);
  // Checkpoint metrics are activity-gated (like kBudgetAbortedGuess) so
  // default envelopes — and the goldens over them — are byte-for-byte
  // unchanged.
  if (dv.resume_offset != 0) {
    t.SetCounter(metric::kCheckpointResumeOffset, dv.resume_offset);
  }
  if (dv.checkpoint_writes != 0) {
    t.SetCounter(metric::kCheckpointWrites, dv.checkpoint_writes);
  }
}

// ToString's readers of the registry: the pre-pass and dlopt blocks
// print through the stats structs' own formatting.
PrepassStats PrepassOf(const obs::Telemetry& t) {
  PrepassStats s;
  s.dead_edges_removed = t.counter(metric::kPrepassDeadEdges);
  s.guards_folded = t.counter(metric::kPrepassGuardsFolded);
  s.stores_sliced = t.counter(metric::kPrepassStoresSliced);
  s.assigns_dropped = t.counter(metric::kPrepassAssignsDropped);
  return s;
}

dlopt::DlOptStats DlOptOf(const obs::Telemetry& t) {
  dlopt::DlOptStats s;
  s.rules_before = t.counter(metric::kDlOptRulesBefore);
  s.rules_after = t.counter(metric::kDlOptRulesAfter);
  s.unproductive_removed = t.counter(metric::kDlOptUnproductive);
  s.unreachable_removed = t.counter(metric::kDlOptUnreachable);
  s.demand_removed = t.counter(metric::kDlOptDemand);
  s.duplicates_removed = t.counter(metric::kDlOptDuplicates);
  s.copy_aliased_removed = t.counter(metric::kDlOptCopyAliased);
  s.preds_before = t.counter(metric::kDlOptPredsBefore);
  s.preds_after = t.counter(metric::kDlOptPredsAfter);
  return s;
}

}  // namespace

std::string Verdict::ToString() const {
  const obs::Telemetry& t = telemetry;
  std::string out;
  switch (result) {
    case Result::kSafe:
      out = "SAFE";
      break;
    case Result::kUnsafe:
      out = "UNSAFE";
      break;
    case Result::kUnknown:
      out = "UNKNOWN";
      break;
  }
  out += StrCat(" (states=", t.counter(metric::kStates));
  const std::uint64_t guesses = t.counter(metric::kGuesses);
  if (guesses > 0) out += StrCat(", guesses=", guesses);
  const std::uint64_t tuples = t.counter(metric::kTuples);
  if (tuples > 0) out += StrCat(", tuples=", tuples);
  if (env_thread_bound.has_value()) {
    out += StrCat(", env-thread bound=", *env_thread_bound);
  }
  out += ")";
  const PrepassStats pre = PrepassOf(t);
  if (pre.Any()) out += StrCat(" [prepass: ", pre.ToString(), "]");
  const dlopt::DlOptStats opt = DlOptOf(t);
  if (opt.Any()) out += StrCat(" [dlopt: ", opt.ToString(), "]");
  const std::uint64_t firings = t.counter(metric::kRuleFirings);
  const std::uint64_t joins = t.counter(metric::kJoinAttempts);
  if (firings > 0 || joins > 0) {
    out += StrCat(" [engine: firings=", firings, ", joins=", joins);
    const std::uint64_t builds = t.counter(metric::kIndexBuilds);
    if (builds > 0) {
      out += StrCat(", index probes=", t.counter(metric::kIndexProbes),
                    " hits=", t.counter(metric::kIndexHits),
                    " builds=", builds);
    }
    out += "]";
  }
  if (t.Has(metric::kBudgetAbortedGuess)) {
    out += StrCat(" [budget aborted at guess ",
                  t.counter(metric::kBudgetAbortedGuess), "]");
  }
  if (stopped_phase == kScanLimitPhase) {
    out += " [scan limit hit]";
  } else if (stopped_phase == kFixpointPhase) {
    out += " [fixpoint did not converge]";
  } else if (!stopped_phase.empty()) {
    out += StrCat(" [deadline hit in ", stopped_phase, "]");
  }
  return out;
}

// --- backend dispatch targets ----------------------------------------------
// The per-backend entry points behind SafetyVerifier::Run. Formerly the
// private RunSimplified/RunDatalog/... members; file-local free functions
// now that Run(goal, options) is the one public door.

namespace {

Verdict RunSimplified(const ParamSystem& system,
                      std::optional<std::pair<VarId, Value>> goal,
                      const VerifierOptions& options) {
  Verdict v;
  v.backend = "simplified";
  const PreparedSystem prep = Prepare(system, goal, options, v.telemetry);
  SimplExplorer explorer(prep.simpl);
  SimplExplorerOptions opts;
  opts.goal = goal;
  opts.max_states = options.max_states;
  opts.max_depth = options.max_depth;
  opts.time_budget_ms = options.time_budget_ms;
  SimplResult r;
  {
    obs::ScopedSpan span(options.obs.trace, "explore");
    const auto start = std::chrono::steady_clock::now();
    r = explorer.Check(opts);
    v.telemetry.SetGauge(metric::kPhaseSolveMs, MsSince(start));
  }

  v.telemetry.SetCounter(metric::kStates, r.states);
  if (r.budget_hit) v.stopped_phase = "explore";
  const bool hit = goal.has_value() ? r.goal_reached : r.violation;
  if (hit) {
    obs::ScopedSpan span(options.obs.trace, "witness");
    const auto start = std::chrono::steady_clock::now();
    v.result = Verdict::Result::kUnsafe;
    // Strip saturation noise from the witness (bounded effort).
    if (r.witness.size() <= 400) {
      const WitnessProperty property =
          goal.has_value() ? GoalProperty(goal->first, goal->second)
                           : ViolationProperty();
      r.witness =
          MinimizeWitness(prep.simpl, std::move(r.witness), property);
    }
    TraceRenderOptions render;
    render.elide_silent = true;
    v.witness = RenderTrace(prep.simpl, r.witness, render);
    // §4.3 env-thread bound from the witness dependency graph.
    if (!r.witness.empty()) {
      std::map<std::uint32_t, int> final_reads;
      DepGraph g = DepGraph::Build(prep.simpl, r.witness, &final_reads);
      long long total = 0;
      if (goal.has_value()) {
        const long long c = g.CostOfMessage(goal->first, goal->second);
        if (c >= 0) total = c;
      } else {
        // depend(violation): the reads of the asserting actor, costed.
        const bool env_actor =
            r.witness.back().actor == SimplStep::Actor::kEnv;
        total = g.CostOfReads(final_reads, env_actor);
      }
      v.env_thread_bound = total;
    }
    v.telemetry.SetGauge(metric::kPhaseWitnessMs, MsSince(start));
  } else if (r.exhaustive) {
    v.result = Verdict::Result::kSafe;
  } else {
    v.result = Verdict::Result::kUnknown;
  }
  return v;
}

Verdict RunDatalog(const ParamSystem& system,
                   std::optional<std::pair<VarId, Value>> goal,
                   const VerifierOptions& options) {
  Verdict v;
  v.backend = "datalog";
  const PreparedSystem prep = Prepare(system, goal, options, v.telemetry);
  DatalogVerifierOptions opts;
  opts.goal_message = goal;
  opts.guess.max_guesses = options.max_guesses;
  opts.guess.start_index = options.datalog.start_index;
  opts.checkpoint_every = options.datalog.checkpoint_every;
  opts.checkpoint_sink = options.datalog.checkpoint_sink;
  opts.scan_limit = options.datalog.scan_limit;
  opts.time_budget_ms = options.time_budget_ms;
  opts.trace = options.obs.trace;
  DatalogVerdict dv;
  {
    obs::ScopedSpan span(options.obs.trace, "solve");
    const auto start = std::chrono::steady_clock::now();
    dv = DatalogVerify(prep.simpl, opts);
    v.telemetry.SetGauge(metric::kPhaseSolveMs, MsSince(start));
  }
  ExportDatalogStats(dv, v.telemetry);
  v.width_report = dv.width_report;
  if (dv.deadline_hit) {
    v.stopped_phase = "solve";
  } else if (dv.scan_limit_hit) {
    v.stopped_phase = kScanLimitPhase;
  }
  if (dv.unsafe) {
    v.result = Verdict::Result::kUnsafe;
    v.witness = dv.witness_guess;
  } else if (dv.exhaustive) {
    v.result = Verdict::Result::kSafe;
  } else {
    v.result = Verdict::Result::kUnknown;
  }
  return v;
}

Verdict RunConcrete(const ParamSystem& system,
                    std::optional<std::pair<VarId, Value>> goal,
                    const VerifierOptions& options) {
  const int env_threads = options.concrete.env_threads;
  if (env_threads < 1 ||
      env_threads > ConcreteBackendOptions::kMaxEnvThreads) {
    throw std::invalid_argument(
        StrCat("concrete.env_threads must be in [1, ",
               ConcreteBackendOptions::kMaxEnvThreads, "], got ",
               env_threads));
  }
  Verdict v;
  v.backend = "concrete";
  const PreparedSystem prep = Prepare(system, goal, options, v.telemetry);
  std::vector<const Cfa*> threads;
  for (int i = 0; i < env_threads; ++i) threads.push_back(prep.simpl.env);
  threads.insert(threads.end(), prep.simpl.dis.begin(),
                 prep.simpl.dis.end());
  RaExplorer explorer(
      threads, system.dom(), system.vars().size(),
      {0, static_cast<std::size_t>(env_threads)});
  RaExplorerOptions opts;
  opts.max_states = options.max_states;
  opts.max_depth = options.max_depth;
  opts.time_budget_ms = options.time_budget_ms;
  opts.stop_on_violation = !goal.has_value();
  RaResult r;
  {
    obs::ScopedSpan span(options.obs.trace, "explore");
    const auto start = std::chrono::steady_clock::now();
    r = explorer.CheckSafety(opts);
    v.telemetry.SetGauge(metric::kPhaseSolveMs, MsSince(start));
  }

  v.telemetry.SetCounter(metric::kStates, r.states);
  if (r.budget_hit) v.stopped_phase = "explore";
  bool hit;
  if (goal.has_value()) {
    hit = explorer.generated_messages().count(
              {goal->first.value(), goal->second}) > 0;
  } else {
    hit = r.violation;
  }
  if (hit) {
    obs::ScopedSpan span(options.obs.trace, "witness");
    const auto start = std::chrono::steady_clock::now();
    v.result = Verdict::Result::kUnsafe;
    std::string w;
    for (const RaTraceStep& s : r.witness) {
      w += StrCat("t", s.thread, ": ", s.instr, "\n");
    }
    v.witness = std::move(w);
    v.telemetry.SetGauge(metric::kPhaseWitnessMs, MsSince(start));
  } else if (r.exhaustive) {
    // Safe *for this instance size only* — parameterized safety does not
    // follow; callers must treat kSafe from the concrete backend as
    // instance-level.
    v.result = Verdict::Result::kSafe;
  } else {
    v.result = Verdict::Result::kUnknown;
  }
  return v;
}

Verdict RunTmai(const ParamSystem& system,
                std::optional<std::pair<VarId, Value>> goal,
                const VerifierOptions& options) {
  Verdict v;
  v.backend = "tmai";
  const PreparedSystem prep = Prepare(system, goal, options, v.telemetry);
  const tmai::TmaiSystem tsys = tmai::TmaiSystem::FromSimpl(prep.simpl);
  tmai::TmaiGoal tgoal;
  if (goal.has_value()) {
    tgoal.check_assert = false;
    tgoal.var = goal->first;
    tgoal.val = goal->second;
  }
  tmai::TmaiOptions topts;
  topts.max_iterations = TmaiBackendOptions::max_iterations;
  topts.widening_delay = TmaiBackendOptions::widening_delay;
  topts.value_set_limit = TmaiBackendOptions::value_set_limit;
  topts.domain = TmaiBackendOptions::domain;
  tmai::TmaiResult r;
  {
    obs::ScopedSpan span(options.obs.trace, "fixpoint");
    const auto start = std::chrono::steady_clock::now();
    r = tmai::RunTmai(tsys, tgoal, topts);
    v.telemetry.SetGauge(metric::kPhaseSolveMs, MsSince(start));
  }
  // A certificate leaves the verifier only once the independent checker
  // (tmai/certcheck.h) has accepted it against the system it was proved
  // on; a proof the checker rejects is no proof, so the answer degrades
  // to kUnknown.
  if (r.certificate != nullptr) {
    obs::ScopedSpan span(options.obs.trace, "certcheck");
    if (!tmai::CheckCertificate(tsys, *r.certificate).valid) {
      r.safe = false;
      r.certificate = nullptr;
    }
  }
  v.telemetry.SetCounter(metric::kTmaiIterations, r.iterations);
  v.telemetry.SetCounter(metric::kTmaiConverged, r.converged ? 1 : 0);
  v.telemetry.SetCounter(metric::kTmaiMaxDisjuncts, r.max_disjuncts_seen);
  v.telemetry.SetCounter(metric::kTmaiThreads, tsys.threads.size());
  // tmai.relational.* appear only when the relational engine actually ran
  // (the kAuto retry after a converged small-set kUnknown), keeping
  // small-set envelopes byte-for-byte unchanged.
  if (r.domain_used == tmai::Domain::kRelational || r.strengthen_rounds > 0 ||
      r.pruned_reads > 0) {
    v.telemetry.SetCounter(metric::kTmaiRelationalRounds, r.strengthen_rounds);
    v.telemetry.SetCounter(metric::kTmaiRelationalPrunedReads,
                           r.pruned_reads);
  }
  v.certificate = r.certificate;
  if (v.certificate != nullptr) {
    v.telemetry.SetCounter(metric::kTmaiCertificate, 1);
  }
  if (r.safe) {
    v.result = Verdict::Result::kSafe;
  } else {
    // The abstraction reached the goal, or the fixpoint was cut short —
    // either way TMAI cannot conclude anything (it never answers unsafe).
    v.result = Verdict::Result::kUnknown;
    if (!r.converged) v.stopped_phase = kFixpointPhase;
  }
  return v;
}

// The portfolio cascade, on the calling thread. TMAI goes first: it is
// sound for kSafe only and finishes in microseconds on typical inputs.
// Whatever it does not prove goes to the exact Datalog backend, whose
// verdict is returned unchanged but for its backend name (DESIGN.md §10,
// §15). The trace recorder stays attached to both stages.
Verdict RunPortfolio(const ParamSystem& system,
                     std::optional<std::pair<VarId, Value>> goal,
                     const VerifierOptions& options) {
  const auto tmai_start = std::chrono::steady_clock::now();
  Verdict v = RunTmai(system, goal, options);
  const double tmai_ms = MsSince(tmai_start);
  if (v.safe()) {
    v.backend = "portfolio:tmai";
  } else {
    v = RunDatalog(system, goal, options);
    v.backend = "portfolio:datalog";
  }
  v.telemetry.SetGauge(metric::kPortfolioTmaiMs, tmai_ms);
  return v;
}

}  // namespace

Verdict SafetyVerifier::Run(std::optional<std::pair<VarId, Value>> goal,
                            const VerifierOptions& options) const {
  const char* span_name = "verify";
  switch (options.backend) {
    case Backend::kSimplifiedExplorer:
      span_name = "verify:simplified";
      break;
    case Backend::kDatalog:
      span_name = "verify:datalog";
      break;
    case Backend::kConcrete:
      span_name = "verify:concrete";
      break;
    case Backend::kTmai:
      span_name = "verify:tmai";
      break;
    case Backend::kPortfolio:
      span_name = "verify:portfolio";
      break;
  }
  const auto start = std::chrono::steady_clock::now();
  Verdict v;
  {
    obs::ScopedSpan span(options.obs.trace, span_name);
    switch (options.backend) {
      case Backend::kSimplifiedExplorer:
        v = RunSimplified(system_, goal, options);
        break;
      case Backend::kDatalog:
        v = RunDatalog(system_, goal, options);
        break;
      case Backend::kConcrete:
        v = RunConcrete(system_, goal, options);
        break;
      case Backend::kTmai:
        v = RunTmai(system_, goal, options);
        break;
      case Backend::kPortfolio:
        v = RunPortfolio(system_, goal, options);
        break;
    }
  }
  // A stop that fired after the answer was found cut nothing short: a
  // kSafe or kUnsafe verdict is definitive, so only kUnknown names the
  // phase that stopped.
  if (v.result != Verdict::Result::kUnknown) v.stopped_phase.clear();
  v.telemetry.SetGauge(obs::metric::kPhaseTotalMs, MsSince(start));
  return v;
}

}  // namespace rapar
