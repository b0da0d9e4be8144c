// rapar_obs: the unified telemetry surface of the pipeline.
//
// A Telemetry object is an ordered registry of named metrics — uint64
// counters and double gauges — that replaces the flat, ever-growing
// counter fields previously bolted onto Verdict one PR at a time. Every
// stat the backends produce (search sizes, engine counters, prepass and
// dlopt pruning, per-phase wall-clock) lives here under a stable dotted
// name; `rapar_cli verify --metrics` and `--format=json` render it, and
// Verdict::ToString (core/verifier.cpp) reads its text from it.
//
// Names are part of the machine-readable schema: once shipped in a
// release they may be added to but not renamed, and a name goes only
// with the mechanism it counts (DESIGN.md §9 lists the retired ones).
// The canonical list is the `metric::` constants below, documented in
// DESIGN.md §9.
#ifndef RAPAR_OBS_TELEMETRY_H_
#define RAPAR_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rapar {
class JsonWriter;
}

namespace rapar::obs {

// Stable metric names. Grouped by producer:
//   verify.*   — backend-independent search statistics
//   engine.*   — Datalog evaluation core (dl::EvalStats)
//   datalog.*  — Theorem 4.1 driver (guess enumeration, makeP, budgets)
//   prepass.*  — CFA pre-pass pruning (PrepassStats)
//   dlopt.*    — query-driven program optimizer (dlopt::DlOptStats)
//   tmai.*     — thread-modular abstract interpretation (tmai/tmai.h)
//   portfolio.*— TMAI → Datalog cascade (what its TMAI stage cost)
//   phase.*    — per-phase wall-clock gauges, milliseconds
namespace metric {
inline constexpr char kStates[] = "verify.states";
inline constexpr char kGuesses[] = "verify.guesses";

inline constexpr char kTuples[] = "datalog.tuples";
// Scanned guesses are solved (datalog.queries), skipped without makeP,
// dlopt or eval because the guess skeleton already rules the goal out
// (datalog.solves_skipped; MakePEncoder::MayDerive), or shared: an
// earlier guess with the same class key was solved, and the guess takes
// its outcome and its derivation counts (datalog.solves_shared).
// datalog.tuples and engine.* sum over all three; rules_emitted,
// rules_evaluated and dlopt.* over the solved guesses only.
inline constexpr char kQueries[] = "datalog.queries";
inline constexpr char kSolvesSkipped[] = "datalog.solves_skipped";
inline constexpr char kSolvesShared[] = "datalog.solves_shared";
inline constexpr char kRulesEmitted[] = "datalog.rules_emitted";
inline constexpr char kRulesEvaluated[] = "datalog.rules_evaluated";
// Present only when a per-query tuple budget aborted the scan.
inline constexpr char kBudgetAbortedGuess[] = "datalog.budget_aborted_guess";

inline constexpr char kRuleFirings[] = "engine.rule_firings";
inline constexpr char kJoinAttempts[] = "engine.join_attempts";
inline constexpr char kIndexProbes[] = "engine.index_probes";
inline constexpr char kIndexHits[] = "engine.index_hits";
inline constexpr char kIndexBuilds[] = "engine.index_builds";

inline constexpr char kPrepassDeadEdges[] = "prepass.dead_edges_removed";
inline constexpr char kPrepassGuardsFolded[] = "prepass.guards_folded";
inline constexpr char kPrepassStoresSliced[] = "prepass.stores_sliced";
inline constexpr char kPrepassAssignsDropped[] = "prepass.assigns_dropped";

inline constexpr char kDlOptRulesBefore[] = "dlopt.rules_before";
inline constexpr char kDlOptRulesAfter[] = "dlopt.rules_after";
inline constexpr char kDlOptUnproductive[] = "dlopt.unproductive_removed";
inline constexpr char kDlOptUnreachable[] = "dlopt.unreachable_removed";
inline constexpr char kDlOptDemand[] = "dlopt.demand_removed";
inline constexpr char kDlOptCopyAliased[] = "dlopt.copy_aliased_removed";
inline constexpr char kDlOptPredsBefore[] = "dlopt.preds_before";
inline constexpr char kDlOptPredsAfter[] = "dlopt.preds_after";

inline constexpr char kTmaiIterations[] = "tmai.iterations";
inline constexpr char kTmaiConverged[] = "tmai.converged";
inline constexpr char kTmaiMaxDisjuncts[] = "tmai.max_disjuncts";
inline constexpr char kTmaiThreads[] = "tmai.threads";
// Relational-domain metrics (tmai/relational.h); present only when the
// relational engine actually ran (requested directly, or as the kAuto
// retry after a small-set kUnknown).
inline constexpr char kTmaiRelationalRounds[] = "tmai.relational.rounds";
inline constexpr char kTmaiRelationalPrunedReads[] =
    "tmai.relational.pruned_reads";
// 1 when the verdict carries an invariant certificate (tmai/certcheck.h);
// absent otherwise, so certificate-free envelopes are unchanged.
inline constexpr char kTmaiCertificate[] = "tmai.certificate";

// Certificate checker (rapar_cli certcheck / tmai/certcheck.h).
inline constexpr char kCertcheckValid[] = "certcheck.valid";
inline constexpr char kCertcheckNodes[] = "certcheck.nodes_checked";
inline constexpr char kCertcheckEdges[] = "certcheck.edges_checked";

// Portfolio cascade: wall-clock milliseconds of its TMAI stage, pre-pass
// included, whichever stage decided. The envelope's "backend" field
// names that stage ("portfolio:tmai" or "portfolio:datalog").
inline constexpr char kPortfolioTmaiMs[] = "portfolio.tmai_ms";

// Checkpoint/resume (DESIGN.md §8). Present only when a run resumes
// (nonzero checkpoint.resume_offset) or writes checkpoints, so default
// envelopes are unchanged.
inline constexpr char kCheckpointWrites[] = "checkpoint.writes";
inline constexpr char kCheckpointResumeOffset[] = "checkpoint.resume_offset";

// Verification service (core/serve.h). cache.* counters describe the
// content-addressed verdict cache: the session-cumulative totals are
// stamped on every response, plus a per-response cache.hit flag (1 when
// the envelope was replayed from the cache, 0 when the pipeline ran).
// cache.bytes is the current resident size estimate, not a cumulative
// count.
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheEvictions[] = "cache.evictions";
inline constexpr char kCacheBytes[] = "cache.bytes";
inline constexpr char kCacheHit[] = "cache.hit";
inline constexpr char kServeRequests[] = "serve.requests";
inline constexpr char kServeErrors[] = "serve.errors";

// Phase wall-clock gauges (milliseconds). phase.parse_ms is stamped by
// the CLI (parsing happens before the library is entered).
inline constexpr char kPhaseParseMs[] = "phase.parse_ms";
inline constexpr char kPhasePrepassMs[] = "phase.prepass_ms";
inline constexpr char kPhaseSolveMs[] = "phase.solve_ms";
// The Datalog guess loop's split of solve time per layer of the Theorem
// 4.1 pipeline: makeP, dlopt and engine evaluation, each summed over the
// run's solved guesses only: a skipped or shared guess runs none of the
// three.
inline constexpr char kPhaseMakePMs[] = "phase.makep_ms";
inline constexpr char kPhaseDlOptMs[] = "phase.dlopt_ms";
inline constexpr char kPhaseEvalMs[] = "phase.eval_ms";
inline constexpr char kPhaseWitnessMs[] = "phase.witness_ms";
inline constexpr char kPhaseTotalMs[] = "phase.total_ms";
}  // namespace metric

// Ordered name → value registry. Insertion order is preserved so text
// and JSON renderings are stable; lookups are O(1) via a side index.
// Cheap to fill once per verify — this is a results container, not a
// hot-path accumulator (the backends keep their local structs for that
// and export here at the end).
class Telemetry {
 public:
  struct Entry {
    std::string name;
    bool is_gauge = false;
    std::uint64_t counter = 0;
    double gauge = 0.0;
  };

  // Counters (monotone event counts).
  void SetCounter(std::string_view name, std::uint64_t value);
  // 0 when absent.
  std::uint64_t counter(std::string_view name) const;

  // Gauges (point-in-time doubles, e.g. phase durations in ms).
  void SetGauge(std::string_view name, double value);
  double gauge(std::string_view name) const;

  bool Has(std::string_view name) const;
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  // Flat JSON object {"name": value, ...} in insertion order.
  void WriteJson(JsonWriter& w) const;
  // "name=value name=value" (counters as integers, gauges with 3
  // decimals), for logs and --metrics.
  std::string ToString() const;

 private:
  Entry& Upsert(std::string_view name, bool is_gauge);
  const Entry* Lookup(std::string_view name) const;

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace rapar::obs

#endif  // RAPAR_OBS_TELEMETRY_H_
