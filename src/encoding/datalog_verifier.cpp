#include "encoding/datalog_verifier.h"

#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/strings.h"
#include "datalog/engine.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"

namespace rapar {

namespace {

// Everything one guess contributes to the verdict.
struct GuessOutcome {
  // Scanned without makeP, dlopt or eval: MakePEncoder::MayDerive ruled
  // the goal out, so the optimized program would have had no rules and
  // every count below is the full pipeline's.
  bool skipped = false;
  // Scanned without makeP, dlopt or eval: an earlier guess with the same
  // class key was solved, and derived, budget_aborted and stats are its
  // (DESIGN.md §6). The representative comes first in enumeration order,
  // so a shared guess is never the first terminating one and carries no
  // witness.
  bool shared = false;
  bool derived = false;
  bool budget_aborted = false;
  std::size_t rules_emitted = 0;
  std::size_t rules_after = 0;
  dlopt::DlOptStats dlopt;
  dl::EvalStats stats;
  std::string witness;  // filled when derived

  bool terminating() const { return derived || budget_aborted; }
};

GuessOutcome SkippedOutcome() {
  GuessOutcome o;
  o.skipped = true;
  return o;
}

// What the later guesses of a class take from its representative; a run
// keeps one per class.
struct ClassOutcome {
  bool derived = false;
  bool budget_aborted = false;
  dl::EvalStats stats;
};

ClassOutcome ClassOutcomeOf(const GuessOutcome& rep) {
  ClassOutcome c{rep.derived, rep.budget_aborted, rep.stats};
  // Indexes the engine built: work done, not a property of the program
  // (an engine keeps the indexes of earlier solves), so none here.
  c.stats.index_builds = 0;
  return c;
}

GuessOutcome SharedOutcome(const ClassOutcome& c) {
  GuessOutcome o;
  o.shared = true;
  o.derived = c.derived;
  o.budget_aborted = c.budget_aborted;
  o.stats = c.stats;
  return o;
}

// Marks a guess that is decided without a solve in the trace.
void TraceDecided(obs::TraceRecorder* trace, std::size_t index,
                  const char* how) {
  obs::ScopedSpan span(trace, "guess");
  if (span.active()) {
    span.set_args(StrCat("{\"index\":", index, ",\"", how, "\":true}"));
  }
}

// Sorts one run's guesses, in the enumeration order they are fed in,
// into those skipped (MakePEncoder::MayDerive rules the goal out), those
// solved and those shared: a guess whose class key an earlier solved
// guess opened takes that guess's outcome (DESIGN.md §6).
class GuessClasses {
 public:
  enum class Kind { kSkip, kSolve, kShare };
  struct Class {
    Kind kind = Kind::kSkip;
    // kSolve: the class the guess opens; kShare: the class whose
    // representative's outcome the guess takes. Classes are numbered in
    // the order they open.
    std::size_t id = 0;
  };

  explicit GuessClasses(const MakePEncoder& encoder) : encoder_(encoder) {}

  Class Next(const DisGuess& guess) {
    if (!encoder_.MayDerive(guess, &key_)) return {Kind::kSkip};
    const auto [it, opened] = ids_.try_emplace(key_, ids_.size());
    return {opened ? Kind::kSolve : Kind::kShare, it->second};
  }

 private:
  const MakePEncoder& encoder_;
  std::unordered_map<std::string, std::size_t> ids_;
  std::string key_;  // scratch
};

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// The run's solver: owns the dl::Engine so its arena's allocations serve
// every guess it solves, and the makeP encoder so env prefixes are
// emitted once per store profile. The engine lives as long as one verify
// call, so every engine counter describes that call only.
class GuessSolver {
 public:
  GuessSolver(const SimplSystem& sys, const DatalogVerifierOptions& options)
      : sys_(sys),
        options_(options),
        encoder_(sys, MakePOptions{options.goal_message}) {
    eval_.max_tuples = options.max_tuples_per_query;
    dlopt_.trace = options.trace;
  }

  const MakePEncoder& encoder() const { return encoder_; }

  GuessOutcome Solve(const DisGuess& guess, std::size_t index) {
    using Clock = std::chrono::steady_clock;
    obs::ScopedSpan span(options_.trace, "guess");
    GuessOutcome out;
    const Clock::time_point makep_start = Clock::now();
    MakePResult q = [&] {
      obs::ScopedSpan s(options_.trace, "makep");
      return encoder_.Encode(guess);
    }();
    out.rules_emitted = q.prog->size();

    const Clock::time_point dlopt_start = Clock::now();
    dlopt::OptimizeResult opt;
    {
      obs::ScopedSpan s(options_.trace, "dlopt");
      opt = dlopt::OptimizeForQuery(std::move(*q.prog), q.goal, dlopt_);
    }
    out.dlopt = opt.stats;
    out.rules_after = opt.prog.size();
    const Clock::time_point dlopt_end = Clock::now();
    if (width_report_.empty()) {
      // The run's first solve: its program's graph feeds the report only.
      const dlopt::PredGraph graph = dlopt::PredGraph::Build(opt.prog);
      width_report_ = dlopt::AnalyzeWidth(opt.prog, graph, q.goal.pred)
                          .ToString(opt.prog, graph);
    }

    const Clock::time_point eval_start = Clock::now();
    {
      obs::ScopedSpan s(options_.trace, "eval");
      try {
        out.derived = engine_.Solve(opt.prog, q.goal, eval_);
      } catch (const dl::BudgetExceeded&) {
        out.budget_aborted = true;  // partial stats of the solve still count
      }
    }
    const Clock::time_point eval_end = Clock::now();
    makep_ms_ += MsBetween(makep_start, dlopt_start);
    dlopt_ms_ += MsBetween(dlopt_start, dlopt_end);
    eval_ms_ += MsBetween(eval_start, eval_end);
    out.stats = engine_.last_stats();
    if (out.derived) out.witness = guess.ToString(sys_);
    if (span.active()) {
      span.set_args(StrCat("{\"index\":", index,
                           ",\"rules\":", out.rules_emitted,
                           ",\"rules_after\":", out.rules_after,
                           ",\"tuples\":", out.stats.tuples,
                           ",\"derived\":", out.derived ? "true" : "false",
                           "}"));
    }
    return out;
  }

  // Adds this solver's per-phase times and its width report to `v`.
  void AddTotals(DatalogVerdict& v) const {
    v.makep_ms += makep_ms_;
    v.dlopt_ms += dlopt_ms_;
    v.eval_ms += eval_ms_;
    v.width_report = width_report_;
  }

 private:
  const SimplSystem& sys_;
  const DatalogVerifierOptions& options_;
  MakePEncoder encoder_;
  dl::EvalOptions eval_;
  dlopt::DlOptOptions dlopt_;
  dl::Engine engine_;
  double makep_ms_ = 0.0;
  double dlopt_ms_ = 0.0;
  double eval_ms_ = 0.0;
  // The width classification of the first solved guess's optimized
  // program; empty until a guess is solved.
  std::string width_report_;
};

// Folds one evaluated guess into the verdict aggregates (enumeration
// order; only the scanned prefix is ever passed here).
void Accumulate(DatalogVerdict& v, const GuessOutcome& o) {
  if (o.skipped) {
    ++v.solves_skipped;
    return;
  }
  if (o.shared) {
    ++v.solves_shared;
  } else {
    ++v.queries_evaluated;
    v.total_rules += o.rules_emitted;
    v.total_rules_after += o.rules_after;
    v.dlopt += o.dlopt;
  }
  v.total_tuples += o.stats.tuples;
  v.rule_firings += o.stats.rule_firings;
  v.join_attempts += o.stats.join_attempts;
  v.index_probes += o.stats.index_probes;
  v.index_hits += o.stats.index_hits;
  v.index_builds += o.stats.index_builds;
}

// Seals the verdict for a terminating event at global guess index `idx`.
// `guesses` is the guess count to report (the resume offset plus the
// guesses scanned up to and including the terminating one).
void FinishEarly(DatalogVerdict& v, std::size_t idx, std::size_t guesses,
                 const GuessOutcome& o) {
  v.guesses = guesses;
  if (o.derived) {
    v.unsafe = true;
    v.witness_guess = o.witness;
    // Definitive regardless of the unscanned remainder.
    v.exhaustive = true;
  } else {
    v.exhaustive = false;
    v.budget_aborted_guess = idx;
  }
}

// Emits a scan-position checkpoint through the configured sink (no-op
// without one) and counts the write. `next_index` is the first global
// index a resumed run must look at.
void EmitCheckpoint(const DatalogVerifierOptions& options,
                    DatalogVerdict& verdict, std::size_t next_index,
                    bool exhausted) {
  if (!options.checkpoint_sink) return;
  CursorCheckpoint cp;
  cp.next_index = next_index;
  cp.exhausted = exhausted;
  options.checkpoint_sink(cp);
  ++verdict.checkpoint_writes;
}

}  // namespace

// Classifies and solves each guess where the cursor holds it.
DatalogVerdict DatalogVerify(const SimplSystem& sys,
                             const DatalogVerifierOptions& options) {
  DatalogVerdict verdict;
  verdict.resume_offset = options.guess.start_index;
  DisGuessCursor cursor(sys, options.guess);
  GuessSolver solver(sys, options);
  GuessClasses classes(solver.encoder());
  // Per class, what its later guesses take.
  std::vector<ClassOutcome> class_outcomes;
  const Deadline deadline(options.time_budget_ms);

  // Scan position: the first global index a resumed run must revisit.
  // The cursor emits consecutive indices from start_index on, so it is
  // also the verdict's guess count.
  std::size_t next_unscanned = options.guess.start_index;
  std::size_t scanned_this_run = 0;
  std::size_t since_checkpoint = 0;

  while (const IndexedGuess* ig = cursor.Next()) {
    const std::size_t idx = ig->index;
    if (deadline.Expired()) {
      verdict.deadline_hit = true;
      verdict.exhaustive = false;
      verdict.guesses = next_unscanned;
      solver.AddTotals(verdict);
      obs::TraceInstant(options.trace, "deadline",
                        StrCat("{\"guess\":", idx, "}"));
      EmitCheckpoint(options, verdict, next_unscanned, false);
      return verdict;
    }
    const GuessClasses::Class c = classes.Next(ig->guess);
    GuessOutcome o;
    switch (c.kind) {
      case GuessClasses::Kind::kSkip:
        o = SkippedOutcome();
        TraceDecided(options.trace, idx, "skipped");
        break;
      case GuessClasses::Kind::kShare:
        o = SharedOutcome(class_outcomes[c.id]);
        TraceDecided(options.trace, idx, "shared");
        break;
      case GuessClasses::Kind::kSolve:
        o = solver.Solve(ig->guess, idx);
        class_outcomes.push_back(ClassOutcomeOf(o));
        break;
    }
    ++scanned_this_run;
    ++since_checkpoint;
    next_unscanned = idx + 1;
    Accumulate(verdict, o);
    if (o.terminating()) {
      obs::TraceInstant(options.trace,
                        o.derived ? "early_exit" : "budget_abort",
                        StrCat("{\"guess\":", idx, "}"));
      FinishEarly(verdict, idx, next_unscanned, o);
      solver.AddTotals(verdict);
      if (o.budget_aborted) {
        // Restartable: a rerun with a larger budget resumes *at* the
        // aborted guess.
        EmitCheckpoint(options, verdict, idx, false);
      }
      return verdict;
    }
    if (options.scan_limit != 0 && scanned_this_run >= options.scan_limit) {
      verdict.scan_limit_hit = true;
      verdict.exhaustive = false;
      verdict.guesses = next_unscanned;
      solver.AddTotals(verdict);
      obs::TraceInstant(options.trace, "scan_limit",
                        StrCat("{\"guess\":", idx, "}"));
      EmitCheckpoint(options, verdict, next_unscanned, false);
      return verdict;
    }
    if (options.checkpoint_every != 0 &&
        since_checkpoint >= options.checkpoint_every) {
      since_checkpoint = 0;
      EmitCheckpoint(options, verdict, next_unscanned, false);
    }
  }
  verdict.guesses = next_unscanned;
  verdict.exhaustive = cursor.complete();
  solver.AddTotals(verdict);
  // complete() means nothing is left to resume; a hit enumeration cap
  // leaves a resumable position (rerun with a larger max_guesses).
  EmitCheckpoint(options, verdict, next_unscanned, cursor.complete());
  return verdict;
}

}  // namespace rapar
