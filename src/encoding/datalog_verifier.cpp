#include "encoding/datalog_verifier.h"

#include <chrono>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "datalog/engine.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"

namespace rapar {

namespace {

// Cooperative wall-clock deadline (time_budget_ms). Checked once per
// solve, so the clock read is negligible next to the work it bounds.
class Deadline {
 public:
  explicit Deadline(long long ms) {
    if (ms > 0) {
      limited_ = true;
      at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
  }
  bool Expired() const {
    return limited_ && std::chrono::steady_clock::now() > at_;
  }

 private:
  bool limited_ = false;
  std::chrono::steady_clock::time_point at_;
};

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
  std::string witness;       // filled when derived
  std::string width_report;  // filled for guess 0 only

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
// guess opened takes that guess's outcome (DESIGN.md §6). Skipping and
// sharing follow enable_dlopt, since the lemmas are about the optimized
// program. The run's first guess is always solved, for the width report.
class GuessClasses {
 public:
  enum class Kind { kSkip, kSolve, kShare };
  static constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);
  struct Class {
    Kind kind = Kind::kSolve;
    // kShare: the class whose representative's outcome the guess takes.
    // kSolve: the class the guess opens, or kNoClass. Classes are numbered
    // in the order they open.
    std::size_t id = kNoClass;
  };

  GuessClasses(const MakePEncoder& encoder, bool enabled)
      : encoder_(encoder), enabled_(enabled) {}

  Class Next(const DisGuess& guess, bool first) {
    if (!enabled_) return {};
    if (!encoder_.MayDerive(guess, &key_)) {
      return {first ? Kind::kSolve : Kind::kSkip, kNoClass};
    }
    const auto [it, opened] = ids_.try_emplace(key_, ids_.size());
    return {opened ? Kind::kSolve : Kind::kShare, it->second};
  }

 private:
  const MakePEncoder& encoder_;
  const bool enabled_;
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
    eval_.engine = options.engine;
    dlopt_.trace = options.trace;
  }

  const MakePEncoder& encoder() const { return encoder_; }

  GuessOutcome Solve(const DisGuess& guess, std::size_t index,
                     bool want_width_report) {
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
    const dl::Program* prog = q.prog.get();
    dlopt::OptimizeResult opt;
    dl::JoinHints hints;
    std::optional<dlopt::PredGraph> graph;
    eval_.hints = nullptr;
    if (options_.enable_dlopt) {
      obs::ScopedSpan s(options_.trace, "dlopt");
      opt = dlopt::OptimizeForQuery(std::move(*q.prog), q.goal, dlopt_);
      out.dlopt = opt.stats;
      prog = &opt.prog;
      // The width/SCC classification doubles as the engine's join-order
      // growth hint (EDB < non-recursive IDB < recursive IDB).
      graph.emplace(dlopt::PredGraph::Build(*prog));
      hints = dlopt::MakeJoinHints(*graph);
      eval_.hints = &hints;
    }
    out.rules_after = prog->size();
    const Clock::time_point dlopt_end = Clock::now();
    if (want_width_report) {
      // Reuse the join-hint graph instead of building a second one for
      // the report (they describe the same optimized program).
      if (!graph.has_value()) graph.emplace(dlopt::PredGraph::Build(*prog));
      out.width_report = dlopt::AnalyzeWidth(*prog, *graph, q.goal.pred)
                             .ToString(*prog, *graph);
    }

    const Clock::time_point eval_start = Clock::now();
    {
      obs::ScopedSpan s(options_.trace, "eval");
      try {
        out.derived = engine_.Solve(*prog, q.goal, eval_);
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

  // Adds this solver's per-phase times to `v`.
  void AddTotals(DatalogVerdict& v) const {
    v.makep_ms += makep_ms_;
    v.dlopt_ms += dlopt_ms_;
    v.eval_ms += eval_ms_;
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
  if (v.width_report.empty() && !o.width_report.empty()) {
    v.width_report = o.width_report;
  }
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
  GuessClasses classes(solver.encoder(), options.enable_dlopt);
  // Per class, what its later guesses take.
  std::vector<ClassOutcome> class_outcomes;
  const Deadline deadline(options.time_budget_ms);

  // Scan position: the first global index a resumed run must revisit.
  // The cursor emits consecutive indices from start_index on, so it is
  // also the verdict's guess count.
  std::size_t next_unscanned = options.guess.start_index;
  std::size_t solves_this_run = 0;
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
    const bool first = solves_this_run == 0;
    const GuessClasses::Class c = classes.Next(ig->guess, first);
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
        o = solver.Solve(ig->guess, idx, /*want_width_report=*/first);
        if (c.id != GuessClasses::kNoClass) {
          class_outcomes.push_back(ClassOutcomeOf(o));
        }
        break;
    }
    ++solves_this_run;
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
    if (options.scan_limit != 0 && solves_this_run >= options.scan_limit) {
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
