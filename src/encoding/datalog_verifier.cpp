#include "encoding/datalog_verifier.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/sharded_counter.h"
#include "common/strings.h"
#include "common/thread_pool.h"
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

// Everything one guess contributes to the verdict. Produced by exactly one
// worker (or by the dispatcher, for a guess that is not solved), read only
// after the pool has quiesced; schedule-independent except for
// stats.index_builds (see the header's determinism rule).
struct GuessOutcome {
  bool evaluated = false;
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
  bool solved() const { return evaluated && !skipped && !shared; }
};

GuessOutcome SkippedOutcome() {
  GuessOutcome o;
  o.evaluated = true;
  o.skipped = true;
  return o;
}

// What the later guesses of a class take from its representative; a run
// keeps one per class.
struct ClassOutcome {
  bool evaluated = false;
  bool derived = false;
  bool budget_aborted = false;
  dl::EvalStats stats;
};

ClassOutcome ClassOutcomeOf(const GuessOutcome& rep) {
  ClassOutcome c{rep.evaluated, rep.derived, rep.budget_aborted, rep.stats};
  // Indexes the engine built: work done, not a property of the program
  // (an engine keeps the indexes of earlier solves), so none here.
  c.stats.index_builds = 0;
  return c;
}

GuessOutcome SharedOutcome(const ClassOutcome& c) {
  GuessOutcome o;
  o.evaluated = c.evaluated;
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

// Per-worker solver: owns the dl::Engine so arena reuse and EDB snapshot
// rollback keep working across the guesses this worker happens to solve,
// and the makeP encoder so env prefixes are emitted once per store
// profile for this worker. The engine lives as long as one verify call,
// so every engine counter describes that call only.
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
    out.evaluated = true;
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

  // Adds this solver's engine reuses and per-phase times to `v`.
  void AddTotals(DatalogVerdict& v) const {
    v.fact_reuses += engine_.fact_reuses();
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
  v.parallel.early_exit_index = idx;
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

void FetchMin(std::atomic<std::size_t>& a, std::size_t v) {
  std::size_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
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

// --- serial driver ----------------------------------------------------------

// threads == 1: the legacy in-order loop on the calling thread, one
// engine; each guess is classified and solved where the cursor holds it.
// The parallel driver's results are defined to match this path bit for
// bit (modulo index_builds/fact_reuses).
DatalogVerdict SerialVerify(const SimplSystem& sys,
                            const DatalogVerifierOptions& options) {
  DatalogVerdict verdict;
  verdict.parallel.threads = 1;
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
        ++verdict.parallel.solves;
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

// --- parallel driver --------------------------------------------------------

struct Batch {
  // Global enumeration index of the chunk's first guess; slot i holds
  // guess first + i.
  std::size_t first = 0;
  std::vector<GuessOutcome> outcomes;  // one slot per guess in the chunk
  // Shared guesses as (slot, class); their outcomes are filled in from
  // the class representatives' once the pool quiesces.
  std::vector<std::pair<std::size_t, std::size_t>> members;
  std::string error;                   // first worker exception, if any
  // Guesses of this chunk decided so far (the skipped and shared ones at
  // dispatch) — the dispatcher's checkpoint frontier advances over the
  // longest prefix of fully-decided batches. A shared guess's
  // representative sits in the same batch or an earlier one.
  std::atomic<std::size_t> done{0};
};

DatalogVerdict ParallelVerify(const SimplSystem& sys,
                              const DatalogVerifierOptions& options,
                              unsigned threads) {
  DatalogVerdict verdict;
  ThreadPool pool(threads);
  const unsigned workers = pool.size();
  verdict.parallel.threads = workers;
  verdict.resume_offset = options.guess.start_index;

  std::vector<std::unique_ptr<GuessSolver>> solvers;
  solvers.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    solvers.push_back(std::make_unique<GuessSolver>(sys, options));
  }
  // The dispatcher classifies every guess before any worker sees it, in
  // enumeration order, with an encoder of its own.
  const MakePEncoder class_encoder(sys, MakePOptions{options.goal_message});
  GuessClasses classes(class_encoder, options.enable_dlopt);
  // Per class, the slot of its representative's outcome.
  std::vector<const GuessOutcome*> reps;

  const std::size_t batch_size =
      options.batch_size == 0 ? 1 : options.batch_size;
  DisGuessCursor cursor(sys, options.guess);

  // First terminating event wins: the token is the fast "something
  // happened" flag, stop_idx the exact ordered cut-off. A worker may skip
  // a guess only when its index is strictly above stop_idx, so the final
  // minimum's prefix is always fully evaluated.
  CancellationToken cancel;
  std::atomic<std::size_t> stop_idx{kNoGuessIndex};
  const Deadline deadline(options.time_budget_ms);
  std::atomic<bool> deadline_fired{false};
  ShardedCounter solves;
  ShardedCounter skipped;

  // Batch slots live in a deque (stable addresses) created by the
  // dispatcher before Submit and read after Wait; each is written by
  // exactly one task in between.
  std::deque<Batch> batches;
  std::mutex batches_m;
  // Backpressure: bound the chunks owned by queued/running tasks.
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(workers) * 4);

  // Contiguous-completed frontier over the dispatch order: one past the
  // longest prefix of fully-solved batches. Everything below it is done,
  // so it is a safe (conservative) resume point. Only the dispatcher
  // appends to `batches`; workers touch the atomic `done` counters only.
  const auto frontier = [&] {
    std::size_t next = options.guess.start_index;
    for (const Batch& b : batches) {
      if (b.done.load(std::memory_order_acquire) != b.outcomes.size()) break;
      next = b.first + b.outcomes.size();
    }
    return next;
  };

  // Index of the first solve of this run — the one that renders the
  // width report (set before the first Submit, read-only afterwards).
  std::size_t first_index = kNoGuessIndex;
  // scan_limit bounds *dispatch*: the first scan_limit guesses of the
  // enumeration order are handed out, nothing beyond — deterministic at
  // any thread count.
  std::size_t dispatched = 0;
  bool scan_limited = false;
  std::size_t cp_next = options.guess.start_index;  // last checkpointed

  while (!cancel.cancelled()) {
    if (deadline.Expired()) {
      deadline_fired.store(true, std::memory_order_relaxed);
      cancel.Cancel();
      break;
    }
    std::size_t want = batch_size;
    if (options.scan_limit != 0) {
      if (dispatched >= options.scan_limit) {
        scan_limited = true;
        break;
      }
      want = std::min(want, options.scan_limit - dispatched);
    }
    // Pull the chunk guess by guess and classify each where the cursor
    // holds it; only the guesses to solve are copied, as (slot, guess)
    // pairs for a worker.
    Batch* slot = nullptr;
    std::vector<std::pair<std::size_t, DisGuess>> work;
    std::vector<std::size_t> opened;  // slots whose guess opens a class
    std::size_t decided = 0;
    while (slot == nullptr || slot->outcomes.size() < want) {
      const IndexedGuess* ig = cursor.Next();
      if (ig == nullptr) break;
      const std::size_t idx = ig->index;
      if (slot == nullptr) {
        std::lock_guard<std::mutex> lock(batches_m);
        slot = &batches.emplace_back();
        slot->first = idx;
        if (first_index == kNoGuessIndex) first_index = idx;
      }
      const std::size_t i = slot->outcomes.size();
      slot->outcomes.emplace_back();
      const GuessClasses::Class c = classes.Next(ig->guess, idx == first_index);
      switch (c.kind) {
        case GuessClasses::Kind::kSkip:
          slot->outcomes[i] = SkippedOutcome();
          TraceDecided(options.trace, idx, "skipped");
          ++decided;
          break;
        case GuessClasses::Kind::kShare:
          slot->members.emplace_back(i, c.id);
          TraceDecided(options.trace, idx, "shared");
          ++decided;
          break;
        case GuessClasses::Kind::kSolve:
          if (c.id != GuessClasses::kNoClass) opened.push_back(i);
          work.emplace_back(i, ig->guess);
          break;
      }
    }
    if (slot == nullptr) break;
    // Classes are numbered in the order they open, so reps[id] is the
    // outcome slot of class id's representative.
    for (const std::size_t i : opened) reps.push_back(&slot->outcomes[i]);
    dispatched += slot->outcomes.size();
    slot->done.store(decided, std::memory_order_release);
    slots.acquire();
    pool.Submit([&, slot, work = std::move(work)] {
      const int w = ThreadPool::CurrentWorkerIndex();
      GuessSolver& solver = *solvers[static_cast<std::size_t>(w)];
      try {
        for (std::size_t k = 0; k < work.size(); ++k) {
          const auto& [i, guess] = work[k];
          const std::size_t idx = slot->first + i;
          if (idx > stop_idx.load(std::memory_order_relaxed)) {
            skipped.Add(work.size() - k);
            break;
          }
          if (deadline.Expired()) {
            deadline_fired.store(true, std::memory_order_relaxed);
            cancel.Cancel();
            skipped.Add(work.size() - k);
            break;
          }
          GuessOutcome o = solver.Solve(
              guess, idx, /*want_width_report=*/idx == first_index);
          solves.Add(1);
          const bool terminating = o.terminating();
          const bool derived = o.derived;
          slot->outcomes[i] = std::move(o);
          slot->done.fetch_add(1, std::memory_order_release);
          if (terminating) {
            FetchMin(stop_idx, idx);
            cancel.Cancel();
            obs::TraceInstant(options.trace,
                              derived ? "early_exit" : "budget_abort",
                              StrCat("{\"guess\":", idx, "}"));
            // Indices above idx in this batch can no longer matter.
            skipped.Add(work.size() - k - 1);
            break;
          }
        }
      } catch (const std::exception& e) {
        slot->error = e.what();
        cancel.Cancel();
      }
      slots.release();
    });
    if (options.checkpoint_every != 0 && options.checkpoint_sink &&
        stop_idx.load(std::memory_order_relaxed) == kNoGuessIndex) {
      const std::size_t f_next = frontier();
      if (f_next - cp_next >= options.checkpoint_every) {
        cp_next = f_next;
        EmitCheckpoint(options, verdict, f_next, false);
      }
    }
  }
  // Terminating events only occur in dispatched chunks, and chunks are
  // dispatched in enumeration order — once the token fires, every index
  // at or below the eventual minimum has already been handed out, so the
  // rest of the enumeration is never stepped.
  pool.Wait();

  for (const Batch& b : batches) {
    if (!b.error.empty()) {
      throw std::runtime_error("datalog verifier worker failed: " + b.error);
    }
  }
  for (Batch& b : batches) {
    for (const auto& [i, id] : b.members) {
      b.outcomes[i] = SharedOutcome(ClassOutcomeOf(*reps[id]));
    }
  }

  // The deterministic stop: the lowest-index terminating outcome. This can
  // only be lower than the racy stop_idx snapshot workers saw, never
  // higher, and its whole prefix is evaluated (skips happen strictly above
  // some stop_idx value >= the final minimum).
  std::size_t stop = kNoGuessIndex;
  const GuessOutcome* event = nullptr;
  for (const Batch& b : batches) {
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
      const GuessOutcome& o = b.outcomes[i];
      if (o.evaluated && o.terminating() && b.first + i < stop) {
        stop = b.first + i;
        event = &o;
      }
    }
  }

  verdict.parallel.batches = batches.size();
  verdict.parallel.steals = pool.steals();
  verdict.parallel.solves = solves.Total();
  verdict.parallel.skipped = skipped.Total();

  std::size_t evaluated = 0;
  for (const Batch& b : batches) {
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
      const GuessOutcome& o = b.outcomes[i];
      if (b.first + i > stop) {
        verdict.parallel.discarded += o.solved() ? 1 : 0;
        continue;
      }
      // A deadline abort can leave unevaluated gaps below `stop`; in
      // deadline-free runs every index at or below it was solved.
      if (!o.evaluated) continue;
      ++evaluated;
      Accumulate(verdict, o);
    }
  }
  for (const auto& solver : solvers) solver->AddTotals(verdict);

  const std::size_t base = options.guess.start_index;
  if (event != nullptr) {
    // Deadline-free runs evaluate exactly the emitted indices <= stop, so
    // base + evaluated matches the serial driver's guess count.
    FinishEarly(verdict, stop, base + evaluated, *event);
    if (!event->derived) {
      // Budget abort: restartable at the aborted guess.
      EmitCheckpoint(options, verdict, stop, false);
    }
  } else if (deadline_fired.load(std::memory_order_relaxed)) {
    verdict.deadline_hit = true;
    verdict.exhaustive = false;
    // Not a clean prefix (workers stop where the deadline caught them);
    // report the number of solves that made it into the aggregates.
    verdict.guesses = base + evaluated;
    obs::TraceInstant(options.trace, "deadline",
                      StrCat("{\"solves\":", evaluated, "}"));
    // Resume conservatively from the contiguous-completed frontier;
    // solves in the ragged tail beyond it will be redone.
    EmitCheckpoint(options, verdict, frontier(), false);
  } else if (scan_limited) {
    // Every dispatched guess was solved (no event, no deadline), so the
    // frontier covers the full dispatched prefix.
    verdict.scan_limit_hit = true;
    verdict.exhaustive = false;
    verdict.guesses = base + evaluated;
    obs::TraceInstant(options.trace, "scan_limit",
                      StrCat("{\"solves\":", evaluated, "}"));
    EmitCheckpoint(options, verdict, frontier(), false);
  } else {
    verdict.guesses = base + cursor.produced();
    verdict.exhaustive = cursor.complete();
    EmitCheckpoint(options, verdict, frontier(), cursor.complete());
  }
  return verdict;
}

}  // namespace

DatalogVerdict DatalogVerify(const SimplSystem& sys,
                             const DatalogVerifierOptions& options) {
  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads == 1) return SerialVerify(sys, options);
  return ParallelVerify(sys, options, threads);
}

}  // namespace rapar
