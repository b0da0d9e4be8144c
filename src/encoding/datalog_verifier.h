// The Datalog-backed safety verifier (Theorem 4.1): enumerates makeP's
// nondeterministic guesses and evaluates each emitted query instance.
// Unsafe iff some execution of makeP yields (Prog, g) with Prog ⊢ g.
//
// One loop on the calling thread scans the guesses in enumeration order:
// it steps a DisGuessCursor, which holds one guess at a time, and decides
// each guess where the cursor holds it, stopping at the first terminating
// event — a derived goal or a blown tuple budget. Every guess is decided
// the same way (DESIGN.md §6): one that cannot derive the goal
// (MakePEncoder::MayDerive) is skipped, one whose class key an earlier
// guess of the run already had shares that guess's solve, and any other
// is solved — makeP, dlopt's OptimizeForQuery, then a fresh fixpoint on
// the run's one dl::Engine, which carries no result from one solve to the
// next, only its allocations. The run's first solve also builds its
// program's predicate graph, once, for the width report.
//
// Checkpoint/resume: a scan that stops without a verdict (scan_limit,
// deadline, budget abort, enumeration cap) hands a
// CursorCheckpoint to checkpoint_sink. A run started at its next_index
// (GuessEnumOptions::start_index) reaches the verdict and guess count of
// the uninterrupted scan and scans no guess below that index again.
#ifndef RAPAR_ENCODING_DATALOG_VERIFIER_H_
#define RAPAR_ENCODING_DATALOG_VERIFIER_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "dlopt/optimize.h"
#include "encoding/makep.h"
#include "obs/trace.h"

namespace rapar {

// "No guess index": sentinel for the optional index fields below.
inline constexpr std::size_t kNoGuessIndex = static_cast<std::size_t>(-1);

struct DatalogVerifierOptions {
  // MG goal message; when unset only assert-false violations count.
  std::optional<std::pair<VarId, Value>> goal_message;
  GuessEnumOptions guess;
  // Tuple budget per query evaluation (0 = unlimited).
  std::size_t max_tuples_per_query = 2'000'000;
  // Wall-clock budget in milliseconds; 0 = unlimited. Enforced
  // cooperatively at guess granularity: the deadline is checked before
  // every solve, so a single long solve can overshoot it. On expiry the
  // scan stops, exhaustive becomes false and DatalogVerdict::deadline_hit
  // is set.
  long long time_budget_ms = 0;
  // Optional span sink (obs/trace.h): per-guess "guess" spans with nested
  // makep/dlopt/eval phases, plus instant markers for early exit, budget
  // abort and deadline expiry. Null = no tracing, near-zero cost.
  obs::TraceRecorder* trace = nullptr;
  // ---- Checkpoint / resume (DESIGN.md §8) ----
  // The resume offset travels in `guess` (GuessEnumOptions::start_index):
  // the verdict's `guesses` counts from it, so a resumed scan reports the
  // same totals as an uninterrupted one. The fields below add checkpoint
  // emission and a deterministic stop.
  //
  // Emit a CursorCheckpoint through checkpoint_sink every
  // `checkpoint_every` scanned guesses (0 = no periodic checkpoints). A
  // final checkpoint is also emitted whenever the scan stops without a
  // definitive verdict (deadline, budget abort, scan limit, enumeration
  // cap) and — with exhausted = true — on a completed scan.
  std::size_t checkpoint_every = 0;
  std::function<void(const CursorCheckpoint&)> checkpoint_sink;
  // Stop after scanning this many guesses in this invocation (0 =
  // unlimited). Deterministic, which makes kill-and-resume testable
  // without real kills: a truncated run plus a resumed run must reproduce
  // the uninterrupted verdict. Sets DatalogVerdict::scan_limit_hit when
  // it truncates the scan.
  std::size_t scan_limit = 0;
};

struct DatalogVerdict {
  bool unsafe = false;
  // All guesses were enumerated and evaluated: a negative answer is
  // definitive. Forced true on an unsafe verdict (which is definitive
  // regardless of how much of the guess space was scanned) and false
  // after a budget abort or a hit enumeration cap.
  bool exhaustive = true;
  // Guesses scanned, counting the start_index guesses a resumed run
  // skips as scanned: on early termination (witness found or budget
  // aborted at index i) it is i + 1 — the enumeration stops as soon as
  // the verdict is decided — otherwise the full enumeration count.
  std::size_t guesses = 0;
  // Scanned guesses split into those solved (makeP, dlopt, eval), those
  // skipped because MakePEncoder::MayDerive ruled the goal out, and those
  // that shared the solve of an earlier guess with their class key
  // (DESIGN.md §6). A skipped guess's optimized program has no rules, and
  // a shared guess's is its representative's up to predicate numbering,
  // so the derivation counts below are the full pipeline's: a shared
  // guess adds its representative's. Only total_rules,
  // total_rules_after, the dlopt counts and the phase times cover the
  // solved guesses alone. On a complete scan or an early exit the three
  // sum to `guesses` less the resume offset.
  std::size_t queries_evaluated = 0;
  std::size_t solves_skipped = 0;
  std::size_t solves_shared = 0;
  // Aggregate Datalog statistics over the scanned prefix (per guess,
  // summed in enumeration order).
  std::size_t total_tuples = 0;
  std::size_t total_rules = 0;        // emitted by makeP, pre-dlopt
  std::size_t total_rules_after = 0;  // evaluated after dlopt pruning
  std::size_t rule_firings = 0;
  std::size_t join_attempts = 0;
  // Argument-hash index counters.
  std::size_t index_probes = 0;
  std::size_t index_hits = 0;
  std::size_t index_builds = 0;
  // Budget-abort semantics: when a query blows max_tuples_per_query the
  // scan *stops* at that guess — its index is recorded here, exhaustive
  // becomes false, and the remaining guesses are not evaluated (a witness
  // hiding beyond the aborted guess is only found by rerunning with a
  // larger budget). kNoGuessIndex when no abort occurred. Before PR 4 the
  // loop kept evaluating the remaining guesses after an abort; stopping
  // makes the inconclusive case cheap and the abort point reportable.
  std::size_t budget_aborted_guess = kNoGuessIndex;
  // The wall-clock budget (time_budget_ms) expired before the scan
  // finished; exhaustive is false and `guesses` counts only the evaluated
  // prefix. Never set when a witness was found first (an unsafe verdict
  // is definitive and wins).
  bool deadline_hit = false;
  // The scan stopped because DatalogVerifierOptions::scan_limit solves
  // were spent this invocation; exhaustive is false and a checkpoint (if
  // a sink is set) records where to resume.
  bool scan_limit_hit = false;
  // Checkpoints emitted through checkpoint_sink during this run.
  std::size_t checkpoint_writes = 0;
  // Echo of the resume offset this run scanned from
  // (GuessEnumOptions::start_index), for telemetry and envelope reporting.
  std::size_t resume_offset = 0;
  // Aggregate optimizer statistics over the solved guesses
  // (rules_before/after mirror total_rules{,_after}).
  dlopt::DlOptStats dlopt;
  // Wall-clock milliseconds spent in makeP, in dlopt and in evaluation,
  // summed over the solved guesses; skipped and shared guesses run none
  // of the three.
  double makep_ms = 0.0;
  double dlopt_ms = 0.0;
  double eval_ms = 0.0;
  // Static width/solver classification of the first solved guess's
  // optimized program (the makeP shape is uniform across guesses), empty
  // when the run solved no guess.
  std::string width_report;
  // The witnessing guess (pretty-printed) when unsafe.
  std::string witness_guess;
};

DatalogVerdict DatalogVerify(const SimplSystem& sys,
                             const DatalogVerifierOptions& options = {});

}  // namespace rapar

#endif  // RAPAR_ENCODING_DATALOG_VERIFIER_H_
