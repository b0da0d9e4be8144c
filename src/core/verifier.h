// SafetyVerifier: the library's main entry point.
//
//   ParamSystem sys = ParamSystem::Builder().Env(producer).Dis(consumer)
//                         .Build().value();
//   SafetyVerifier verifier(sys);
//   VerifierOptions options;                   // pick backend + knobs
//   Verdict v = verifier.Run(std::nullopt, options);  // assert-false
//   Verdict m = verifier.Run(std::pair{x, d}, options);  // MG (§4.1)
//
// Run() is the single entry point: the goal selects the question
// (std::nullopt = assert-false reachability, a (var, val) pair = Message
// Generation), VerifierOptions::backend selects the engine.
//
// Backends:
//   kSimplifiedExplorer — saturation over the simplified semantics (§3);
//                         sound & complete (Theorem 3.4), the default.
//   kDatalog            — Theorem 4.1: enumerate makeP guesses, evaluate
//                         the emitted Cache Datalog query instances.
//   kConcrete           — standard RA semantics with a fixed number of env
//                         threads (sound for bugs; not parameterized).
//   kTmai               — thread-modular abstract interpretation (see
//                         tmai/tmai.h): sound for kSafe, never kUnsafe;
//                         answers kUnknown when the abstraction reaches
//                         the error location. A kSafe carries an
//                         invariant certificate that Run has checked.
//   kPortfolio          — a cascade on the calling thread: TMAI first, and
//                         when it cannot prove kSafe, the Datalog backend,
//                         whose verdict is returned unchanged.
//
// Results carry a single obs::Telemetry registry with every statistic the
// run produced under a stable dotted name (see obs/telemetry.h); query
// Verdict::telemetry for the counts.
#ifndef RAPAR_CORE_VERIFIER_H_
#define RAPAR_CORE_VERIFIER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "analysis/prepass.h"
#include "core/param_system.h"
#include "datalog/engine.h"
#include "dlopt/optimize.h"
#include "encoding/datalog_verifier.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tmai/tmai.h"

namespace rapar {

enum class Backend {
  kSimplifiedExplorer,
  kDatalog,
  kConcrete,
  kTmai,
  kPortfolio,
};

// Knobs that only the Datalog backend reads.
struct DatalogBackendOptions {
  // Not knobs: the verifier reads neither. rabench's traced replay
  // (rabench/traced_main.cpp) drains its cursor in chunks of
  // `vo.datalog.batch_size` and evaluates with `vo.datalog.engine` (the
  // dl::EngineOptions defaults the verifier solves with), and the
  // benchmark's files change only in a benchmark change of their own;
  // that change gives the replay its own values and deletes both
  // constants (a benchmark follow-up in ROADMAP.md item 1).
  static constexpr std::size_t batch_size = 32;
  static constexpr dl::EngineOptions engine{};
  // ---- Checkpoint / resume (DESIGN.md §8) ----
  // Resume: skip global indices below start_index (scanned by a previous
  // run, typically a CursorCheckpoint's next_index); the guess count
  // includes them, so it matches an uninterrupted run.
  std::size_t start_index = 0;
  // Periodic checkpoint emission: every `checkpoint_every` scanned
  // guesses (0 = off) plus whenever the scan stops without a definitive
  // verdict, a CursorCheckpoint goes through the sink (the CLI stamps its
  // query digest and writes it to --checkpoint=FILE atomically).
  std::size_t checkpoint_every = 0;
  std::function<void(const CursorCheckpoint&)> checkpoint_sink;
  // Stop after this many scanned guesses in this invocation (0 =
  // unlimited); deterministic truncation for kill-and-resume
  // (stopped_phase becomes "scan-limit").
  std::size_t scan_limit = 0;
};

// Knobs that only the concrete (standard-RA) backend reads.
struct ConcreteBackendOptions {
  static constexpr int kMaxEnvThreads = 4096;
  // Number of env threads in the verified instance, in [1,
  // kMaxEnvThreads] (the range the CLI's --threads and serve's
  // env_threads accept); Run throws std::invalid_argument outside it.
  int env_threads = 2;
};

// Not knobs: TMAI runs one configuration from every front door, the
// kAuto cascade (small-set first, the relational domain only on a
// small-set kUnknown; see tmai/tmai.h) with tmai::TmaiOptions' bounds,
// and the portfolio cascade's first stage runs the same. RunTmai reads
// these copies, serve's fingerprint header writes them, and rabench's
// traced replay (rabench/traced_main.cpp) reads them through
// `vo.tmai.*` to reproduce `tmai.iterations`; the benchmark change that
// gives the replay the verifier's fixed configuration deletes them (a
// benchmark follow-up in ROADMAP.md item 1).
struct TmaiBackendOptions {
  static constexpr tmai::Domain domain = tmai::Domain::kAuto;
  static constexpr int max_iterations = tmai::TmaiOptions{}.max_iterations;
  static constexpr int widening_delay = tmai::TmaiOptions{}.widening_delay;
  static constexpr int value_set_limit =
      tmai::TmaiOptions{}.value_set_limit;
};

// Observability configuration. The recorder pointer is borrowed — the
// caller owns it and keeps it alive across the Verify call; null (the
// default) disables tracing at near-zero cost (see obs/trace.h).
struct ObsOptions {
  obs::TraceRecorder* trace = nullptr;
};

struct VerifierOptions {
  Backend backend = Backend::kSimplifiedExplorer;
  // Run the analysis pre-pass (dead-edge elimination, guard folding,
  // store slicing, dead-assignment dropping — see analysis/prepass.h)
  // before handing the CFAs to the backend. Verdict-preserving; the
  // pruned counts are reported in the prepass.* metrics.
  bool enable_prepass = true;
  // Per-backend knobs, grouped by the backend that reads them.
  DatalogBackendOptions datalog;
  ConcreteBackendOptions concrete;
  TmaiBackendOptions tmai;
  ObsOptions obs;
  // Resource bounds (apply per backend as applicable). time_budget_ms is
  // a wall-clock deadline that the explorers and the Datalog guess scan
  // enforce cooperatively; on expiry without a definitive answer the
  // verdict is kUnknown and Verdict::stopped_phase names the phase that
  // was cut short. TMAI reads no deadline: tmai.max_iterations bounds it
  // instead.
  std::size_t max_states = 1'000'000;
  int max_depth = 100'000;
  long long time_budget_ms = 0;
  std::size_t max_guesses = 200'000;
};

struct Verdict {
  enum class Result { kSafe, kUnsafe, kUnknown };
  Result result = Result::kUnknown;

  bool unsafe() const { return result == Result::kUnsafe; }
  bool safe() const { return result == Result::kSafe; }

  // Human-readable witness (step trace or guess) when unsafe.
  std::string witness;
  // §4.3: over-approximate number of env threads sufficient to exhibit
  // the bug (from the witness dependency graph); unset when safe or not
  // computed.
  std::optional<long long> env_thread_bound;
  // Static width/solver classification of the optimized program of the
  // first guess the Datalog backend solves; empty when it solves none
  // and on the other backends.
  std::string width_report;
  // Why a kUnknown verdict stopped short: the phase a wall-clock deadline
  // stopped ("explore" for the state-space backends, "solve" for the
  // Datalog guess scan), "scan-limit" when
  // DatalogBackendOptions::scan_limit stopped the guess scan, or
  // "fixpoint" when TMAI's fixpoint did not converge within
  // tmai.max_iterations. Empty when none of these fired, and always on
  // kSafe and kUnsafe: an answer found before the stop is definitive.
  std::string stopped_phase;
  // Which backend actually produced this verdict ("simplified",
  // "datalog", "concrete", "tmai", or "portfolio:tmai" /
  // "portfolio:datalog" for the cascade stage that decided). Filled by
  // every Run* path so envelopes stay unambiguous.
  std::string backend;
  // Every statistic of the run, keyed by the stable names in
  // obs/telemetry.h (verify.*, engine.*, datalog.*, prepass.*, dlopt.*,
  // tmai.*, phase.*).
  obs::Telemetry telemetry;
  // Machine-checkable invariant certificate justifying a TMAI kSafe
  // verdict (tmai/certcheck.h). Set only when the TMAI backend (directly
  // or as the portfolio's first stage) proved safety; null otherwise, so
  // certificate-free JSON envelopes are unchanged. Run returns one only
  // after tmai::CheckCertificate accepted it against the system it was
  // proved on (a rejected one turns the verdict into kUnknown); anyone
  // can check it again with `rapar_cli certcheck`.
  std::shared_ptr<const tmai::Certificate> certificate;

  std::string ToString() const;
};

class SafetyVerifier {
 public:
  explicit SafetyVerifier(const ParamSystem& system) : system_(system) {}

  // The single entry point. The goal selects the question — std::nullopt
  // asks assert-false reachability, a (var, val) pair asks Message
  // Generation (§4.1) — and options.backend selects the engine. The
  // per-backend Run* entry points this replaced live on as file-local
  // dispatch targets in verifier.cpp. Throws std::invalid_argument,
  // before any exploration, when the concrete backend is asked for an
  // env-thread count outside [1, kMaxEnvThreads].
  Verdict Run(std::optional<std::pair<VarId, Value>> goal,
              const VerifierOptions& options = {}) const;

 private:
  const ParamSystem& system_;
};

}  // namespace rapar

#endif  // RAPAR_CORE_VERIFIER_H_
