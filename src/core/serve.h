// Verification service: the long-running daemon behind `rapar_cli serve`.
//
// A ServeSession reads newline-delimited JSON requests (one verify/mg
// request per line), handles each in arrival order on the thread that
// drives the session, and answers each with the standard versioned result
// envelope (core/result_json.h) on a single line — the same schema
// one-shot `rapar_cli verify --format=json` emits, plus three serve-only
// fields (`id` echo, `fingerprint`, `cache`).
//
// Request schema (all fields except "command" optional; unknown top-level
// fields are ignored, mirroring the envelope's versioning contract, but
// an "options" key outside the list below is a decode error):
//
//   {"id": <any json>,            // echoed back verbatim
//    "command": "verify" | "mg",
//    "env": "<program text>",     // or "env_file": "<path>"
//    "dis": ["<text>", ...],      // or "dis_files": ["<path>", ...]
//    "var": "<name>", "val": N,   // mg goal message
//    "options": {"backend": "simplified|datalog|concrete|tmai|portfolio",
//                "unroll": K, "enable_prepass": B, "env_threads": N,
//                "max_states": N, "max_depth": N, "time_budget_ms": N,
//                "max_guesses": N}}
//
// "portfolio" runs TMAI and, when TMAI cannot prove the system safe, the
// Datalog backend, both on the session's thread. TMAI runs one fixed
// configuration (TmaiBackendOptions in core/verifier.h): it has no
// option keys, and its retired keys ("tmai_domain",
// "tmai_max_iterations", "tmai_widening_delay", "tmai_value_set_limit")
// answer "unknown option" like every other key outside the list.
//
// Every line is one request. A line that is not a request object — a
// JSON array or scalar, or an object without "command" such as
// {"requests":[...]} — answers one error envelope like any other
// malformed request. There is no batch framing: a client sends N
// requests as N lines.
//
// Malformed requests answer a one-line error envelope (command "error",
// exit_code 3) and the daemon keeps serving. Integer option fields are
// range-checked during decoding: an out-of-range value (e.g. an
// "env_threads" that would not survive the narrowing cast, or a negative
// "max_states", "max_guesses" or "time_budget_ms") is a decode error,
// never a silently wrapped knob or a default. Unset options take the
// VerifierOptions defaults, except "time_budget_ms", which defaults to
// 30000 (the CLI's default too). Internal failures — a backend
// exception, an allocation failure mid-render — answer the same error
// envelope: errors never kill the stream.
//
// In front of the pipeline sits a verdict cache with one index, keyed by
// the request as sent: the option header (the command, the goal and
// every option field that reaches a backend) followed by the env and dis
// texts as decoded (file contents, never paths). A repeat of the request
// that filled an entry is answered from it without parsing, building or
// canonicalizing anything, an entry with a TMAI certificate included:
// SafetyVerifier::Run checks every certificate where it is made, before
// the miss fills the entry. Any other request is a miss, a reformatted
// copy of a cached program included; misses run the pipeline and
// populate a bounded LRU. The envelope's `fingerprint` is the digest of
// a canonical normalization — the pretty-printed programs (post-unroll),
// the system's class signature, the goal and every option field that
// reaches the backends — so a reformatted copy answers the same
// fingerprint as the text it copies. Only definitive verdicts
// (safe/unsafe with no truncation) are memoized — an unknown produced by
// a deadline is wall-clock state, not a fact about the program. See
// DESIGN.md §12 for the cache-correctness argument.
//
// Replay contract: every hit replays without parsing. It renders the
// memoized entry verbatim, so modulo telemetry and the cache marker it is
// byte-identical to the miss that populated it, which is what the
// catalog-replay differential asserts. Every echoed option is part of the
// request key, so the echo is the current request's too. Telemetry is the
// exception — cache/serve counters are re-stamped from the session, and
// the parse-time gauge reads 0, what the hit spent parsing.
#ifndef RAPAR_CORE_SERVE_H_
#define RAPAR_CORE_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace rapar::serve {

struct ServeOptions {
  // Read by nothing: a session handles its requests on the one thread
  // that drives it. Kept only because the benchmark drivers
  // (rabench/timed_main.cpp, rabench/traced_main.cpp) assign it; the
  // benchmark change that drops those assignments deletes it.
  unsigned threads = 0;
  // Verdict-cache bounds: maximum resident entries and an approximate
  // resident-bytes ceiling (each entry's fixed size plus its request key,
  // digest, signature, witness, width report, telemetry names and
  // certificate — nothing whose size depends on timing, so the figure and
  // the eviction point are reproducible). Either bound evicts
  // least-recently-used entries; cache_entries = 0 disables the cache
  // entirely.
  std::size_t cache_entries = 1024;
  std::size_t cache_bytes = 64u << 20;
};

// Session-cumulative cache counters (also stamped into every response's
// telemetry as cache.hits/misses/evictions/bytes).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;    // current resident estimate, not cumulative
  std::uint64_t entries = 0;  // current resident entries
};

// One thread drives a session, as with dl::Engine, MakePEncoder and
// DisGuessCursor: HandleLine, Run and cache_stats must not be called
// concurrently on one session.
class ServeSession {
 public:
  explicit ServeSession(const ServeOptions& options = {});
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Handles one request line and returns exactly one response line (no
  // trailing newline). Never throws — an exception escaping the pipeline
  // is answered as an error envelope, like a malformed request.
  std::string HandleLine(std::string_view line);

  // Reads requests from `in` until EOF, skipping blank lines, and answers
  // each with HandleLine before reading the next: one response line per
  // request on `out`, in request order, flushed as it is written, so a
  // synchronous request/response client never has to send more input to
  // receive its answer.
  void Run(std::istream& in, std::ostream& out);

  CacheStats cache_stats() const;

 private:
  struct Impl;
  std::string HandleLineImpl(std::string_view line);
  std::unique_ptr<Impl> impl_;
};

}  // namespace rapar::serve

#endif  // RAPAR_CORE_SERVE_H_
