// Verification service: the long-running daemon behind `rapar_cli serve`.
//
// A ServeSession reads newline-delimited JSON requests (one verify/mg
// request per line), dispatches them onto a persistent ThreadPool
// (one FIFO queue), and answers each with the standard versioned result envelope
// (core/result_json.h) on a single line — the same schema one-shot
// `rapar_cli verify --format=json` emits, plus three serve-only fields
// (`id` echo, `fingerprint`, `cache`).
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
//                "tmai_domain": "smallset|relational|auto",
//                "tmai_max_iterations": N, "tmai_widening_delay": N,
//                "tmai_value_set_limit": N, "max_states": N,
//                "max_depth": N, "time_budget_ms": N, "max_guesses": N}}
//
// "portfolio" runs TMAI and, when TMAI cannot prove the system safe, the
// Datalog backend, both on the worker that took the request.
//
// Batch requests: a line whose top-level object has a "requests" member
// bundles several requests into one round trip —
//
//   {"id": <any json>, "requests": [<request>, <request>, ...]}
//
// answered as one line {"id": ..., "responses": [<envelope>, ...]} with
// the response envelopes in request order. Each element is exactly the
// envelope the same request would have received on its own line
// (including per-request id echo and error envelopes for malformed
// elements — one bad element never fails its siblings), and the batch
// shares the verdict cache's single-flight coalescing, so duplicate
// requests inside one batch run the pipeline once. Lines without a
// top-level "requests" member are byte-identical to the pre-batch
// protocol.
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
// In front of the pipeline sits a content-addressed verdict cache:
// requests are fingerprinted by a canonical normalization — the pretty-
// printed programs (post-unroll), the system's class signature, the goal,
// and every option field that reaches the backends — so two requests
// collide exactly when they would run the same verification. Each entry
// is also indexed by the request key of the miss that filled it: the
// same option header followed by the env and dis texts as decoded (file
// contents, never paths). A repeat of that request is answered from the
// entry without parsing, building or canonicalizing anything; any other
// hit (reformatted program text, or an entry carrying a TMAI
// certificate) parses and probes by the canonical key. Hits replay the
// memoized verdict (a certificate re-validated via
// tmai::CheckCertificate, cache/serve telemetry re-stamped); misses run
// the pipeline and populate a bounded LRU. Only definitive verdicts
// (safe/unsafe with no truncation) are memoized — an unknown produced by
// a deadline is wall-clock state, not a fact about the program. See
// DESIGN.md §12 for the cache-correctness argument.
//
// Replay contract: a hit renders the memoized entry verbatim, so modulo
// telemetry and the cache marker it is byte-identical to the miss that
// populated it, which is what the catalog-replay differential asserts.
// Every echoed option is part of both keys, so the echo is the current
// request's too. Telemetry is the exception — cache/serve counters are
// re-stamped from the session, and the parse-time gauge holds what this
// request spent parsing: 0 on a hit answered by its request key, the
// measured parse and build on a hit that went through the canonical key.
#ifndef RAPAR_CORE_SERVE_H_
#define RAPAR_CORE_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace rapar {
struct JsonValue;
}

namespace rapar::serve {

struct ServeOptions {
  // Worker threads for the request pool. 0 = hardware concurrency;
  // 1 = no pool, requests handled inline on the caller's thread.
  unsigned threads = 0;
  // Verdict-cache bounds: maximum resident entries and an approximate
  // resident-bytes ceiling (canonical key + request key + rendered
  // verdict). Either bound evicts least-recently-used entries;
  // cache_entries = 0 disables the cache entirely.
  std::size_t cache_entries = 1024;
  std::size_t cache_bytes = 64u << 20;
  // Indent response envelopes (default off: one response per line, the
  // wire format).
  bool pretty = false;
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

class ServeSession {
 public:
  explicit ServeSession(const ServeOptions& options = {});
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Handles one request line and returns exactly one response line (no
  // trailing newline). Thread-safe: Run() calls this from every pool
  // worker concurrently. Never throws — an exception escaping the
  // pipeline is answered as an error envelope, like a malformed request.
  std::string HandleLine(std::string_view line);

  // Reads requests from `in` until EOF and writes one response line per
  // request to `out`, in request order. Requests are handled
  // concurrently on the pool (bounded in-flight window); ordering is
  // restored on output, and each response is written as soon as it
  // reaches the front of the window — a synchronous request/response
  // client never has to send more input to receive a finished answer.
  void Run(std::istream& in, std::ostream& out);

  CacheStats cache_stats() const;

 private:
  struct Impl;
  std::string HandleLineImpl(std::string_view line);
  // One parsed request object -> one rendered envelope (no trailing
  // newline). The single-request and batch paths share it.
  std::string HandleRequestDoc(const JsonValue& doc);
  std::unique_ptr<Impl> impl_;
};

}  // namespace rapar::serve

#endif  // RAPAR_CORE_SERVE_H_
