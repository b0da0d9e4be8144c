// rapar_obs: low-overhead scoped-span tracing for the verification
// pipeline, exported as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing).
//
// Design constraints, in order:
//   1. Zero cost when off. Tracing is off when no TraceRecorder is
//      installed (the pointer in VerifierOptions::obs is null). ScopedSpan
//      then reduces to a pointer test — no clock read, no allocation, no
//      lock — so the instrumented hot paths (per-guess solves, dlopt
//      passes) cost nothing in the common case. The bench_backends obs
//      ablation row keeps this honest (≤ 5% is the acceptance bar; the
//      observed cost is noise-level).
//   2. Trustworthy when on. Spans are steady-clock timed and tagged with
//      a small per-thread id, so spans recorded on different threads land
//      on their own tracks and nest correctly under the driver's phase
//      spans in Perfetto.
//   3. Verdict-neutral. Recording only appends to a buffer; nothing the
//      verifier computes depends on it (tests/obs_differential_test.cpp
//      asserts bit-identical verdicts with tracing on vs off).
//
// The recorder is not a general profiler: events are kept in memory and
// written once at the end (WriteFile / ToChromeTraceJson). A verify run
// emits O(phases + guesses) events — tiny next to the solves themselves.
#ifndef RAPAR_OBS_TRACE_H_
#define RAPAR_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rapar::obs {

// One recorded trace event (Chrome trace-event model).
struct TraceEvent {
  const char* name;       // static string: span names are literals
  char phase;             // 'X' complete, 'i' instant
  std::uint64_t ts_us;    // start, µs since the recorder's epoch
  std::uint64_t dur_us;   // duration ('X' only)
  std::uint32_t tid;      // small per-thread id (1 = first thread seen)
  std::string args_json;  // pre-rendered JSON object, or empty
};

// Thread-safe append-only event sink. One recorder per traced run; the
// epoch is captured at construction so timestamps start near zero.
class TraceRecorder {
 public:
  TraceRecorder();

  // Microseconds since the recorder's epoch (steady clock).
  std::uint64_t NowUs() const;

  // Appends a complete ('X') event. `args_json` must be a rendered JSON
  // object ("{...}") or empty.
  void RecordComplete(const char* name, std::uint64_t ts_us,
                      std::uint64_t dur_us, std::string args_json = {});
  // Appends an instant ('i') event at the current time.
  void RecordInstant(const char* name, std::string args_json = {});

  std::size_t size() const;

  // {"displayTimeUnit": "ms", "traceEvents": [...]} — the format
  // Perfetto and chrome://tracing load directly.
  std::string ToChromeTraceJson() const;
  // Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

  // The small per-thread id used for tagging (assigned on first use,
  // process-wide; stable for the lifetime of the thread).
  static std::uint32_t CurrentThreadId();

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// RAII span: times the enclosing scope and records a complete event on
// destruction. With a null recorder every member is a no-op — callers
// instrument unconditionally and pay only a branch.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name)
      : recorder_(recorder), name_(name) {
    if (recorder_ != nullptr) start_us_ = recorder_->NowUs();
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->RecordComplete(name_, start_us_,
                                recorder_->NowUs() - start_us_,
                                std::move(args_json_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // True when a recorder is installed — guard for arg-string building so
  // the StrCat cost is also skipped when tracing is off.
  bool active() const { return recorder_ != nullptr; }
  // Attaches a rendered JSON object ("{...}") shown in the trace viewer.
  void set_args(std::string args_json) { args_json_ = std::move(args_json); }

 private:
  TraceRecorder* recorder_;
  const char* name_;
  std::uint64_t start_us_ = 0;
  std::string args_json_;
};

// Null-safe instant-event helper for one-shot markers (early exit,
// budget abort, deadline).
inline void TraceInstant(TraceRecorder* recorder, const char* name,
                         std::string args_json = {}) {
  if (recorder != nullptr) {
    recorder->RecordInstant(name, std::move(args_json));
  }
}

}  // namespace rapar::obs

#endif  // RAPAR_OBS_TRACE_H_
