#include "obs/trace.h"

#include <atomic>
#include <fstream>

#include "common/json.h"

namespace rapar::obs {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceRecorder::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t TraceRecorder::CurrentThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceRecorder::RecordComplete(const char* name, std::uint64_t ts_us,
                                   std::uint64_t dur_us,
                                   std::string args_json) {
  const std::uint32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      TraceEvent{name, 'X', ts_us, dur_us, tid, std::move(args_json)});
}

void TraceRecorder::RecordInstant(const char* name, std::string args_json) {
  const std::uint32_t tid = CurrentThreadId();
  const std::uint64_t ts = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{name, 'i', ts, 0, tid, std::move(args_json)});
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TraceEvent& e : events_) {
      w.BeginObject();
      w.Key("name").String(e.name);
      w.Key("cat").String("rapar");
      w.Key("ph").String(std::string(1, e.phase));
      w.Key("ts").UInt(e.ts_us);
      if (e.phase == 'X') w.Key("dur").UInt(e.dur_us);
      if (e.phase == 'i') w.Key("s").String("t");  // thread-scoped instant
      w.Key("pid").Int(1);
      w.Key("tid").UInt(e.tid);
      if (!e.args_json.empty()) w.Key("args").Raw(e.args_json);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToChromeTraceJson() << '\n';
  return out.good();
}

}  // namespace rapar::obs
