// Helpers shared by the benchmark's two executables: process-CPU clock,
// flag parsing, the line-buffered record file the supervisor reads, and
// reading telemetry counters back.
#ifndef RABENCH_DRIVER_UTIL_H_
#define RABENCH_DRIVER_UTIL_H_

#include <malloc.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"

namespace rabench {

// Process CPU time in nanoseconds (all threads, so the DisGuessCursor
// producer thread is counted).
inline std::int64_t CpuNs() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

// Returns freed heap to the OS and resets the process's peak-RSS mark
// (Linux clear_refs), so PeakRssKb() then reports the peak of what runs
// in between rather than what earlier replicates left behind.
inline void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// VmHWM of /proc/self/status in KiB (0 if unavailable).
inline long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  long kb = 0;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> kb;
      break;
    }
  }
  return kb;
}

// --name value flags after the mode word.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad argument '" + k + "'");
      }
      values_[k.substr(2)] = argv[++i];
    }
  }
  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = values_.find(k);
    return it == values_.end() ? def : it->second;
  }
  long long Int(const std::string& k, long long def) const {
    auto it = values_.find(k);
    return it == values_.end() ? def : std::stoll(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// Append-only record file: one JSON object per line, flushed per line so
// a process killed by a signal leaves every completed record on disk.
class RecordFile {
 public:
  explicit RecordFile(const std::string& path)
      : f_(std::fopen(path.c_str(), "a")) {
    if (f_ == nullptr) throw std::runtime_error("cannot open " + path);
  }
  ~RecordFile() { std::fclose(f_); }
  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  void Line(const std::string& json) {
    std::fputs(json.c_str(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
  }

 private:
  std::FILE* f_;
};

// "3,17,42" -> {3, 17, 42}; empty items are skipped.
inline std::vector<std::uint32_t> ParseIndexList(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }
  return out;
}

// A counter of a parsed telemetry object (0 when absent).
inline std::uint64_t JsonCounter(const rapar::JsonValue* obj,
                                 const char* key) {
  const rapar::JsonValue* v = obj != nullptr ? obj->Find(key) : nullptr;
  if (v == nullptr || !v->is_number()) return 0;
  return v->number_is_uint ? v->uinteger
                           : static_cast<std::uint64_t>(v->number);
}

}  // namespace rabench

#endif  // RABENCH_DRIVER_UTIL_H_
