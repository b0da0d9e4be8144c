// One JSON writer (and a small validating parser) for every
// machine-readable surface of the tool: `rapar_cli verify/lint/dlanalyze
// --format=json`, the Chrome trace-event export (src/obs/trace.h) and the
// bench_backends BENCH_*.json artifacts all render through JsonWriter
// instead of hand-rolled printf emitters, so escaping and number
// formatting are identical everywhere. The parser exists for the
// consumers we own — golden-schema tests and CI gates that must reject
// malformed output — not as a general-purpose JSON library.
#ifndef RAPAR_COMMON_JSON_H_
#define RAPAR_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.h"

namespace rapar {

// Streaming JSON writer with bracket/comma bookkeeping. Values are
// written in call order; Key must precede every value inside an object.
// With pretty=true, objects and arrays break onto indented lines.
//
// Misuse (End* without a matching Begin*, Key outside an object or twice
// in a row, a value inside an object without a preceding Key) is a hard
// error: assert in debug builds, std::logic_error in release. The writer
// backs every machine-readable surface of the tool, so an unbalanced
// document must never escape silently.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(long long value);
  JsonWriter& UInt(std::uint64_t value);
  // Doubles render with up to 17 significant digits, trimmed — enough to
  // round-trip, without printf noise like 0.10000000000000001.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // Splices pre-rendered JSON verbatim (the caller vouches for validity).
  JsonWriter& Raw(std::string_view json);

  // The document so far. Valid once every bracket is closed.
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();
  void Newline();
  [[noreturn]] void Misuse(const char* what) const;

  std::string out_;
  bool pretty_ = false;
  // One frame per open object/array: whether a value was already written
  // (comma needed) and whether the pending value follows a Key.
  struct Frame {
    bool object = false;
    bool has_value = false;
  };
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

// Parsed JSON document (used by tests, tools that validate our own
// output, and the serve-mode request decoder). Numbers are kept as
// double plus exact integer views: `integer` when the token fits int64,
// `uinteger` when a non-negative token fits uint64 (telemetry counters
// are emitted as full uint64, so [INT64_MAX+1, UINT64_MAX] is a real
// range). Integer tokens outside both ranges are a parse error, never a
// silently saturated value.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  bool number_is_int = false;
  long long integer = 0;
  bool number_is_uint = false;
  std::uint64_t uinteger = 0;
  std::string string;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_null() const { return kind == Kind::kNull; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses a complete JSON document (trailing whitespace allowed, trailing
// garbage rejected). Errors carry a byte offset.
Expected<JsonValue> ParseJson(std::string_view text);

// Re-emits a parsed value through `w`. Integer-token numbers round-trip
// exactly (uint64-range counters included); everything our own writers
// produce re-emits byte-identically, which is what makes replayed cache
// envelopes and the round-trip fuzz oracle work.
void WriteJsonValue(const JsonValue& value, JsonWriter* w);

}  // namespace rapar

#endif  // RAPAR_COMMON_JSON_H_
