#include "common/json.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace rapar {

namespace {

// Appends `s` to `out` escaped for a JSON string literal (quotes not
// included): runs of bytes that need no escaping go in with one append.
void AppendEscaped(std::string_view s, std::string* out) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

void JsonWriter::Newline() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::Misuse(const char* what) const {
  assert(false && "JsonWriter misuse");
  throw std::logic_error(std::string("JsonWriter misuse: ") + what);
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back().object) {
      Misuse("value inside an object requires a preceding Key");
    }
    if (stack_.back().has_value) out_ += ',';
    if (pretty_) Newline();
    stack_.back().has_value = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame{true, false});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  if (after_key_) Misuse("EndObject after a Key with no value");
  if (stack_.empty() || !stack_.back().object) {
    Misuse("EndObject without a matching BeginObject");
  }
  const bool had = stack_.back().has_value;
  stack_.pop_back();
  if (had && pretty_) Newline();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame{false, false});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  if (after_key_) Misuse("EndArray after a Key with no value");
  if (stack_.empty() || stack_.back().object) {
    Misuse("EndArray without a matching BeginArray");
  }
  const bool had = stack_.back().has_value;
  stack_.pop_back();
  if (had && pretty_) Newline();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (after_key_) Misuse("Key immediately after Key");
  if (stack_.empty() || !stack_.back().object) {
    Misuse("Key outside of an object");
  }
  if (stack_.back().has_value) out_ += ',';
  if (pretty_) Newline();
  stack_.back().has_value = true;
  out_ += '"';
  AppendEscaped(key, &out_);
  out_ += pretty_ ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(value, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser. Depth-limited so adversarially nested input
// cannot blow the stack (our own emitters never get close).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<JsonValue> Parse() {
    JsonValue v;
    std::string err;
    if (!ParseValue(&v, &err, 0)) return Expected<JsonValue>::Error(err);
    SkipWs();
    if (pos_ != text_.size()) {
      return Expected<JsonValue>::Error(
          "trailing garbage at offset " + std::to_string(pos_));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(std::string* err, const std::string& what) {
    *err = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool ParseValue(JsonValue* out, std::string* err, int depth) {
    if (depth > kMaxDepth) return Fail(err, "nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Fail(err, "unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, err, depth);
      case '[':
        return ParseArray(out, err, depth);
      case '"': {
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string, err);
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out->kind = JsonValue::Kind::kBool;
          out->boolean = true;
          return true;
        }
        return Fail(err, "invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out->kind = JsonValue::Kind::kBool;
          out->boolean = false;
          return true;
        }
        return Fail(err, "invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return true;
        }
        return Fail(err, "invalid literal");
      default:
        return ParseNumber(out, err);
    }
  }

  bool ParseObject(JsonValue* out, std::string* err, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail(err, "expected object key");
      }
      std::string key;
      if (!ParseString(&key, err)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail(err, "expected ':'");
      }
      ++pos_;
      JsonValue v;
      if (!ParseValue(&v, err, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) return Fail(err, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail(err, "expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, std::string* err, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!ParseValue(&v, err, depth + 1)) return false;
      out->items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) return Fail(err, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail(err, "expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out, std::string* err) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            if (!ParseHex4(&code, err)) return false;
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Fail(err, "unpaired low surrogate");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: a \uDC00..\uDFFF low half must follow, and
              // the pair decodes to one supplementary-plane code point.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Fail(err, "unpaired high surrogate");
              }
              pos_ += 2;
              unsigned low = 0;
              if (!ParseHex4(&low, err)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail(err, "unpaired high surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            // UTF-8 encode (1-4 bytes).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xF0 | (code >> 18));
              *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail(err, "bad escape");
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Fail(err, "unterminated string");
  }

  bool ParseHex4(unsigned* code, std::string* err) {
    if (pos_ + 4 > text_.size()) return Fail(err, "bad \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Fail(err, "bad \\u escape");
      }
    }
    return true;
  }

  bool ParseNumber(JsonValue* out, std::string* err) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail(err, "expected value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail(err, "bad number");
    if (tok.find_first_of(".eE") == std::string::npos) {
      // Exact integer token. Telemetry counters are emitted as full
      // uint64, so non-negative tokens parse through strtoull; either
      // direction overflowing its type is a parse error rather than a
      // silently clamped value.
      errno = 0;
      if (tok[0] == '-') {
        const long long ll = std::strtoll(tok.c_str(), nullptr, 10);
        if (errno == ERANGE) return Fail(err, "integer out of range");
        out->number_is_int = true;
        out->integer = ll;
      } else {
        const unsigned long long ull = std::strtoull(tok.c_str(), nullptr, 10);
        if (errno == ERANGE) return Fail(err, "integer out of range");
        out->number_is_uint = true;
        out->uinteger = ull;
        if (ull <= static_cast<unsigned long long>(
                       std::numeric_limits<long long>::max())) {
          out->number_is_int = true;
          out->integer = static_cast<long long>(ull);
        }
      }
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expected<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

void WriteJsonValue(const JsonValue& value, JsonWriter* w) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      w->Null();
      break;
    case JsonValue::Kind::kBool:
      w->Bool(value.boolean);
      break;
    case JsonValue::Kind::kNumber:
      if (value.number_is_uint) {
        w->UInt(value.uinteger);
      } else if (value.number_is_int) {
        w->Int(value.integer);
      } else {
        w->Double(value.number);
      }
      break;
    case JsonValue::Kind::kString:
      w->String(value.string);
      break;
    case JsonValue::Kind::kArray:
      w->BeginArray();
      for (const JsonValue& item : value.items) WriteJsonValue(item, w);
      w->EndArray();
      break;
    case JsonValue::Kind::kObject:
      w->BeginObject();
      for (const auto& [key, member] : value.members) {
        w->Key(key);
        WriteJsonValue(member, w);
      }
      w->EndObject();
      break;
  }
}

}  // namespace rapar
