// Small string-building helpers (GCC 12 lacks <format>).
#ifndef RAPAR_COMMON_STRINGS_H_
#define RAPAR_COMMON_STRINGS_H_

#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rapar {

namespace strings_internal {

template <typename T>
inline constexpr bool kIsCharLike =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

// Appends `v` exactly as `std::ostringstream() << v` would render it with
// default formatting: strings and characters verbatim (one-byte integers
// are characters to a stream), bool as 0/1, other integers in decimal.
// Every other type (floating point, ids, enums) goes through a stream.
template <typename T>
void Append(std::string& out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.append(std::string_view(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    out.push_back(v ? '1' : '0');
  } else if constexpr (kIsCharLike<T>) {
    out.push_back(static_cast<char>(v));
  } else if constexpr (std::is_integral_v<T>) {
    char buf[std::numeric_limits<T>::digits10 + 3];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += os.str();
  }
}

}  // namespace strings_internal

// Concatenates the stream renderings of all arguments:
// StrCat("x=", 3, "!") == "x=3!". Strings, characters, bool and integers
// are appended directly; other types fall back to operator<<.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::Append(out, args), ...);
  return out;
}

// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

// Renders the 1-based `line` of `text` with a caret under 1-based `col`:
//
//    7 |       r := undeclared_name
//      |            ^
//
// Returns "" when `line` is out of range (e.g. positions from synthetic
// programs). Shared by parser errors and analysis diagnostics so both
// render source context identically.
std::string SourceCaret(const std::string& text, int line, int col);

// The whole contents of the file at `path`; nullopt when it cannot be
// opened. The one file reader of the library and its front ends.
std::optional<std::string> ReadFile(const std::string& path);

}  // namespace rapar

#endif  // RAPAR_COMMON_STRINGS_H_
