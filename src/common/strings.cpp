#include "common/strings.h"

#include <fstream>

namespace rapar {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string SourceCaret(const std::string& text, int line, int col) {
  if (line < 1 || col < 1) return "";
  std::size_t start = 0;
  for (int l = 1; l < line; ++l) {
    start = text.find('\n', start);
    if (start == std::string::npos) return "";
    ++start;
  }
  std::size_t end = text.find('\n', start);
  if (end == std::string::npos) end = text.size();
  std::string src = text.substr(start, end - start);
  // Tabs would misalign the caret; render them as single spaces.
  for (char& c : src) {
    if (c == '\t') c = ' ';
  }
  const std::string num = StrCat(line);
  const std::string gutter(num.size(), ' ');
  std::string caret(static_cast<std::size_t>(col - 1), ' ');
  caret += '^';
  return StrCat("  ", num, " | ", src, "\n  ", gutter, " | ", caret);
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace rapar
