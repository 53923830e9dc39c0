#include "source_model.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace dash::source {

namespace {

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

// Records every rule id of every `<marker>: allow(a, b, ...)` comment.
std::map<int, std::set<std::string>> ParseAllowComments(
    const std::vector<std::string>& raw, const std::string& allow_marker) {
  const std::string marker = allow_marker + ": allow(";
  std::map<int, std::set<std::string>> allows;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& line = raw[i];
    const int lineno = static_cast<int>(i) + 1;
    std::size_t pos = 0;
    while ((pos = line.find(marker, pos)) != std::string::npos) {
      const std::size_t open = pos + marker.size();
      const std::size_t close = line.find(')', open);
      if (close != std::string::npos) {
        std::string rule;
        for (char c : line.substr(open, close - open)) {
          if (c == ',') {
            if (!rule.empty()) allows[lineno].insert(rule);
            rule.clear();
          } else if (c != ' ') {
            rule.push_back(c);
          }
        }
        if (!rule.empty()) allows[lineno].insert(rule);
      }
      pos += 1;
    }
  }
  return allows;
}

// True when the `'` at line[quote] separates digits of a number literal
// (1'000, 0xFF'FF, 0b1010'1010): the run of identifier characters and
// earlier separators before it starts with a digit. A run starting with a
// letter is an encoding prefix (u8'a', L'x'), so the quote opens a
// character literal.
bool IsDigitSeparator(const std::string& line, std::size_t quote) {
  std::size_t start = quote;
  while (start > 0 &&
         (IsIdentChar(line[start - 1]) || line[start - 1] == '\'')) {
    --start;
  }
  return start < quote &&
         std::isdigit(static_cast<unsigned char>(line[start])) != 0;
}

// Blanks comments, string/char literals (including raw strings), and
// preprocessor directives (with backslash continuations), preserving line
// structure so diagnostics keep their positions.
std::vector<std::string> BuildCodeView(const std::vector<std::string>& raw) {
  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
    kPreprocessor
  };
  State state = State::kNormal;
  std::string raw_delim;  // for raw strings: the ")delim" terminator
  std::vector<std::string> code(raw.size());
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& in = raw[li];
    std::string out(in.size(), ' ');
    if (state == State::kLineComment) state = State::kNormal;
    std::size_t i = 0;
    // A preprocessor directive can only start at the beginning of a line.
    if (state == State::kNormal) {
      std::size_t first = in.find_first_not_of(" \t");
      if (first != std::string::npos && in[first] == '#') {
        state = State::kPreprocessor;
      }
    }
    while (i < in.size()) {
      char c = in[i];
      char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kNormal:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            i = in.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            i += 2;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !IsIdentChar(in[i - 1]))) {
            std::size_t open = in.find('(', i + 2);
            if (open != std::string::npos) {
              raw_delim = ")" + in.substr(i + 2, open - (i + 2)) + "\"";
              state = State::kRawString;
              i = open + 1;
            } else {
              i += 2;  // malformed; skip
            }
          } else if (c == '"') {
            state = State::kString;
            ++i;
          } else if (c == '\'' && !IsDigitSeparator(in, i)) {
            state = State::kChar;
            ++i;
          } else {
            out[i] = c;
            ++i;
          }
          break;
        case State::kString:
        case State::kChar:
          if (c == '\\') {
            i += 2;
          } else if ((state == State::kString && c == '"') ||
                     (state == State::kChar && c == '\'')) {
            state = State::kNormal;
            ++i;
          } else {
            ++i;
          }
          break;
        case State::kRawString: {
          std::size_t end = in.find(raw_delim, i);
          if (end == std::string::npos) {
            i = in.size();
          } else {
            i = end + raw_delim.size();
            state = State::kNormal;
          }
          break;
        }
        case State::kBlockComment: {
          std::size_t end = in.find("*/", i);
          if (end == std::string::npos) {
            i = in.size();
          } else {
            i = end + 2;
            state = State::kNormal;
          }
          break;
        }
        case State::kPreprocessor:
        case State::kLineComment:
          i = in.size();  // rest of the line blanked
          break;
      }
    }
    if (state == State::kPreprocessor) {
      // Continue only when the raw line ends with a backslash.
      std::size_t last = in.find_last_not_of(" \t");
      if (last == std::string::npos || in[last] != '\\') {
        state = State::kNormal;
      }
    }
    if (state == State::kString || state == State::kChar) {
      state = State::kNormal;  // unterminated literal: recover per line
    }
    code[li] = std::move(out);
  }
  return code;
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << file << ":" << line << ": " << rule << ": " << message;
  return out.str();
}

bool CodeView::Allowed(int line, const std::string& rule) const {
  for (int l : {line, line - 1}) {
    auto it = allows.find(l);
    if (it != allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

CodeView Scan(const std::string& content, const std::string& allow_marker) {
  CodeView view;
  view.raw = SplitLines(content);
  view.code = BuildCodeView(view.raw);
  view.allows = ParseAllowComments(view.raw, allow_marker);
  return view;
}

std::vector<SourceFile> ReadTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools"}) {
    fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      fs::path ext = entry.path().extension();
      if (ext == ".h" || ext == ".cc") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    files.push_back(
        {fs::relative(p, fs::path(root)).generic_string(), content.str()});
  }
  return files;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t FindWord(const std::string& s, const std::string& word,
                     std::size_t from) {
  std::size_t pos = from;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

bool ContainsWord(const std::string& s, const std::string& word) {
  return FindWord(s, word) != std::string::npos;
}

bool ContainsCall(const std::string& s, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = FindWord(s, name, pos)) != std::string::npos) {
    std::size_t after = pos + name.size();
    while (after < s.size() && (s[after] == ' ' || s[after] == '\t')) ++after;
    if (after < s.size() && s[after] == '(') return true;
    pos += 1;
  }
  return false;
}

}  // namespace dash::source
