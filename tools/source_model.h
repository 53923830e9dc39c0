// source_model — the file model dash_lint and dash_analyze both run over.
//
// Both checkers are token-level (no LLVM dependency): they match words in
// a "code view" of every line in which comments, string/char literals
// (raw strings included) and preprocessor directives (with backslash
// continuations) are blanked, so `// std::thread` in prose or
// "make_unique" in a string never trips a rule. Blanking preserves line
// numbers and the column of every surviving token.
//
// Escape hatch, shared by both tools: a comment
//   // <tool>: allow(rule[, rule...])
// (<tool> is dash-lint or dash-analyze) suppresses each named rule on the
// comment's own line and on the line directly below it. Suppressions are
// counted and listed by both CLIs so they stay visible in review.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dash::source {

struct Diagnostic {
  std::string file;  // repo-relative path, forward slashes
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  // Machine-readable "file:line: rule-id: message".
  std::string ToString() const;
};

// One input file: `path` is the repo-relative name used in diagnostics
// and allow-comment lookups, `content` the full text.
struct SourceFile {
  std::string path;
  std::string content;
};

struct CodeView {
  std::vector<std::string> raw;   // the file's lines, '\r' dropped
  std::vector<std::string> code;  // `raw` with non-code blanked to spaces
  // line (1-based) -> rule ids named by an allow comment on that line
  std::map<int, std::set<std::string>> allows;

  // True when an allow comment on `line` or the line above names `rule`.
  bool Allowed(int line, const std::string& rule) const;
};

// Splits `content` into lines and builds the code view and the allow map
// for comments of the form `<allow_marker>: allow(...)`.
CodeView Scan(const std::string& content, const std::string& allow_marker);

// Every *.h / *.cc under <root>/src and <root>/tools, sorted by path, with
// repo-relative forward-slash paths.
std::vector<SourceFile> ReadTree(const std::string& root);

bool IsIdentChar(char c);

// Position of `word` in `s` at or after `from` as a whole word (the
// characters adjacent to the match are not identifier characters), or
// npos. `word` may contain '::' qualifiers.
std::size_t FindWord(const std::string& s, const std::string& word,
                     std::size_t from = 0);

bool ContainsWord(const std::string& s, const std::string& word);

// Whole word `name` immediately (modulo spaces and tabs) followed by '('.
bool ContainsCall(const std::string& s, const std::string& name);

}  // namespace dash::source
