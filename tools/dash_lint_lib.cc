#include "dash_lint_lib.h"

#include <map>
#include <vector>

namespace dash::lint {

namespace {

using source::ContainsCall;
using source::ContainsWord;
using source::IsIdentChar;

// Rank of a top-level module directory in the include-layer order
// (util < db < sql|tpch < webapp < mapreduce < core < baseline < testing
// < tools); -1 when the directory is not a layer.
int LayerRank(const std::string& dir) {
  static const std::map<std::string, int> kRank = {
      {"util", 0},   {"db", 1},        {"sql", 2},  {"tpch", 2},
      {"webapp", 3}, {"mapreduce", 4}, {"core", 5}, {"baseline", 6},
      {"testing", 7}, {"tools", 8}};
  auto it = kRank.find(dir);
  return it == kRank.end() ? -1 : it->second;
}

// line (1-based) -> include target as written, e.g. "<iostream>" or
// "\"util/x.h\"".
std::map<int, std::string> ParseIncludes(const std::vector<std::string>& raw) {
  std::map<int, std::string> includes;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& line = raw[i];
    std::size_t j = line.find_first_not_of(" \t");
    if (j == std::string::npos || line[j] != '#') continue;
    j = line.find_first_not_of(" \t", j + 1);
    if (j == std::string::npos || line.compare(j, 7, "include") != 0) continue;
    j = line.find_first_not_of(" \t", j + 7);
    if (j == std::string::npos) continue;
    char close = line[j] == '<' ? '>' : (line[j] == '"' ? '"' : '\0');
    if (close == '\0') continue;
    std::size_t end = line.find(close, j + 1);
    if (end == std::string::npos) continue;
    includes[static_cast<int>(i) + 1] = line.substr(j, end - j + 1);
  }
  return includes;
}

class Linter {
 public:
  Linter(std::string path, const std::string& content)
      : path_(std::move(path)),
        view_(source::Scan(content, "dash-lint")),
        includes_(ParseIncludes(view_.raw)) {}

  Report Run() {
    if (RuleApplies("raw-thread")) CheckRawThread();
    if (RuleApplies("nondeterminism")) CheckNondeterminism();
    if (RuleApplies("unordered-iter")) CheckUnorderedIteration();
    if (RuleApplies("global-state")) CheckGlobalState();
    if (RuleApplies("iostream-hotpath")) CheckIostream();
    if (RuleApplies("layer-cycle")) CheckLayerCycle();
    report_.files_scanned = 1;
    return std::move(report_);
  }

 private:
  bool StartsWith(const std::string& prefix) const {
    return path_.rfind(prefix, 0) == 0;
  }

  bool RuleApplies(const std::string& rule) const {
    if (rule == "raw-thread") {
      return path_ != "src/util/thread_pool.h" &&
             path_ != "src/util/thread_pool.cc";
    }
    if (rule == "nondeterminism") {
      return StartsWith("src/core/") || StartsWith("src/mapreduce/");
    }
    if (rule == "unordered-iter") return StartsWith("src/core/");
    if (rule == "global-state") return true;
    if (rule == "iostream-hotpath") {
      return StartsWith("src/core/") || StartsWith("src/db/");
    }
    if (rule == "layer-cycle") return true;
    return false;
  }

  // The layer directory this file belongs to: the segment after "src/",
  // or "tools" for the linter/fuzzer sources. Empty when the path is not
  // inside a layer (fixture paths in tests, say).
  std::string FileLayerDir() const {
    if (StartsWith("tools/")) return "tools";
    if (!StartsWith("src/")) return "";
    std::size_t begin = 4;  // past "src/"
    std::size_t slash = path_.find('/', begin);
    if (slash == std::string::npos) return "";
    return path_.substr(begin, slash - begin);
  }

  void Emit(int line, const std::string& rule, std::string message) {
    Diagnostic d{path_, line, rule, std::move(message)};
    if (view_.Allowed(line, rule)) {
      report_.allowed.push_back(std::move(d));
    } else {
      report_.violations.push_back(std::move(d));
    }
  }

  void CheckRawThread() {
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& line = view_.code[i];
      for (const char* token : {"std::thread", "std::jthread", "std::async"}) {
        if (ContainsWord(line, token)) {
          Emit(static_cast<int>(i) + 1, "raw-thread",
               std::string(token) +
                   " outside util/thread_pool; use util::ThreadPool "
                   "(Submit/ParallelFor)");
        }
      }
    }
  }

  void CheckNondeterminism() {
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& line = view_.code[i];
      int ln = static_cast<int>(i) + 1;
      for (const char* call : {"rand", "srand", "time", "clock"}) {
        if (ContainsCall(line, call)) {
          Emit(ln, "nondeterminism",
               std::string(call) +
                   "() is nondeterministic; core/mapreduce must be "
                   "seed-replayable (util/random.h SplitMix64)");
        }
      }
      for (const char* token :
           {"std::random_device", "std::chrono::system_clock"}) {
        if (ContainsWord(line, token)) {
          Emit(ln, "nondeterminism",
               std::string(token) +
                   " is nondeterministic; core/mapreduce must be "
                   "seed-replayable (util/random.h SplitMix64)");
        }
      }
    }
  }

  // Variables declared in this file with an unordered container type.
  std::vector<std::string> UnorderedNames() const {
    std::vector<std::string> names;
    for (const std::string& line : view_.code) {
      for (const char* kind : {"unordered_map", "unordered_set",
                               "unordered_multimap", "unordered_multiset"}) {
        std::size_t pos = 0;
        while ((pos = line.find(kind, pos)) != std::string::npos) {
          std::size_t j = pos + std::string(kind).size();
          pos = j;
          // Skip the template argument list (balanced angle brackets).
          std::size_t k = j;
          while (k < line.size() && (line[k] == ' ' || line[k] == '\t')) ++k;
          if (k >= line.size() || line[k] != '<') continue;
          int depth = 0;
          while (k < line.size()) {
            if (line[k] == '<') ++depth;
            if (line[k] == '>') {
              --depth;
              if (depth == 0) {
                ++k;
                break;
              }
            }
            ++k;
          }
          if (depth != 0) continue;  // args span lines: give up on this decl
          while (k < line.size() && (line[k] == ' ' || line[k] == '\t' ||
                                     line[k] == '&')) {
            ++k;
          }
          std::size_t name_begin = k;
          while (k < line.size() && IsIdentChar(line[k])) ++k;
          if (k > name_begin) {
            std::string name = line.substr(name_begin, k - name_begin);
            if (name != "iterator" && name != "const_iterator") {
              names.push_back(std::move(name));
            }
          }
        }
      }
    }
    return names;
  }

  void CheckUnorderedIteration() {
    std::vector<std::string> names = UnorderedNames();
    if (names.empty()) return;
    constexpr int kSortWindow = 12;  // lines after the loop header
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& line = view_.code[i];
      // Find a range-for header: `for (... : range)` (the range expression
      // may not span lines — good enough for this codebase).
      std::size_t fpos = 0;
      while ((fpos = line.find("for", fpos)) != std::string::npos) {
        bool word = (fpos == 0 || !IsIdentChar(line[fpos - 1])) &&
                    (fpos + 3 >= line.size() || !IsIdentChar(line[fpos + 3]));
        if (!word) {
          fpos += 3;
          continue;
        }
        std::size_t open = line.find('(', fpos + 3);
        if (open == std::string::npos) break;
        // Top-level ':' that is not part of '::'.
        std::size_t colon = std::string::npos;
        for (std::size_t k = open + 1; k < line.size(); ++k) {
          if (line[k] == ':' &&
              (k + 1 >= line.size() || line[k + 1] != ':') &&
              (k == 0 || line[k - 1] != ':')) {
            colon = k;
            break;
          }
        }
        if (colon == std::string::npos) break;
        std::string range = line.substr(colon + 1);
        bool hits = false;
        for (const std::string& name : names) {
          if (ContainsWord(range, name)) hits = true;
        }
        if (hits) {
          bool sorted_nearby = false;
          for (std::size_t j = i;
               j < view_.code.size() && j <= i + kSortWindow; ++j) {
            const std::string& near = view_.code[j];
            if (near.find("sort(") != std::string::npos ||
                near.find("Canonicalize") != std::string::npos) {
              sorted_nearby = true;
              break;
            }
          }
          if (!sorted_nearby) {
            Emit(static_cast<int>(i) + 1, "unordered-iter",
                 "iteration over unordered container feeds output without a "
                 "canonical sort nearby; sort, or justify with an allow "
                 "comment");
          }
        }
        break;  // one range-for per line is enough
      }
    }
  }

  void CheckGlobalState() {
    struct Scope {
      bool is_namespace;
      bool is_initializer;  // brace belongs to a declaration's initializer
    };
    std::vector<Scope> scopes;
    auto at_ns_scope = [&] {
      for (const Scope& s : scopes) {
        if (!s.is_namespace && !s.is_initializer) return false;
        if (s.is_initializer) return false;
      }
      return true;
    };
    std::string stmt;
    int stmt_line = 0;
    for (std::size_t li = 0; li < view_.code.size(); ++li) {
      const std::string& line = view_.code[li];
      for (char c : line) {
        if (c == '{') {
          if (!at_ns_scope()) {
            scopes.push_back({false, false});
            continue;
          }
          std::string t = stmt;
          while (!t.empty() && (t.back() == ' ' || t.back() == '\t')) {
            t.pop_back();
          }
          if (ContainsWord(t, "namespace")) {
            scopes.push_back({true, false});
            stmt.clear();
          } else if (t.empty() || t.back() == ')' ||
                     t.find('(') != std::string::npos ||
                     ContainsWord(t, "class") || ContainsWord(t, "struct") ||
                     ContainsWord(t, "union") || ContainsWord(t, "enum") ||
                     ContainsWord(t, "extern")) {
            scopes.push_back({false, false});  // type/function/linkage body
            stmt.clear();
          } else {
            scopes.push_back({false, true});  // braced initializer
          }
        } else if (c == '}') {
          bool was_init = false;
          if (!scopes.empty()) {
            was_init = scopes.back().is_initializer;
            scopes.pop_back();
          }
          // Closing a body at namespace scope ends the construct; closing
          // an initializer (or any brace nested inside one) leaves the
          // pending declaration intact until its ';'.
          if (!was_init && at_ns_scope()) stmt.clear();
        } else if (c == ';') {
          if (at_ns_scope()) {
            CheckNamespaceDecl(stmt, stmt_line);
          }
          stmt.clear();
        } else if (at_ns_scope()) {
          if (stmt.empty() && (c == ' ' || c == '\t')) continue;
          if (stmt.empty()) stmt_line = static_cast<int>(li) + 1;
          stmt.push_back(c);
        }
      }
      if (at_ns_scope() && !stmt.empty()) stmt.push_back(' ');
    }
  }

  void CheckNamespaceDecl(const std::string& stmt, int line) {
    if (stmt.find_first_not_of(" \t") == std::string::npos) return;
    // Declarations that are immutable, synchronisation primitives, or not
    // variables at all.
    for (const char* kw :
         {"using", "typedef", "template", "friend", "static_assert",
          "extern", "operator", "struct", "class", "union", "enum",
          "namespace", "const", "constexpr", "constinit", "consteval",
          "thread_local", "requires", "concept", "return", "if", "while",
          "public", "private", "protected"}) {
      if (ContainsWord(stmt, kw)) return;
    }
    if (stmt.find('(') != std::string::npos) return;  // function-ish
    for (const char* type_ok :
         {"Mutex", "mutex", "atomic", "once_flag", "CondVar",
          "condition_variable"}) {
      if (stmt.find(type_ok) != std::string::npos) return;
    }
    if (stmt.find("GUARDED_BY") != std::string::npos) return;
    // Needs at least a type token and a name token.
    int ident_tokens = 0;
    bool in_token = false;
    for (char c : stmt) {
      if (IsIdentChar(c)) {
        if (!in_token) ++ident_tokens;
        in_token = true;
      } else {
        in_token = false;
      }
    }
    if (ident_tokens < 2) return;
    Emit(line, "global-state",
         "mutable namespace-scope state without DASH_GUARDED_BY; guard it "
         "with a dash::util::Mutex (or make it const/atomic)");
  }

  void CheckIostream() {
    // <ostream>/<istream> are fine: the save/load APIs take stream
    // references. The ban is on *console* I/O — <iostream> drags in the
    // global stream objects, and cout/cerr writes bypass util/logging's
    // level filter and sink fanout.
    for (const auto& [line, target] : includes_) {
      if (target == "<iostream>") {
        Emit(line, "iostream-hotpath",
             "iostream include in a hot-path module; use util/logging "
             "(DASH_LOG) instead");
      }
    }
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& line = view_.code[i];
      for (const char* token : {"std::cout", "std::cerr", "std::cin",
                                "std::clog"}) {
        if (ContainsWord(line, token)) {
          Emit(static_cast<int>(i) + 1, "iostream-hotpath",
               std::string(token) +
                   " in a hot-path module; use util/logging (DASH_LOG)");
        }
      }
    }
  }

  void CheckLayerCycle() {
    const std::string dir = FileLayerDir();
    const int rank = LayerRank(dir);
    if (rank < 0) return;
    for (const auto& [line, target] : includes_) {
      // Only quoted project includes participate; system headers and
      // same-directory siblings (no path separator) are out of scope.
      if (target.size() < 2 || target.front() != '"') continue;
      std::string inner = target.substr(1, target.size() - 2);
      std::size_t slash = inner.find('/');
      if (slash == std::string::npos) continue;
      std::string head = inner.substr(0, slash);
      int target_rank = LayerRank(head);
      if (target_rank < 0) continue;  // not a layer directory
      // Sub-layer rule within src/core: the router sits ABOVE the rest of
      // core (it composes engines, shard nodes, and services into a
      // cluster). Only search_router itself may include its header from
      // inside core — any other core file doing so would invert the
      // serving stack (e.g. sharded_engine depending on the router that
      // drives it). testing/ and tools/ rank above core and stay free to.
      if (dir == "core" && inner == "core/search_router.h" &&
          path_ != "src/core/search_router.h" &&
          path_ != "src/core/search_router.cc") {
        Emit(line, "layer-cycle",
             "include \"core/search_router.h\" from inside src/core; the "
             "router is core's top sub-layer — only search_router.{h,cc} "
             "may include it");
        continue;
      }
      if (head == dir || target_rank < rank) continue;
      Emit(line, "layer-cycle",
           "include \"" + inner + "\" reaches layer '" + head +
               "' from layer '" + dir +
               "'; the include order is util < db < sql|tpch < webapp < "
               "mapreduce < core < baseline < testing < tools");
    }
  }

  std::string path_;
  source::CodeView view_;
  std::map<int, std::string> includes_;
  Report report_;
};

}  // namespace

Report LintFile(const std::string& path, const std::string& content) {
  return Linter(path, content).Run();
}

Report LintTree(const std::string& root) {
  Report total;
  for (const auto& file : source::ReadTree(root)) {
    Report r = LintFile(file.path, file.content);
    total.files_scanned += r.files_scanned;
    for (auto& d : r.violations) total.violations.push_back(std::move(d));
    for (auto& d : r.allowed) total.allowed.push_back(std::move(d));
  }
  return total;
}

std::string RuleCatalog() {
  return
      "raw-thread        std::thread/std::jthread/std::async are only\n"
      "                  allowed in src/util/thread_pool.{h,cc}; everything\n"
      "                  else uses util::ThreadPool.\n"
      "nondeterminism    rand()/srand()/time()/clock()/std::random_device/\n"
      "                  std::chrono::system_clock are banned in src/core\n"
      "                  and src/mapreduce; use util/random.h (SplitMix64).\n"
      "unordered-iter    in src/core, a range-for over an unordered\n"
      "                  container declared in the same file needs a\n"
      "                  canonical sort within 12 lines (hash order must\n"
      "                  not reach output).\n"
      "global-state      namespace-scope mutable variables must be\n"
      "                  DASH_GUARDED_BY a mutex, atomic, or const.\n"
      "iostream-hotpath  src/core and src/db must not use <iostream>/\n"
      "                  std::cout/std::cerr; use util/logging.\n"
      "layer-cycle       quoted includes must respect the module layering\n"
      "                  util < db < sql|tpch < webapp < mapreduce < core <\n"
      "                  baseline < testing < tools: a layer may include\n"
      "                  itself or any strictly lower layer, never upward\n"
      "                  (e.g. nothing under src/db/ may include core/...).\n"
      "                  Within src/core, core/search_router.h is a top\n"
      "                  sub-layer: only search_router.{h,cc} may include\n"
      "                  it (the router composes core, never the reverse).\n"
      "\n"
      "Suppress findings with `// dash-lint: allow(rule[, rule...])` on the\n"
      "same line or the line above; suppressions are listed in the summary.\n";
}

}  // namespace dash::lint
