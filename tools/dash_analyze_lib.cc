#include "dash_analyze_lib.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

namespace dash::analyze {
namespace {

using source::ContainsCall;
using source::ContainsWord;
using source::FindWord;
using source::IsIdentChar;

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Like ContainsCall, but only matches member-call syntax (`x.name(` or
// `x->name(`). Used for tokens like `Join` that name both a blocking member
// (std::thread::join) and innocuous free functions (util::Join on strings).
bool ContainsMemberCall(const std::string& line, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = FindWord(line, name, pos)) != std::string::npos) {
    const bool member =
        (pos >= 1 && line[pos - 1] == '.') ||
        (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
    std::size_t after = pos + name.size();
    while (after < line.size() && line[after] == ' ') after += 1;
    if (member && after < line.size() && line[after] == '(') return true;
    pos += 1;
  }
  return false;
}

// Like ContainsCall, but also accepts a balanced template-argument list
// between the name and '(' — matches `make_unique<Payload>()`.
bool ContainsCallTemplated(const std::string& line, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = FindWord(line, name, pos)) != std::string::npos) {
    std::size_t after = pos + name.size();
    while (after < line.size() && line[after] == ' ') after += 1;
    if (after < line.size() && line[after] == '<') {
      int depth = 0;
      while (after < line.size()) {
        if (line[after] == '<') depth += 1;
        if (line[after] == '>') {
          depth -= 1;
          if (depth == 0) {
            after += 1;
            break;
          }
        }
        after += 1;
      }
      while (after < line.size() && line[after] == ' ') after += 1;
    }
    if (after < line.size() && line[after] == '(') return true;
    pos += 1;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-file parse results.
// ---------------------------------------------------------------------------

struct CallSite {
  std::string name;      // possibly qualified: "util::Tokenize", "Foo::Bar"
  std::string receiver;  // identifier before '.'/'->' ("" when complex)
  bool member_call = false;
  int line = 0;
  std::vector<std::string> held;  // qualified mutexes held at the call
};

// Sink categories: 'a' alloc, 'l' lock, 'g' log, 'b' block.
struct SinkSite {
  char category = 0;
  std::string token;
  int line = 0;
  std::vector<std::string> held;
  std::string wait_arg;  // first argument of a Wait(...) call, for exemption
};

struct LockAcq {
  std::string mutex;  // qualified: "Class::mutex_"
  int line = 0;
  std::vector<std::string> held_before;
};

struct FunctionInfo {
  std::string qualified;  // "Class::name" or free "name"
  std::string cls;        // "" for free functions
  std::string file;
  int line = 0;
  bool hot = false;
  bool cold = false;
  bool blocking = false;
  std::vector<CallSite> calls;
  std::vector<SinkSite> sinks;
  std::vector<LockAcq> acquires;
  std::vector<std::string> acquire_anno;  // DASH_ACQUIRE(...) mutexes
  // `.get()` sites: promoted to block sinks in phase B when the function or
  // its class has std::future evidence.
  std::vector<std::pair<int, std::vector<std::string>>> get_sites;
  std::vector<std::pair<int, std::string>> stmts;  // for type inference
  bool mentions_future = false;
};

struct DeclMarkers {
  bool hot = false;
  bool cold = false;
  bool blocking = false;
  std::vector<std::string> acquire;
};

struct ParsedFile {
  std::string path;
  source::CodeView view;
  std::vector<FunctionInfo> functions;
  std::set<std::string> classes;
  std::map<std::string, std::vector<std::string>> class_members;
  std::map<std::string, DeclMarkers> decl_markers;  // qualified name
};

// ---------------------------------------------------------------------------
// The statement/scope parser.
// ---------------------------------------------------------------------------

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",     "else", "for",     "while", "do",  "switch",
      "try",    "catch", "case",   "default",
  };
  return kSet;
}

const std::set<std::string>& SkipCallNames() {
  static const std::set<std::string> kSet = {
      "if",       "for",        "while",      "switch",   "return",
      "sizeof",   "catch",      "throw",      "delete",   "decltype",
      "alignof",  "alignas",    "noexcept",   "assert",   "static_assert",
      "defined",  "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "typeid", "new", "operator", "void", "int",
      "bool", "char", "auto", "explicit", "co_await",
  };
  return kSet;
}

// Method names shared with the STL container/utility vocabulary. When a
// receiver's type cannot be inferred, a call to one of these must NOT fall
// back to "every method of that name in the repo": `items_.size()` on a
// std::deque would otherwise resolve to (and inherit the locks of) every
// repo accessor that happens to be called size().
bool IsCommonStlName(const std::string& name) {
  static const std::set<std::string> kSet = {
      "size",       "empty",     "clear",    "reserve",   "resize",
      "find",       "count",     "contains", "begin",     "end",
      "rbegin",     "rend",      "front",    "back",      "erase",
      "insert",     "push_back", "pop_back", "push_front", "pop_front",
      "emplace",    "emplace_back", "emplace_front", "at", "data",
      "swap",       "get",       "reset",    "release",   "load",
      "store",      "exchange",  "fetch_add", "fetch_sub", "compare_exchange_weak",
      "compare_exchange_strong", "str", "c_str", "substr", "append",
      "assign",     "length",    "splice",   "merge",     "value",
      "value_or",   "has_value", "first",    "second",    "lock",
      "unlock",     "native_handle",
  };
  return kSet.count(name) > 0;
}

bool IsMacroLikeName(const std::string& name) {
  // DASH_* annotation macros, gtest EXPECT_/ASSERT_ (fixtures may carry
  // test-shaped code).
  if (name.rfind("DASH_", 0) == 0) return true;
  if (name.rfind("EXPECT_", 0) == 0) return true;
  if (name.rfind("ASSERT_", 0) == 0) return true;
  return false;
}

std::string Trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

std::string FirstWord(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && !IsIdentStart(s[i])) {
    // Stop at anything that is not leading punctuation we expect before a
    // keyword (e.g. "} else" never reaches here because '}' is consumed by
    // the brace handler).
    if (s[i] != ' ' && s[i] != '\t') return "";
    ++i;
  }
  std::size_t j = i;
  while (j < s.size() && IsIdentChar(s[j])) ++j;
  return s.substr(i, j - i);
}

// First '(' outside any template-argument list; npos when none. Used to find
// the parameter list of a function header whose return type may itself
// contain parentheses inside <...> (std::function<void(std::size_t)>).
std::size_t FirstParenOutsideAngles(const std::string& s) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<') {
      if (i + 1 < s.size() && s[i + 1] == '<') {
        ++i;  // "<<": shift, not a template
        continue;
      }
      ++depth;
    } else if (c == '>') {
      if (i > 0 && s[i - 1] == '-') continue;  // "->"
      if (depth > 0) --depth;
    } else if (c == '(' && depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

// Walks back from `pos` (exclusive) over an identifier optionally qualified
// by "::" chains and a leading '~'. Returns "" when there is none.
std::string IdentChainEndingAt(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && s[end - 1] == ' ') --end;
  std::size_t begin = end;
  while (begin > 0) {
    char c = s[begin - 1];
    if (IsIdentChar(c) || c == '~') {
      --begin;
    } else if (c == ':' && begin > 1 && s[begin - 2] == ':') {
      begin -= 2;
    } else {
      break;
    }
  }
  return s.substr(begin, end - begin);
}

// Extracts the argument text of the first `name(...)` call in `s`, where a
// single identifier (the variable name) may sit between `name` and '(' —
// matches both `MutexLock lock(mu)` and `DASH_ACQUIRE(mu)`.
std::optional<std::string> CallArgAfter(const std::string& s,
                                        const std::string& name) {
  std::size_t pos = FindWord(s, name);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t i = pos + name.size();
  while (i < s.size() && s[i] == ' ') ++i;
  if (i < s.size() && IsIdentStart(s[i])) {  // variable name
    while (i < s.size() && IsIdentChar(s[i])) ++i;
    while (i < s.size() && s[i] == ' ') ++i;
  }
  if (i >= s.size() || s[i] != '(') return std::nullopt;
  int depth = 0;
  std::size_t open = i;
  for (; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') {
      --depth;
      if (depth == 0) return Trim(s.substr(open + 1, i - open - 1));
    }
  }
  return std::nullopt;
}

// "a, b , c" -> {"a","b","c"}.
std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : args) {
    if (c == '(' || c == '<') ++depth;
    if (c == ')' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      std::string t = Trim(cur);
      if (!t.empty()) out.push_back(t);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  std::string t = Trim(cur);
  if (!t.empty()) out.push_back(t);
  return out;
}

// Normalizes a mutex expression to its base identifier: "this->mu_" -> mu_,
// "&s->error_mutex" -> error_mutex, "mu" -> mu.
std::string MutexBaseName(const std::string& expr) {
  std::string e = Trim(expr);
  std::size_t cut = e.find_last_of(".>");
  if (cut != std::string::npos) e = e.substr(cut + 1);
  while (!e.empty() && !IsIdentChar(e.front())) e.erase(e.begin());
  while (!e.empty() && !IsIdentChar(e.back())) e.pop_back();
  return e;
}

class FileParser {
 public:
  FileParser(std::string path, const std::string& content)
      : path_(std::move(path)) {
    result_.path = path_;
    result_.view = source::Scan(content, "dash-analyze");
  }

  ParsedFile Run() {
    const std::vector<std::string>& code = result_.view.code;
    for (std::size_t li = 0; li < code.size(); ++li) {
      const std::string& line = code[li];
      const int lineno = static_cast<int>(li) + 1;
      for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '{' && !(paren_depth_ > 0 && InFunction())) {
          OpenBrace(lineno);
        } else if (c == '{') {
          // Brace at paren depth inside a function body: lambda body or
          // braced argument. Same handling — nested scope with restore.
          OpenBrace(lineno);
        } else if (c == '}') {
          CloseBrace();
        } else if (c == ';' && paren_depth_ == 0) {
          EndStatement(lineno);
        } else {
          if (c == '(') ++paren_depth_;
          if (c == ')' && paren_depth_ > 0) --paren_depth_;
          AppendChar(c, lineno);
        }
      }
      AppendChar(' ', lineno);
    }
    // Flush a trailing statement (files usually end cleanly).
    return std::move(result_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock, kExpr } kind;
    std::string name;                // namespace / class name
    std::vector<std::string> locks;  // mutexes acquired in this scope
    // kExpr: the interrupted statement, restored (and flattened) on close.
    std::string saved_stmt;
    int saved_paren = 0;
    int saved_line = 0;
    int fn_index = -1;  // kFunction
  };

  void AppendChar(char c, int lineno) {
    if (stmt_.empty()) {
      if (c == ' ' || c == '\t') return;
      stmt_line_ = lineno;
    }
    if ((c == ' ' || c == '\t') && !stmt_.empty() && stmt_.back() == ' ')
      return;
    stmt_.push_back(c == '\t' ? ' ' : c);
  }

  bool InFunction() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return true;
      if (it->kind == Scope::kClass || it->kind == Scope::kNamespace)
        return false;
    }
    return false;
  }

  FunctionInfo* CurrentFunction() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction)
        return &result_.functions[static_cast<std::size_t>(it->fn_index)];
      if (it->kind == Scope::kClass || it->kind == Scope::kNamespace)
        return nullptr;
    }
    return nullptr;
  }

  std::string CurrentClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kNamespace) return "";
      if (it->kind == Scope::kFunction) return "";  // local classes aside
    }
    return "";
  }

  std::vector<std::string> HeldLocks() const {
    std::vector<std::string> held;
    // Locks only live in scopes at or inside the current function.
    std::size_t fn_pos = scopes_.size();
    for (std::size_t i = scopes_.size(); i > 0; --i) {
      if (scopes_[i - 1].kind == Scope::kFunction) {
        fn_pos = i - 1;
        break;
      }
      if (scopes_[i - 1].kind == Scope::kClass ||
          scopes_[i - 1].kind == Scope::kNamespace) {
        return held;
      }
    }
    if (fn_pos == scopes_.size()) return held;
    for (std::size_t i = fn_pos; i < scopes_.size(); ++i) {
      for (const std::string& m : scopes_[i].locks) held.push_back(m);
    }
    return held;
  }

  bool AtTypeScope() const {
    if (scopes_.empty()) return true;
    Scope::Kind k = scopes_.back().kind;
    return k == Scope::kNamespace || k == Scope::kClass;
  }

  void OpenBrace(int lineno) {
    std::string t = Trim(stmt_);
    std::string head = FirstWord(t);
    Scope scope;
    scope.saved_line = stmt_line_;
    if (AtTypeScope()) {
      if (paren_depth_ > 0) {
        // Inside an open parameter list: a braced default argument
        // (`Opt o = {}`), not a body. Keep the declaration statement
        // alive so its markers still register.
        scope.kind = Scope::kExpr;
        scope.saved_stmt = stmt_;
        scope.saved_paren = paren_depth_;
      } else if (ContainsWord(t, "namespace")) {
        scope.kind = Scope::kNamespace;
        scope.name = IdentChainEndingAt(t, t.size());
      } else if (IsTypeDecl(t)) {
        scope.kind = Scope::kClass;
        scope.name = TypeName(t);
        if (!scope.name.empty()) result_.classes.insert(scope.name);
      } else if (FirstParenOutsideAngles(t) != std::string::npos) {
        scope.kind = Scope::kFunction;
        scope.fn_index = RegisterFunction(t, lineno, &scope);
      } else {
        scope.kind = Scope::kExpr;  // member brace-initializer
        scope.saved_stmt = stmt_;
        scope.saved_paren = paren_depth_;
      }
    } else {
      // Inside a function body.
      if (t.empty() || ControlKeywords().count(head) > 0) {
        scope.kind = Scope::kBlock;
      } else if (IsTypeDecl(t)) {
        scope.kind = Scope::kClass;  // function-local struct
        scope.name = TypeName(t);
        if (!scope.name.empty()) result_.classes.insert(scope.name);
      } else {
        // Lambda body or braced sub-expression: keep the surrounding
        // statement alive and flatten leftovers back into it on close.
        scope.kind = Scope::kExpr;
        scope.saved_stmt = stmt_;
        scope.saved_paren = paren_depth_;
      }
    }
    stmt_.clear();
    paren_depth_ = 0;
    scopes_.push_back(std::move(scope));
  }

  void CloseBrace() {
    // Stray '}' (unbalanced input) is ignored.
    if (scopes_.empty()) {
      stmt_.clear();
      return;
    }
    Scope top = std::move(scopes_.back());
    scopes_.pop_back();
    if (top.kind == Scope::kExpr) {
      std::string leftover = Trim(stmt_);
      stmt_ = top.saved_stmt;
      if (!leftover.empty()) {
        stmt_ += " " + leftover + " ";
      }
      paren_depth_ = top.saved_paren;
      stmt_line_ = top.saved_line;
    } else {
      stmt_.clear();
      paren_depth_ = 0;
    }
  }

  void EndStatement(int lineno) {
    std::string t = Trim(stmt_);
    stmt_.clear();
    paren_depth_ = 0;
    if (t.empty()) return;
    if (AtTypeScope()) {
      HandleDeclaration(t);
    } else if (FunctionInfo* fn = CurrentFunction()) {
      ProcessBodyStmt(*fn, t, stmt_line_);
    }
    (void)lineno;
  }

  static bool IsTypeDecl(const std::string& t) {
    if (!(ContainsWord(t, "class") || ContainsWord(t, "struct") ||
          ContainsWord(t, "union") || ContainsWord(t, "enum"))) {
      return false;
    }
    // `struct tm* f()` style headers: a '(' before the type keyword means a
    // function whose signature merely mentions one. A '=' means an
    // initializer mentioning a type.
    if (t.find('=') != std::string::npos) return false;
    std::size_t kw = std::min({FindWord(t, "class"), FindWord(t, "struct"),
                               FindWord(t, "union"), FindWord(t, "enum")});
    std::size_t paren = FirstParenOutsideAngles(t);
    return paren == std::string::npos || kw < paren;
  }

  static std::string TypeName(const std::string& t) {
    // Last identifier before the base-clause ':' (if any) or end of header.
    std::size_t end = t.size();
    int paren = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] == '(') ++paren;
      if (t[i] == ')') --paren;
      if (t[i] == ':' && paren == 0 &&
          (i + 1 >= t.size() || t[i + 1] != ':') && (i == 0 || t[i - 1] != ':')) {
        end = i;
        break;
      }
    }
    std::string name = IdentChainEndingAt(t, end);
    // Strip "final".
    if (name == "final") {
      std::size_t pos = t.rfind("final");
      name = IdentChainEndingAt(t, pos);
    }
    return name;
  }

  // Registers a function definition from its header statement; returns the
  // index in result_.functions. Seeds the function scope's lock set from
  // DASH_REQUIRES.
  int RegisterFunction(const std::string& header, int lineno, Scope* scope) {
    FunctionInfo fn;
    fn.file = path_;
    fn.line = stmt_line_ > 0 ? stmt_line_ : lineno;
    std::string name;
    if (ContainsWord(header, "operator")) {
      name = "(operator)";
    } else {
      std::size_t paren = FirstParenOutsideAngles(header);
      name = IdentChainEndingAt(header, paren);
    }
    if (name.empty()) name = "(anonymous)";
    std::size_t cut = name.rfind("::");
    if (cut != std::string::npos) {
      fn.cls = name.substr(0, cut);
      // Out-of-line definitions register their class too (the header file
      // may not be part of a fixture's file set).
      std::size_t inner = fn.cls.rfind("::");
      std::string leaf = inner == std::string::npos ? fn.cls
                                                    : fn.cls.substr(inner + 2);
      fn.cls = leaf;
      result_.classes.insert(leaf);
      name = leaf + "::" + name.substr(cut + 2);
    } else {
      std::string cls = CurrentClass();
      if (!cls.empty()) {
        fn.cls = cls;
        name = cls + "::" + name;
      }
    }
    fn.qualified = name;
    fn.hot = ContainsWord(header, "DASH_HOT_PATH");
    fn.cold = ContainsWord(header, "DASH_COLD_PATH");
    fn.blocking = ContainsWord(header, "DASH_BLOCKING");
    if (auto arg = CallArgAfter(header, "DASH_REQUIRES")) {
      for (const std::string& m : SplitArgs(*arg)) {
        scope->locks.push_back(Qualify(MutexBaseName(m), fn.cls));
      }
    }
    if (auto arg = CallArgAfter(header, "DASH_ACQUIRE")) {
      for (const std::string& m : SplitArgs(*arg)) {
        fn.acquire_anno.push_back(Qualify(MutexBaseName(m), fn.cls));
      }
    }
    result_.functions.push_back(std::move(fn));
    int index = static_cast<int>(result_.functions.size()) - 1;
    // The header doubles as a statement: constructor initializer lists call
    // functions and allocate, and parameter declarations feed receiver-type
    // inference.
    scope->fn_index = index;
    scopes_.push_back(*scope);  // temporarily, so ProcessBodyStmt sees it
    ProcessBodyStmt(result_.functions[static_cast<std::size_t>(index)], header,
                    fn_header_line(index));
    scopes_.pop_back();
    return index;
  }

  int fn_header_line(int index) const {
    return result_.functions[static_cast<std::size_t>(index)].line;
  }

  void HandleDeclaration(const std::string& t) {
    std::string cls = CurrentClass();
    std::size_t paren = FirstParenOutsideAngles(t);
    bool has_markers =
        ContainsWord(t, "DASH_HOT_PATH") || ContainsWord(t, "DASH_COLD_PATH") ||
        ContainsWord(t, "DASH_BLOCKING") || ContainsWord(t, "DASH_ACQUIRE");
    if (paren != std::string::npos && !ContainsWord(t, "operator")) {
      if (!has_markers) return;
      std::string name = IdentChainEndingAt(t, paren);
      if (name.empty()) return;
      if (name.rfind("::") == std::string::npos && !cls.empty()) {
        name = cls + "::" + name;
      }
      DeclMarkers& m = result_.decl_markers[name];
      m.hot = m.hot || ContainsWord(t, "DASH_HOT_PATH");
      m.cold = m.cold || ContainsWord(t, "DASH_COLD_PATH");
      m.blocking = m.blocking || ContainsWord(t, "DASH_BLOCKING");
      if (auto arg = CallArgAfter(t, "DASH_ACQUIRE")) {
        for (const std::string& a : SplitArgs(*arg)) {
          m.acquire.push_back(Qualify(MutexBaseName(a), cls));
        }
      }
    } else if (!cls.empty()) {
      result_.class_members[cls].push_back(t);
    }
  }

  std::string Qualify(const std::string& base, const std::string& cls) const {
    if (base.empty()) return base;
    if (base.find("::") != std::string::npos) return base;
    return cls.empty() ? base : cls + "::" + base;
  }

  void ProcessBodyStmt(FunctionInfo& fn, const std::string& t, int line) {
    fn.stmts.emplace_back(line, t);
    if (ContainsWord(t, "future")) fn.mentions_future = true;
    std::vector<std::string> held = HeldLocks();

    // Mutex acquisitions: util::MutexLock plus the std scoped lockers.
    static const char* kLockers[] = {"MutexLock", "lock_guard", "unique_lock",
                                     "scoped_lock"};
    for (const char* locker : kLockers) {
      if (!ContainsWord(t, locker)) continue;
      fn.sinks.push_back({'l', locker, line, held, ""});
      if (auto arg = CallArgAfter(t, locker)) {
        std::string m = Qualify(MutexBaseName(*arg), fn.cls);
        if (!m.empty()) {
          fn.acquires.push_back({m, line, held});
          if (!scopes_.empty()) scopes_.back().locks.push_back(m);
        }
      }
      break;
    }
    // Direct .Lock() / .TryLock() on a mutex object.
    if ((t.find(".Lock(") != std::string::npos ||
         t.find("->Lock(") != std::string::npos) &&
        !ContainsWord(t, "MutexLock")) {
      fn.sinks.push_back({'l', "Lock", line, held, ""});
    }

    // Allocation sinks.
    static const char* kAllocTemplated[] = {"make_unique", "make_shared"};
    for (const char* a : kAllocTemplated) {
      if (ContainsCallTemplated(t, a)) {
        fn.sinks.push_back({'a', a, line, held, ""});
      }
    }
    static const char* kAllocCalls[] = {"malloc", "calloc", "realloc",
                                        "strdup"};
    for (const char* a : kAllocCalls) {
      if (ContainsCall(t, a)) fn.sinks.push_back({'a', a, line, held, ""});
    }
    // `new` followed by a type name (placement/operator forms excluded by
    // requiring an identifier or '(' right after).
    std::size_t np = FindWord(t, "new");
    if (np != std::string::npos) {
      std::size_t after = np + 3;
      while (after < t.size() && t[after] == ' ') ++after;
      if (after < t.size() && (IsIdentStart(t[after]) || t[after] == '(')) {
        fn.sinks.push_back({'a', "new", line, held, ""});
      }
    }

    // Logging sinks.
    static const char* kLogWords[] = {"DASH_LOG", "cout", "cerr", "clog"};
    for (const char* w : kLogWords) {
      if (ContainsWord(t, w)) fn.sinks.push_back({'g', w, line, held, ""});
    }
    static const char* kLogCalls[] = {"LogMessage", "printf", "fprintf",
                                      "puts", "fputs"};
    for (const char* w : kLogCalls) {
      if (ContainsCall(t, w)) fn.sinks.push_back({'g', w, line, held, ""});
    }

    // Blocking sinks.
    static const char* kBlockCalls[] = {"sleep_for", "sleep_until", "accept",
                                        "Pop", "wait", "wait_for",
                                        "wait_until"};
    for (const char* w : kBlockCalls) {
      if (ContainsCall(t, w)) fn.sinks.push_back({'b', w, line, held, ""});
    }
    // Join/join only in member-call form: `t.join()` blocks on a thread,
    // while free `util::Join(parts, sep)` is string concatenation.
    for (const char* w : {"Join", "join"}) {
      if (ContainsMemberCall(t, w)) fn.sinks.push_back({'b', w, line, held, ""});
    }
    if (ContainsCall(t, "Wait")) {
      SinkSite s{'b', "Wait", line, held, ""};
      if (auto arg = CallArgAfter(t, "Wait")) {
        std::vector<std::string> args = SplitArgs(*arg);
        if (!args.empty()) s.wait_arg = MutexBaseName(args[0]);
      }
      fn.sinks.push_back(std::move(s));
    }
    // `.get()` is only blocking on futures; decided in phase B once class
    // member declarations are complete.
    if (t.find(".get()") != std::string::npos ||
        t.find("->get()") != std::string::npos) {
      fn.get_sites.emplace_back(line, held);
    }

    ExtractCalls(fn, t, line, held);
  }

  void ExtractCalls(FunctionInfo& fn, const std::string& t, int line,
                    const std::vector<std::string>& held) {
    for (std::size_t i = 0; i < t.size();) {
      if (!IsIdentStart(t[i])) {
        ++i;
        continue;
      }
      std::size_t begin = i;
      while (i < t.size() && IsIdentChar(t[i])) ++i;
      if (begin > 0 && (IsIdentChar(t[begin - 1]) || t[begin - 1] == '~')) {
        continue;  // mid-token (defensive; loop should not land here)
      }
      std::string word = t.substr(begin, i - begin);
      std::size_t j = i;
      while (j < t.size() && t[j] == ' ') ++j;
      bool templated = false;
      if (j < t.size() && t[j] == '<' &&
          (word == "make_unique" || word == "make_shared")) {
        // Capture template arguments: constructor edges.
        int depth = 0;
        std::size_t open = j;
        while (j < t.size()) {
          if (t[j] == '<') ++depth;
          if (t[j] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++j;
        }
        if (j < t.size()) {
          std::string inner = t.substr(open + 1, j - open - 1);
          for (const std::string& arg : SplitArgs(inner)) {
            std::string base = MutexBaseName(arg);
            if (!base.empty()) {
              fn.calls.push_back({base, "", false, line, held});
            }
          }
          ++j;
          while (j < t.size() && t[j] == ' ') ++j;
          templated = true;
        }
      }
      if (j >= t.size() || t[j] != '(') continue;
      if (templated) continue;  // make_* handled as sink + ctor edges
      if (SkipCallNames().count(word) > 0 || IsMacroLikeName(word)) continue;

      // Qualifier: identifiers joined by "::" immediately before `word`.
      std::string qual;
      {
        std::size_t b = begin;
        while (b >= 2 && t[b - 1] == ':' && t[b - 2] == ':') {
          std::size_t e = b - 2;
          std::size_t s = e;
          while (s > 0 && IsIdentChar(t[s - 1])) --s;
          if (s == e) break;
          qual = t.substr(s, e - s) + (qual.empty() ? "" : "::" + qual);
          b = s;
        }
      }
      CallSite call;
      call.line = line;
      call.held = held;
      call.name = qual.empty() ? word : qual + "::" + word;
      if (qual.empty() && begin > 0) {
        std::size_t r = begin;
        while (r > 0 && t[r - 1] == ' ') --r;
        if (r > 0 && (t[r - 1] == '.' ||
                      (t[r - 1] == '>' && r > 1 && t[r - 2] == '-'))) {
          call.member_call = true;
          std::size_t rend = t[r - 1] == '.' ? r - 1 : r - 2;
          std::size_t rb = rend;
          while (rb > 0 && IsIdentChar(t[rb - 1])) --rb;
          if (rb < rend &&
              (rb == 0 || (!IsIdentChar(t[rb - 1]) && t[rb - 1] != ')' &&
                           t[rb - 1] != ']' && t[rb - 1] != '.' &&
                           t[rb - 1] != '>'))) {
            call.receiver = t.substr(rb, rend - rb);
          }
        }
      }
      fn.calls.push_back(std::move(call));
    }
  }

  std::string path_;
  ParsedFile result_;
  std::vector<Scope> scopes_;
  std::string stmt_;
  int stmt_line_ = 0;
  int paren_depth_ = 0;
};

// ---------------------------------------------------------------------------
// Phase B: the whole-program analysis over parsed files.
// ---------------------------------------------------------------------------

const std::set<std::string>& ExemptFiles() {
  // The lock / annotation vocabulary itself: these define Mutex, MutexLock,
  // CondVar::Wait and the DASH_* macros, and would otherwise self-flag.
  static const std::set<std::string> kSet = {
      "src/util/mutex.h",
      "src/util/thread_annotations.h",
      "src/util/analysis_annotations.h",
  };
  return kSet;
}

struct RuleIds {
  static constexpr const char* ForSink(char category) {
    switch (category) {
      case 'a':
        return "hot-alloc";
      case 'l':
        return "hot-lock";
      case 'g':
        return "hot-log";
      default:
        return "hot-block";
    }
  }
};

class Analyzer {
 public:
  explicit Analyzer(std::vector<ParsedFile> files) : files_(std::move(files)) {
    for (ParsedFile& pf : files_) {
      classes_.insert(pf.classes.begin(), pf.classes.end());
      for (auto& [cls, members] : pf.class_members) {
        auto& dst = class_members_[cls];
        dst.insert(dst.end(), members.begin(), members.end());
      }
      for (FunctionInfo& fn : pf.functions) {
        by_qualified_[fn.qualified].push_back(&fn);
        std::size_t cut = fn.qualified.rfind("::");
        std::string shortname = cut == std::string::npos
                                    ? fn.qualified
                                    : fn.qualified.substr(cut + 2);
        by_short_[shortname].push_back(&fn);
      }
      views_[pf.path] = &pf.view;
    }
    // Union declaration-site markers into definitions.
    for (ParsedFile& pf : files_) {
      for (auto& [name, markers] : pf.decl_markers) {
        auto it = by_qualified_.find(name);
        if (it == by_qualified_.end()) continue;
        for (FunctionInfo* fn : it->second) {
          fn->hot = fn->hot || markers.hot;
          fn->cold = fn->cold || markers.cold;
          fn->blocking = fn->blocking || markers.blocking;
          for (const std::string& m : markers.acquire) {
            if (std::find(fn->acquire_anno.begin(), fn->acquire_anno.end(),
                          m) == fn->acquire_anno.end()) {
              fn->acquire_anno.push_back(m);
            }
          }
        }
      }
    }
    // Promote `.get()` sites to blocking sinks where std::future is in
    // evidence (function body or class members).
    for (ParsedFile& pf : files_) {
      for (FunctionInfo& fn : pf.functions) {
        if (fn.get_sites.empty()) continue;
        bool future = fn.mentions_future;
        if (!future && !fn.cls.empty()) {
          auto it = class_members_.find(fn.cls);
          if (it != class_members_.end()) {
            for (const std::string& m : it->second) {
              if (ContainsWord(m, "future")) {
                future = true;
                break;
              }
            }
          }
        }
        if (!future) continue;
        for (auto& [line, held] : fn.get_sites) {
          fn.sinks.push_back({'b', "get", line, held, ""});
        }
      }
    }
  }

  Report Run() {
    Report report;
    report.files_scanned = files_.size();
    std::size_t edges = 0;
    for (ParsedFile& pf : files_) {
      report.functions += pf.functions.size();
      for (FunctionInfo& fn : pf.functions) {
        if (fn.blocking) blocking_.insert(fn.qualified);
        for (const CallSite& call : fn.calls) {
          edges += Resolve(call, fn).size();
        }
      }
    }
    report.call_edges = edges;

    CheckHotPaths();
    CheckLockBlock();
    CheckLockOrder(&report);

    // Deduplicate (file, line, rule) and split allowed/violations.
    std::set<std::string> seen;
    for (Diagnostic& d : raw_) {
      std::string key = d.file + ":" + std::to_string(d.line) + ":" + d.rule;
      if (!seen.insert(key).second) continue;
      auto view = views_.find(d.file);
      if (view != views_.end() && view->second->Allowed(d.line, d.rule)) {
        report.allowed.push_back(std::move(d));
      } else {
        report.violations.push_back(std::move(d));
      }
    }
    auto order = [](const Diagnostic& a, const Diagnostic& b) {
      return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
    };
    std::sort(report.violations.begin(), report.violations.end(), order);
    std::sort(report.allowed.begin(), report.allowed.end(), order);

    for (const std::string& r : hot_roots_) report.hot_roots.push_back(r);
    for (const std::string& c : cold_boundaries_)
      report.cold_boundaries.push_back(c);
    for (const std::string& b : blocking_) report.blocking.push_back(b);
    return report;
  }

 private:
  // --- resolution ---------------------------------------------------------

  std::vector<FunctionInfo*> Lookup(const std::string& qualified) {
    auto it = by_qualified_.find(qualified);
    return it == by_qualified_.end() ? std::vector<FunctionInfo*>{}
                                     : it->second;
  }

  std::vector<FunctionInfo*> MethodsNamed(const std::string& shortname) {
    std::vector<FunctionInfo*> out;
    auto it = by_short_.find(shortname);
    if (it == by_short_.end()) return out;
    for (FunctionInfo* fn : it->second) {
      if (!fn->cls.empty()) out.push_back(fn);
    }
    return out;
  }

  std::vector<FunctionInfo*> FreeNamed(const std::string& shortname) {
    std::vector<FunctionInfo*> out;
    auto it = by_short_.find(shortname);
    if (it == by_short_.end()) return out;
    for (FunctionInfo* fn : it->second) {
      if (fn->cls.empty()) out.push_back(fn);
    }
    return out;
  }

  // Infers the class of `receiver` from declaration statements: first the
  // caller's own statements (parameters included — the header is a
  // statement), then the caller's class member declarations.
  std::optional<std::string> InferType(const std::string& receiver,
                                      const FunctionInfo& caller) {
    auto scan = [&](const std::string& stmt) -> std::optional<std::string> {
      std::size_t rpos = FindWord(stmt, receiver);
      if (rpos == std::string::npos) return std::nullopt;
      std::optional<std::string> best;
      std::size_t best_pos = 0;
      for (const std::string& cls : classes_) {
        std::size_t cpos = FindWord(stmt, cls);
        if (cpos != std::string::npos && cpos < rpos &&
            (!best || cpos > best_pos)) {
          best = cls;
          best_pos = cpos;
        }
      }
      return best;
    };
    for (const auto& [line, stmt] : caller.stmts) {
      (void)line;
      if (auto c = scan(stmt)) return c;
    }
    if (!caller.cls.empty()) {
      auto it = class_members_.find(caller.cls);
      if (it != class_members_.end()) {
        for (const std::string& m : it->second) {
          if (auto c = scan(m)) return c;
        }
      }
    }
    return std::nullopt;
  }

  std::vector<FunctionInfo*> Resolve(const CallSite& call,
                                     const FunctionInfo& caller) {
    std::size_t cut = call.name.rfind("::");
    std::string shortname =
        cut == std::string::npos ? call.name : call.name.substr(cut + 2);
    if (shortname.empty()) return {};
    if (call.name.rfind("std::", 0) == 0) return {};
    if (cut != std::string::npos) {
      std::string qual = call.name.substr(0, cut);
      std::size_t inner = qual.rfind("::");
      std::string leaf =
          inner == std::string::npos ? qual : qual.substr(inner + 2);
      auto exact = Lookup(leaf + "::" + shortname);
      if (!exact.empty()) return exact;
      auto free_fns = FreeNamed(shortname);  // namespace-qualified free call
      if (!free_fns.empty()) return free_fns;
      return {};
    }
    if (call.member_call) {
      if (call.receiver == "this" && !caller.cls.empty()) {
        return Lookup(caller.cls + "::" + shortname);
      }
      if (!call.receiver.empty()) {
        if (auto cls = InferType(call.receiver, caller)) {
          auto exact = Lookup(*cls + "::" + shortname);
          if (!exact.empty()) return exact;
        }
      }
      if (IsCommonStlName(shortname)) return {};  // almost surely a container
      return MethodsNamed(shortname);  // receiver type unknown: over-approx
    }
    if (!caller.cls.empty()) {
      auto own = Lookup(caller.cls + "::" + shortname);
      if (!own.empty()) return own;
    }
    auto free_fns = FreeNamed(shortname);
    if (!free_fns.empty()) return free_fns;
    return Lookup(shortname + "::" + shortname);  // constructor
  }

  // --- transitive properties ---------------------------------------------

  bool BlocksTransitively(FunctionInfo* fn) {
    auto memo = blocks_memo_.find(fn);
    if (memo != blocks_memo_.end()) return memo->second;
    if (blocks_stack_.count(fn) > 0) return false;  // recursion: assume no
    blocks_stack_.insert(fn);
    bool blocks = fn->blocking;
    if (!blocks) {
      for (const SinkSite& s : fn->sinks) {
        if (s.category == 'b') {
          blocks = true;
          break;
        }
      }
    }
    if (!blocks) {
      for (const CallSite& call : fn->calls) {
        for (FunctionInfo* target : Resolve(call, *fn)) {
          if (BlocksTransitively(target)) {
            blocks = true;
            break;
          }
        }
        if (blocks) break;
      }
    }
    blocks_stack_.erase(fn);
    blocks_memo_[fn] = blocks;
    if (blocks) blocking_.insert(fn->qualified);
    return blocks;
  }

  const std::set<std::string>& AcquiresTransitively(FunctionInfo* fn) {
    auto memo = acquires_memo_.find(fn);
    if (memo != acquires_memo_.end()) return memo->second;
    static const std::set<std::string> kEmpty;
    if (acquires_stack_.count(fn) > 0) return kEmpty;
    acquires_stack_.insert(fn);
    std::set<std::string> acq;
    for (const LockAcq& a : fn->acquires) acq.insert(a.mutex);
    for (const std::string& m : fn->acquire_anno) acq.insert(m);
    for (const CallSite& call : fn->calls) {
      for (FunctionInfo* target : Resolve(call, *fn)) {
        const std::set<std::string>& sub = AcquiresTransitively(target);
        acq.insert(sub.begin(), sub.end());
      }
    }
    acquires_stack_.erase(fn);
    return acquires_memo_[fn] = std::move(acq);
  }

  // --- rules --------------------------------------------------------------

  static std::string PathString(const std::vector<std::string>& path) {
    std::string out;
    for (const std::string& p : path) {
      if (!out.empty()) out += " -> ";
      out += p;
    }
    return out;
  }

  void CheckHotPaths() {
    std::vector<FunctionInfo*> roots;
    for (ParsedFile& pf : files_) {
      for (FunctionInfo& fn : pf.functions) {
        if (fn.hot) {
          roots.push_back(&fn);
          hot_roots_.insert(fn.qualified);
        }
      }
    }
    std::sort(roots.begin(), roots.end(),
              [](const FunctionInfo* a, const FunctionInfo* b) {
                return a->qualified < b->qualified;
              });
    for (FunctionInfo* root : roots) {
      std::set<FunctionInfo*> visited;
      std::vector<std::string> path;
      WalkHot(root, root, &visited, &path);
    }
  }

  void WalkHot(FunctionInfo* fn, FunctionInfo* root,
               std::set<FunctionInfo*>* visited,
               std::vector<std::string>* path) {
    if (!visited->insert(fn).second) return;
    path->push_back(fn->qualified);
    for (const SinkSite& s : fn->sinks) {
      raw_.push_back({fn->file, s.line, RuleIds::ForSink(s.category),
                      "`" + s.token + "` in " + fn->qualified +
                          ", reachable from hot root " + root->qualified +
                          " via " + PathString(*path)});
    }
    for (const CallSite& call : fn->calls) {
      for (FunctionInfo* target : Resolve(call, *fn)) {
        if (target->cold) {
          cold_boundaries_.insert(target->qualified + " (from " +
                                  root->qualified + ")");
          continue;
        }
        if (target->blocking) {
          raw_.push_back({fn->file, call.line, "hot-block",
                          "call to blocking " + target->qualified + " from " +
                              fn->qualified + ", reachable from hot root " +
                              root->qualified + " via " + PathString(*path)});
          continue;
        }
        WalkHot(target, root, visited, path);
      }
    }
    path->pop_back();
  }

  static std::string HeldString(const std::vector<std::string>& held) {
    std::string out;
    for (const std::string& h : held) {
      if (!out.empty()) out += ", ";
      out += h;
    }
    return out;
  }

  static bool WaitExempt(const SinkSite& s) {
    if (s.token != "Wait" && s.token != "wait") return false;
    if (s.held.size() != 1 || s.wait_arg.empty()) return false;
    const std::string& held = s.held[0];
    std::size_t cut = held.rfind("::");
    std::string base = cut == std::string::npos ? held : held.substr(cut + 2);
    return base == s.wait_arg;
  }

  void CheckLockBlock() {
    for (ParsedFile& pf : files_) {
      for (FunctionInfo& fn : pf.functions) {
        for (const SinkSite& s : fn.sinks) {
          if (s.category != 'b' || s.held.empty()) continue;
          if (WaitExempt(s)) continue;
          raw_.push_back({fn.file, s.line, "lock-block",
                          "`" + s.token + "` may block while holding {" +
                              HeldString(s.held) + "} in " + fn.qualified});
        }
        for (const CallSite& call : fn.calls) {
          if (call.held.empty()) continue;
          for (FunctionInfo* target : Resolve(call, fn)) {
            if (target->blocking || BlocksTransitively(target)) {
              raw_.push_back(
                  {fn.file, call.line, "lock-block",
                   "call to blocking " + target->qualified +
                       " while holding {" + HeldString(call.held) + "} in " +
                       fn.qualified});
              break;
            }
          }
        }
      }
    }
  }

  void CheckLockOrder(Report* report) {
    struct Witness {
      std::string file;
      int line = 0;
    };
    std::map<std::pair<std::string, std::string>, Witness> edges;
    auto add_edge = [&](const std::string& from, const std::string& to,
                        const std::string& file, int line) {
      auto key = std::make_pair(from, to);
      auto it = edges.find(key);
      if (it == edges.end()) edges[key] = {file, line};
    };
    for (ParsedFile& pf : files_) {
      for (FunctionInfo& fn : pf.functions) {
        for (const LockAcq& acq : fn.acquires) {
          for (const std::string& h : acq.held_before) {
            add_edge(h, acq.mutex, fn.file, acq.line);
          }
        }
        for (const CallSite& call : fn.calls) {
          if (call.held.empty()) continue;
          for (FunctionInfo* target : Resolve(call, fn)) {
            for (const std::string& m : AcquiresTransitively(target)) {
              for (const std::string& h : call.held) {
                add_edge(h, m, fn.file, call.line);
              }
            }
          }
        }
      }
    }
    for (const auto& [edge, witness] : edges) {
      report->lock_edges.push_back(edge.first + " -> " + edge.second + " @ " +
                                   witness.file + ":" +
                                   std::to_string(witness.line));
    }
    std::sort(report->lock_edges.begin(), report->lock_edges.end());

    // Cycle detection: colored DFS over the edge set; every back edge closes
    // a cycle, reported at that edge's witness.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [edge, witness] : edges) {
      (void)witness;
      adj[edge.first].push_back(edge.second);
    }
    std::set<std::string> done;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          stack.push_back(node);
          on_stack.insert(node);
          auto it = adj.find(node);
          if (it != adj.end()) {
            for (const std::string& next : it->second) {
              if (on_stack.count(next) > 0) {
                // Cycle: next ... node -> next.
                std::vector<std::string> cycle;
                auto start = std::find(stack.begin(), stack.end(), next);
                cycle.assign(start, stack.end());
                cycle.push_back(next);
                std::string desc = PathString(cycle);
                if (reported.insert(desc).second) {
                  const Witness& w = edges.at({node, next});
                  raw_.push_back({w.file, w.line, "lock-cycle",
                                  "lock-order cycle: " + desc});
                }
              } else if (done.count(next) == 0) {
                dfs(next);
              }
            }
          }
          on_stack.erase(node);
          stack.pop_back();
          done.insert(node);
        };
    for (const auto& [node, targets] : adj) {
      (void)targets;
      if (done.count(node) == 0) dfs(node);
    }
  }

  std::vector<ParsedFile> files_;
  std::map<std::string, std::vector<FunctionInfo*>> by_qualified_;
  std::map<std::string, std::vector<FunctionInfo*>> by_short_;
  std::set<std::string> classes_;
  std::map<std::string, std::vector<std::string>> class_members_;
  std::map<std::string, const source::CodeView*> views_;
  std::map<FunctionInfo*, bool> blocks_memo_;
  std::set<FunctionInfo*> blocks_stack_;
  std::map<FunctionInfo*, std::set<std::string>> acquires_memo_;
  std::set<FunctionInfo*> acquires_stack_;
  std::vector<Diagnostic> raw_;
  std::set<std::string> hot_roots_;
  std::set<std::string> cold_boundaries_;
  std::set<std::string> blocking_;
};

}  // namespace

Report AnalyzeFiles(const std::vector<SourceFile>& files) {
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const SourceFile& f : files) {
    if (ExemptFiles().count(f.path) > 0) continue;
    parsed.push_back(FileParser(f.path, f.content).Run());
  }
  return Analyzer(std::move(parsed)).Run();
}

Report AnalyzeTree(const std::string& root) {
  return AnalyzeFiles(source::ReadTree(root));
}

std::string RuleCatalog() {
  return
      "hot-alloc   heap allocation (new/make_unique/make_shared/malloc)\n"
      "            reachable from a DASH_HOT_PATH root\n"
      "hot-lock    mutex acquisition (MutexLock/lock_guard/.Lock()) reachable\n"
      "            from a DASH_HOT_PATH root\n"
      "hot-log     logging or iostream traffic (DASH_LOG/cout/printf)\n"
      "            reachable from a DASH_HOT_PATH root\n"
      "hot-block   a blocking operation (sleep_for/accept/Join/Pop/Wait/\n"
      "            future .get()) or DASH_BLOCKING callee reachable from a\n"
      "            DASH_HOT_PATH root\n"
      "lock-block  a blocking operation or transitively-blocking call made\n"
      "            while holding a mutex (cv.Wait on the sole held mutex is\n"
      "            exempt)\n"
      "lock-cycle  a cycle in the static lock-order graph derived from\n"
      "            nested MutexLock scopes and DASH_ACQUIRE/DASH_REQUIRES\n"
      "            (self-loops are re-entrant acquisition)\n";
}

}  // namespace dash::analyze
