// dash_lint rule-catalog tests: one known-bad and one known-good fixture
// per rule, plus the escape hatch and the scanner's comment/string
// immunity. Fixtures are embedded as raw strings and pushed through
// LintFile with a path chosen to make the rule applicable — exactly how
// the CTest `lint` run sees real files.
#include "dash_lint_lib.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dash::lint {
namespace {

std::vector<std::string> Rules(const Report& report) {
  std::vector<std::string> ids;
  ids.reserve(report.violations.size());
  for (const Diagnostic& d : report.violations) ids.push_back(d.rule);
  return ids;
}

bool HasRule(const Report& report, const std::string& rule) {
  const std::vector<std::string> ids = Rules(report);
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

// ---------------------------------------------------------------- raw-thread

TEST(RawThread, FlagsStdThreadInCore) {
  Report r = LintFile("src/core/scatter.cc", R"cc(
#include <thread>
namespace dash::core {
void Go() { std::thread t([] {}); t.join(); }
}  // namespace dash::core
)cc");
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "raw-thread");
  EXPECT_EQ(r.violations[0].line, 4);
  EXPECT_EQ(r.violations[0].file, "src/core/scatter.cc");
}

TEST(RawThread, FlagsStdAsyncAndJthread) {
  Report r = LintFile("src/baseline/x.cc", R"cc(
auto f = std::async(std::launch::async, [] { return 1; });
std::jthread j([] {});
)cc");
  EXPECT_EQ(Rules(r), (std::vector<std::string>{"raw-thread", "raw-thread"}));
}

TEST(RawThread, ThreadPoolImplementationIsExempt) {
  const char* body = R"cc(
#include <thread>
namespace dash::util {
std::vector<std::thread> workers_;  // dash-lint: allow(global-state)
}
)cc";
  EXPECT_FALSE(HasRule(LintFile("src/util/thread_pool.cc", body),
                       "raw-thread"));
  EXPECT_FALSE(HasRule(LintFile("src/util/thread_pool.h", body),
                       "raw-thread"));
  EXPECT_TRUE(HasRule(LintFile("src/util/other.cc", body), "raw-thread"));
}

TEST(RawThread, PoolUsageIsClean) {
  Report r = LintFile("src/core/scatter.cc", R"cc(
#include "util/thread_pool.h"
namespace dash::core {
void Go(util::ThreadPool& pool) {
  pool.ParallelFor(8, [](std::size_t) {});
}
}  // namespace dash::core
)cc");
  EXPECT_TRUE(r.violations.empty());
}

// ------------------------------------------------------------ nondeterminism

TEST(Nondeterminism, FlagsEntropyAndWallClockInCore) {
  Report r = LintFile("src/core/ranker.cc", R"cc(
namespace dash::core {
int A() { return rand(); }
long B() { return time(nullptr); }
int C() { std::random_device rd; return rd(); }
auto D() { return std::chrono::system_clock::now(); }
}
)cc");
  EXPECT_EQ(Rules(r),
            (std::vector<std::string>{"nondeterminism", "nondeterminism",
                                      "nondeterminism", "nondeterminism"}));
  EXPECT_EQ(r.violations[0].line, 3);
}

TEST(Nondeterminism, AppliesToMapreduceButNotBaseline) {
  const char* body = "int x = rand();\n";
  EXPECT_TRUE(HasRule(LintFile("src/mapreduce/cluster.cc", body),
                      "nondeterminism"));
  // The surfacing baseline legitimately models wasteful random probing.
  EXPECT_FALSE(HasRule(LintFile("src/baseline/surfacing.cc", body),
                       "nondeterminism"));
}

TEST(Nondeterminism, SplitMixAndIdentifiersAreClean) {
  Report r = LintFile("src/core/gen.cc", R"cc(
#include "util/random.h"
namespace dash::core {
std::uint64_t Draw(util::SplitMix64& rng) { return rng.Next(); }
// `operand(x)` and `wall_time(y)` must not trip the word matcher.
int operand(int x);
double wall_time(int y);
}
)cc");
  EXPECT_TRUE(r.violations.empty());
}

// ------------------------------------------------------------ unordered-iter

TEST(UnorderedIter, FlagsHashOrderIterationWithoutSort) {
  Report r = LintFile("src/core/stats.cc", R"cc(
namespace dash::core {
std::unordered_map<std::string, int> counts;  // dash-lint: allow(global-state)
std::vector<std::string> Dump() {
  std::vector<std::string> out;
  for (const auto& [k, v] : counts) {
    out.push_back(k);
  }
  return out;
}
}
)cc");
  ASSERT_TRUE(HasRule(r, "unordered-iter"));
}

TEST(UnorderedIter, CanonicalSortNearbyIsClean) {
  Report r = LintFile("src/core/stats.cc", R"cc(
namespace dash::core {
std::vector<std::string> Dump(
    const std::unordered_map<std::string, int>& counts) {
  std::vector<std::string> out;
  for (const auto& [k, v] : counts) {
    out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}
}
)cc");
  EXPECT_FALSE(HasRule(r, "unordered-iter"));
}

TEST(UnorderedIter, OnlyAppliesToCore) {
  const char* body = R"cc(
std::unordered_set<int> seen;  // dash-lint: allow(global-state)
void F() {
  for (int v : seen) { (void)v; }
}
)cc";
  EXPECT_TRUE(HasRule(LintFile("src/core/x.cc", body), "unordered-iter"));
  EXPECT_FALSE(HasRule(LintFile("src/db/x.cc", body), "unordered-iter"));
}

// -------------------------------------------------------------- global-state

TEST(GlobalState, FlagsUnguardedNamespaceScopeMutable) {
  Report r = LintFile("src/util/registry.cc", R"cc(
namespace dash::util {
namespace {
int g_calls = 0;
std::vector<std::string> g_names;
}  // namespace
}  // namespace dash::util
)cc");
  EXPECT_EQ(Rules(r),
            (std::vector<std::string>{"global-state", "global-state"}));
  EXPECT_EQ(r.violations[0].line, 4);
  EXPECT_EQ(r.violations[1].line, 5);
}

TEST(GlobalState, GuardedConstAtomicAndMutexAreClean) {
  Report r = LintFile("src/util/registry.cc", R"cc(
#include "util/mutex.h"
#include "util/thread_annotations.h"
namespace dash::util {
namespace {
Mutex g_mutex;
std::vector<std::string> g_names DASH_GUARDED_BY(g_mutex);
std::atomic<int> g_calls{0};
const int kLimit = 8;
constexpr char kName[] = "dash";
}  // namespace
}  // namespace dash::util
)cc");
  EXPECT_TRUE(r.violations.empty());
}

TEST(GlobalState, FunctionLocalsAndMembersAreNotNamespaceScope) {
  Report r = LintFile("src/util/registry.cc", R"cc(
namespace dash::util {
class Registry {
  int count_ = 0;
  std::vector<int> items_;
};
int Count() {
  static int memo = -1;
  int local = 3;
  return memo + local;
}
}  // namespace dash::util
)cc");
  EXPECT_TRUE(r.violations.empty());
}

TEST(GlobalState, BracedInitializerDoesNotHideTheDeclaration) {
  Report r = LintFile("src/util/registry.cc", R"cc(
namespace dash::util {
std::vector<std::pair<int, int>> g_pairs = {{1, 2}, {3, 4}};
}
)cc");
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "global-state");
  EXPECT_EQ(r.violations[0].line, 3);
}

// ---------------------------------------------------------- iostream-hotpath

TEST(IostreamHotpath, FlagsIncludeAndConsoleStreams) {
  Report r = LintFile("src/db/table.cc", R"cc(
#include <iostream>
namespace dash::db {
void Dump() { std::cout << "x"; std::cerr << "y"; }
}
)cc");
  EXPECT_EQ(Rules(r),
            (std::vector<std::string>{"iostream-hotpath", "iostream-hotpath",
                                      "iostream-hotpath"}));
}

TEST(IostreamHotpath, SerializationStreamsAndOtherModulesAreClean) {
  // <ostream>-based save/load APIs are the sanctioned pattern.
  EXPECT_TRUE(LintFile("src/core/index_io.cc", R"cc(
#include <ostream>
#include <istream>
namespace dash::core {
void Save(std::ostream& out);
}
)cc").violations.empty());
  // util may talk to stderr (logging lives there).
  EXPECT_TRUE(LintFile("src/util/logging.cc",
                       "#include <iostream>\n").violations.empty());
}

// --------------------------------------------------------------- layer-cycle

TEST(LayerCycle, FlagsUpwardInclude) {
  Report r = LintFile("src/db/table.cc", R"cc(
#include "core/dash_engine.h"
#include "util/mutex.h"
)cc");
  ASSERT_EQ(Rules(r), (std::vector<std::string>{"layer-cycle"}));
  EXPECT_EQ(r.violations[0].line, 2);
}

TEST(LayerCycle, DownwardAndSameLayerIncludesAreClean) {
  Report r = LintFile("src/core/dash_engine.cc", R"cc(
#include "core/index_snapshot.h"
#include "db/database.h"
#include "mapreduce/mr_crawl.h"
#include "sql/parser.h"
#include "util/thread_pool.h"
#include "webapp/query_string.h"
#include <vector>
)cc");
  EXPECT_FALSE(HasRule(r, "layer-cycle"));
}

TEST(LayerCycle, SiblingLayersMayNotIncludeEachOther) {
  // sql and tpch share a rank; neither direction is allowed.
  EXPECT_TRUE(HasRule(LintFile("src/sql/parser.cc",
                               "#include \"tpch/tpch.h\"\n"),
                      "layer-cycle"));
  EXPECT_TRUE(HasRule(LintFile("src/tpch/tpch.cc",
                               "#include \"sql/parser.h\"\n"),
                      "layer-cycle"));
}

TEST(LayerCycle, ToolsSitAboveEverything) {
  Report r = LintFile("tools/dash_fuzz.cc", R"cc(
#include "testing/oracles.h"
#include "core/dash_engine.h"
#include "dash_lint_lib.h"
)cc");
  EXPECT_FALSE(HasRule(r, "layer-cycle"));
}

TEST(LayerCycle, RouterIsTopSubLayerWithinCore) {
  // Within src/core the router composes everything else; no other core
  // file may include it back.
  EXPECT_TRUE(HasRule(LintFile("src/core/sharded_engine.cc",
                               "#include \"core/search_router.h\"\n"),
                      "layer-cycle"));
  EXPECT_TRUE(HasRule(LintFile("src/core/search_server.cc",
                               "#include \"core/search_router.h\"\n"),
                      "layer-cycle"));
  // The router's own translation units are the sub-layer.
  EXPECT_FALSE(HasRule(LintFile("src/core/search_router.cc",
                                "#include \"core/search_router.h\"\n"),
                       "layer-cycle"));
  // Higher layers (testing, tools) compose the router freely.
  EXPECT_FALSE(HasRule(LintFile("src/testing/chaos.h",
                                "#include \"core/search_router.h\"\n"),
                       "layer-cycle"));
  EXPECT_FALSE(HasRule(LintFile("tools/dash_loadgen.cc",
                                "#include \"core/search_router.h\"\n"),
                       "layer-cycle"));
}

TEST(LayerCycle, ServingLayersMayNotIncludeTools) {
  // The serving tier is library code; tools/ (dash_serve, dash_loadgen)
  // are the binaries on top. Neither webapp transport nor core service
  // code may reach back up into tools.
  Report webapp = LintFile("src/webapp/http_server.cc",
                           "#include \"tools/dash_lint_lib.h\"\n");
  ASSERT_EQ(Rules(webapp), (std::vector<std::string>{"layer-cycle"}));
  EXPECT_NE(webapp.violations[0].message.find("layer 'tools'"),
            std::string::npos);
  EXPECT_NE(webapp.violations[0].message.find("layer 'webapp'"),
            std::string::npos);
  EXPECT_TRUE(HasRule(LintFile("src/core/search_server.cc",
                               "#include \"tools/dash_serve_flags.h\"\n"),
                      "layer-cycle"));
}

TEST(LayerCycle, NonLayerTargetsAndSystemHeadersAreIgnored) {
  Report r = LintFile("src/db/table.cc", R"cc(
#include <core/fake.h>
#include "third_party/core.h"
#include "sibling_header.h"
)cc");
  EXPECT_FALSE(HasRule(r, "layer-cycle"));
}

// ------------------------------------------------------------- escape hatch

TEST(EscapeHatch, SameLineAndPreviousLineAllowSuppress) {
  Report r = LintFile("src/core/x.cc", R"cc(
namespace dash::core {
int A() { return rand(); }  // dash-lint: allow(nondeterminism)
// dash-lint: allow(nondeterminism)
int B() { return rand(); }
int C() { return rand(); }
}
)cc");
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].line, 6);
  ASSERT_EQ(r.allowed.size(), 2u);
  EXPECT_EQ(r.allowed[0].rule, "nondeterminism");
  EXPECT_EQ(r.allowed[0].line, 3);
  EXPECT_EQ(r.allowed[1].line, 5);
}

TEST(EscapeHatch, AllowOnlySuppressesTheNamedRule) {
  Report r = LintFile("src/core/x.cc", R"cc(
#include <thread>
namespace dash::core {
// dash-lint: allow(nondeterminism)
std::thread g_worker;
}
)cc");
  // The allow names the wrong rule: raw-thread and global-state still fire.
  EXPECT_TRUE(HasRule(r, "raw-thread"));
  EXPECT_TRUE(HasRule(r, "global-state"));
  EXPECT_TRUE(r.allowed.empty());
}

TEST(EscapeHatch, CommaListSuppressesEveryNamedRule) {
  Report r = LintFile("src/core/x.cc", R"cc(
#include <thread>
namespace dash::core {
// dash-lint: allow(raw-thread, global-state)
std::thread g_worker;
}
)cc");
  EXPECT_TRUE(r.violations.empty());
  ASSERT_EQ(r.allowed.size(), 2u);
  EXPECT_EQ(r.allowed[0].line, 5);
  EXPECT_EQ(r.allowed[1].line, 5);
}

// ------------------------------------------------------------- scanner core

TEST(Scanner, CommentsAndStringsAreInvisible) {
  Report r = LintFile("src/core/x.cc", R"cc(
namespace dash::core {
// std::thread in a comment is fine, as is rand() here.
/* block comment: std::async, std::cout, time(nullptr) */
const char* kDoc = "std::thread rand() std::cout";
}
)cc");
  EXPECT_TRUE(r.violations.empty());
}

// CRLF line endings: the macro body after a `\` continuation is still a
// preprocessor line, and code after it keeps its line number.
TEST(Scanner, CrlfMacroContinuationIsBlanked) {
  Report r = LintFile("src/core/x.cc",
                      "#define SPAWN(fn) \\\r\n"
                      "  std::thread t(fn)\r\n"
                      "namespace dash::core {\r\n"
                      "int y = rand();\r\n"
                      "}\r\n");
  EXPECT_FALSE(HasRule(r, "raw-thread"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "nondeterminism");
  EXPECT_EQ(r.violations[0].line, 4);
}

TEST(Scanner, DiagnosticFormatIsMachineReadable) {
  // (global-state skips declarations with parenthesised initializers, so
  // only nondeterminism fires here.)
  Report r = LintFile("src/core/x.cc", "int y = rand();\n");
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].ToString().rfind("src/core/x.cc:1: ", 0), 0u);
}

TEST(Scanner, RuleCatalogNamesEveryRule) {
  std::string catalog = RuleCatalog();
  for (const char* rule : {"raw-thread", "nondeterminism", "unordered-iter",
                           "global-state", "iostream-hotpath",
                           "layer-cycle"}) {
    EXPECT_NE(catalog.find(rule), std::string::npos) << rule;
  }
}

// The tree itself must be clean — the same invariant the `lint` CTest
// enforces, checked here against the source tree when available.
TEST(Tree, RepositoryIsLintClean) {
  Report r = LintTree(DASH_SOURCE_DIR);
  for (const Diagnostic& d : r.violations) {
    ADD_FAILURE() << d.ToString();
  }
  EXPECT_GT(r.files_scanned, 50u);
}

// tools/ is not a lint-free zone: the path-scoped rules that apply
// everywhere (raw-thread, global-state, layer-cycle) fire there too, so
// the linter and analyzer sources are held to their own standards.
TEST(Tree, ToolsFilesAreSubjectToLintRules) {
  Report r = LintFile("tools/fake_tool.cc", R"cc(
#include <thread>
std::thread g_worker;
)cc");
  EXPECT_TRUE(HasRule(r, "raw-thread"));
  EXPECT_TRUE(HasRule(r, "global-state"));
}

TEST(Tree, ToolsAreLintClean) {
  Report r = LintTree(DASH_SOURCE_DIR);
  for (const Diagnostic& d : r.violations) {
    if (d.file.rfind("tools/", 0) == 0) ADD_FAILURE() << d.ToString();
  }
}

}  // namespace
}  // namespace dash::lint
