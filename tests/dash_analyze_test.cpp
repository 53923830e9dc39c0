// dash_analyze rule-catalog tests: firing and clean fixtures for every
// call-graph rule (hot-alloc / hot-lock / hot-log / hot-block /
// lock-block / lock-cycle), the escape hatch, the annotation plumbing
// (declaration markers, cold boundaries, exempt files), and the two
// whole-tree invariants the `analyze-graph` CTest label enforces.
// Fixtures are embedded as raw strings and pushed through AnalyzeFiles —
// the same entry point AnalyzeTree feeds with real files.
#include "dash_analyze_lib.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dash::analyze {
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

bool HasEntry(const std::vector<std::string>& list, const std::string& want) {
  for (const std::string& s : list) {
    if (s.find(want) != std::string::npos) return true;
  }
  return false;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------------ hot-alloc

TEST(HotAlloc, DirectAllocationInHotRootFires) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve() DASH_HOT_PATH {
  auto p = std::make_unique<int>(3);
  return *p;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
  EXPECT_EQ(r.violations[0].line, 4);
  EXPECT_NE(r.violations[0].message.find("hot root Serve"), std::string::npos);
  EXPECT_TRUE(HasEntry(r.hot_roots, "Serve"));
}

TEST(HotAlloc, TransitiveAllocationThroughCalleeFires) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
void Helper() { auto p = std::make_shared<int>(1); (void)p; }
int Serve() DASH_HOT_PATH {
  Helper();
  return 0;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
  EXPECT_EQ(r.violations[0].line, 3);  // the sink, not the call site
  EXPECT_NE(r.violations[0].message.find("Serve -> Helper"),
            std::string::npos);
}

TEST(HotAlloc, NewAndMallocAreSinksOffHotPathIsClean) {
  // The same sinks in an unannotated function produce nothing.
  Report cold = AnalyzeFiles({{"src/core/build.cc", R"cc(
namespace dash::core {
int* Build() { return new int(4); }
void* Raw() { return malloc(16); }
}  // namespace dash::core
)cc"}});
  EXPECT_TRUE(cold.violations.empty());
  Report hot = AnalyzeFiles({{"src/core/build.cc", R"cc(
namespace dash::core {
int* Build() DASH_HOT_PATH { return new int(4); }
void* Raw() DASH_HOT_PATH { return malloc(16); }
}  // namespace dash::core
)cc"}});
  EXPECT_EQ(Rules(hot), (std::vector<std::string>{"hot-alloc", "hot-alloc"}));
}

// ------------------------------------------------------------------- hot-lock

TEST(HotLock, MutexAcquisitionReachableFromRootFires) {
  Report r = AnalyzeFiles({{"src/core/cache.h", R"cc(
namespace dash::core {
class Cache {
 public:
  int Get() {
    util::MutexLock lock(mutex_);
    return v_;
  }
  int Serve() DASH_HOT_PATH { return Get(); }
 private:
  util::Mutex mutex_;
  int v_ = 0;
};
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-lock");
  EXPECT_EQ(r.violations[0].line, 6);
  EXPECT_NE(r.violations[0].message.find("hot root Cache::Serve"),
            std::string::npos);
}

// -------------------------------------------------------------------- hot-log

TEST(HotLog, LoggingAndIostreamTokensFire) {
  Report r = AnalyzeFiles({{"src/core/srv.cc", R"cc(
namespace dash::core {
void Trace() { std::printf("x"); }
int Serve() DASH_HOT_PATH {
  Trace();
  std::cout << "y";
  return 0;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_TRUE(HasRule(r, "hot-log"));
  EXPECT_EQ(r.violations[0].rule, "hot-log");
  EXPECT_EQ(r.violations[1].rule, "hot-log");
}

// ------------------------------------------------------------------ hot-block

TEST(HotBlock, BlockingTokenAndBlockingCalleeFire) {
  Report r = AnalyzeFiles({{"src/core/srv.cc", R"cc(
namespace dash::core {
void Nap() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
void Drain() DASH_BLOCKING {}
int Serve() DASH_HOT_PATH {
  Nap();
  Drain();
  return 0;
}
}  // namespace dash::core
)cc"}});
  EXPECT_EQ(Rules(r), (std::vector<std::string>{"hot-block", "hot-block"}));
  // One at the sleep_for sink inside Nap, one at the call to the
  // DASH_BLOCKING callee.
  EXPECT_NE(r.violations[0].message.find("sleep_for"), std::string::npos);
  EXPECT_NE(r.violations[1].message.find("blocking Drain"),
            std::string::npos);
  EXPECT_TRUE(HasEntry(r.blocking, "Drain"));
}

TEST(HotBlock, FutureGetIsBlockingButSmartPointerGetIsNot) {
  Report r = AnalyzeFiles({{"src/core/srv.cc", R"cc(
namespace dash::core {
int WaitForIt(std::future<int>& f) DASH_HOT_PATH {
  return f.get();
}
int Deref(const std::unique_ptr<int>& p) DASH_HOT_PATH {
  return *p.get();
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-block");
  EXPECT_EQ(r.violations[0].line, 4);
  EXPECT_NE(r.violations[0].message.find("WaitForIt"), std::string::npos);
}

// ------------------------------------------------------- cold-path boundaries

TEST(ColdPath, WalkStopsAtColdBoundaryAndAuditsIt) {
  Report r = AnalyzeFiles({{"src/core/srv.cc", R"cc(
namespace dash::core {
void Rebuild() DASH_COLD_PATH { auto p = std::make_unique<int>(1); (void)p; }
int Serve() DASH_HOT_PATH {
  Rebuild();
  return 0;
}
}  // namespace dash::core
)cc"}});
  // The allocation behind the cold boundary is sanctioned...
  EXPECT_TRUE(r.violations.empty());
  // ...but the crossing is recorded for review.
  ASSERT_EQ(r.cold_boundaries.size(), 1u);
  EXPECT_EQ(r.cold_boundaries[0], "Rebuild (from Serve)");
}

// The hot/cold seam the segmented snapshot relies on (DESIGN.md §14): a
// hot serving root may reach tiered compaction only through the
// DASH_COLD_PATH boundary, so the merge's allocations are sanctioned but
// the crossing itself is audited — mirroring the real
// UpdatableIndex::MaybeCompact -> MergeSegments chain.
TEST(ColdPath, CompactionChainBehindColdBoundaryIsAuditedNotFlagged) {
  Report r = AnalyzeFiles({{"src/core/lsm.cc", R"cc(
namespace dash::core {
void MergeSegments() DASH_COLD_PATH {
  auto merged = std::make_unique<int>(1);
  (void)merged;
}
void MaybeCompact() DASH_COLD_PATH { MergeSegments(); }
int Publish() DASH_HOT_PATH {
  MaybeCompact();
  return 0;
}
}  // namespace dash::core
)cc"}});
  EXPECT_TRUE(r.violations.empty());
  ASSERT_EQ(r.cold_boundaries.size(), 1u);
  EXPECT_EQ(r.cold_boundaries[0], "MaybeCompact (from Publish)");
}

// Why the multi-segment gather needs no allowance: capacity-reusing
// vector operations (clear/reserve/push_back/emplace_back on long-lived
// scratch) are not allocation sinks — the purity contract is about
// steady-state per-request allocations, which these amortize away.
TEST(ColdPath, ScratchReusingGatherShapeIsCleanWithoutAllowances) {
  Report r = AnalyzeFiles({{"src/core/gather.cc", R"cc(
namespace dash::core {
int GatherTerm(std::vector<std::vector<int>>& buffers) DASH_HOT_PATH {
  if (buffers.empty()) buffers.emplace_back();
  std::vector<int>& out = buffers[0];
  out.clear();
  out.reserve(16);
  out.push_back(7);
  return out[0];
}
}  // namespace dash::core
)cc"}});
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(r.allowed.empty());
  EXPECT_TRUE(HasEntry(r.hot_roots, "GatherTerm"));
}

// ---------------------------------------------------------- declaration union

TEST(DeclMarkers, HeaderDeclarationMarksTheDefinition) {
  Report r = AnalyzeFiles({
      {"src/core/api.h", R"cc(
namespace dash::core {
class Engine {
 public:
  int Serve() DASH_HOT_PATH;
};
int Lookup() DASH_HOT_PATH;
}  // namespace dash::core
)cc"},
      {"src/core/api.cc", R"cc(
#include "core/api.h"
namespace dash::core {
int Engine::Serve() { return *new int(1); }
int Lookup() { auto p = std::make_unique<int>(2); return *p; }
}  // namespace dash::core
)cc"},
  });
  EXPECT_EQ(Rules(r), (std::vector<std::string>{"hot-alloc", "hot-alloc"}));
  EXPECT_TRUE(HasEntry(r.hot_roots, "Engine::Serve"));
  EXPECT_TRUE(HasEntry(r.hot_roots, "Lookup"));
}

// A braced default argument is not a function body: the declaration (and
// an inline definition after it) must keep its markers, so the hot root
// stays under the purity contract exactly as with `= Opt()`.
TEST(DeclMarkers, BracedDefaultArgumentKeepsTheMarkers) {
  Report r = AnalyzeFiles({
      {"src/core/api.h", R"cc(
namespace dash::core {
struct Opt { int n = 0; };
class Engine {
 public:
  int Hot(int a, Opt o = {}) const DASH_HOT_PATH;
  int Inline(Opt o = {}) const DASH_HOT_PATH {
    auto p = std::make_unique<int>(o.n);
    return *p;
  }
};
}  // namespace dash::core
)cc"},
      {"src/core/api.cc", R"cc(
#include "core/api.h"
namespace dash::core {
int Engine::Hot(int a, Opt o) const { return *new int(a + o.n); }
}  // namespace dash::core
)cc"},
  });
  EXPECT_EQ(Rules(r), (std::vector<std::string>{"hot-alloc", "hot-alloc"}));
  EXPECT_TRUE(HasEntry(r.hot_roots, "Engine::Hot"));
  EXPECT_TRUE(HasEntry(r.hot_roots, "Engine::Inline"));
}

// ----------------------------------------------------------------- lock-block

TEST(LockBlock, BlockingTokenWhileHoldingMutexFires) {
  Report r = AnalyzeFiles({{"src/webapp/pool.h", R"cc(
namespace dash::webapp {
class Pool {
 public:
  void Drain() {
    util::MutexLock lock(mutex_);
    queue_.Pop();
  }
 private:
  util::Mutex mutex_;
};
}  // namespace dash::webapp
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "lock-block");
  EXPECT_EQ(r.violations[0].line, 7);
  EXPECT_NE(r.violations[0].message.find("Pool::mutex_"), std::string::npos);
}

TEST(LockBlock, CallToBlockingFunctionWhileHoldingMutexFires) {
  Report r = AnalyzeFiles({{"src/core/runner.cc", R"cc(
namespace dash::core {
void Task() DASH_BLOCKING {}
class Runner {
 public:
  void Go() {
    util::MutexLock lock(mu_);
    Task();
  }
 private:
  util::Mutex mu_;
};
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "lock-block");
  EXPECT_NE(r.violations[0].message.find("blocking Task"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("Runner::mu_"), std::string::npos);
}

TEST(LockBlock, CondVarWaitOnSoleHeldMutexIsExempt) {
  Report r = AnalyzeFiles({{"src/util/queue_fixture.h", R"cc(
namespace dash::util {
class Queue {
 public:
  void Block() {
    util::MutexLock lock(mutex_);
    while (Empty()) ready_.Wait(mutex_);
  }
  bool Empty() { return true; }
 private:
  util::Mutex mutex_;
  util::CondVar ready_;
};
}  // namespace dash::util
)cc"}});
  // cv.Wait(m) releases m while parked: the one sanctioned blocking-
  // while-holding shape.
  EXPECT_TRUE(r.violations.empty());
}

TEST(LockBlock, CondVarWaitWithSecondMutexHeldStillFires) {
  Report r = AnalyzeFiles({{"src/util/queue_fixture.h", R"cc(
namespace dash::util {
class Queue {
 public:
  void Block() {
    util::MutexLock a(mu_a_);
    util::MutexLock b(mu_b_);
    ready_.Wait(mu_b_);
  }
 private:
  util::Mutex mu_a_;
  util::Mutex mu_b_;
  util::CondVar ready_;
};
}  // namespace dash::util
)cc"}});
  // Wait releases mu_b_ but keeps mu_a_ held while parked: a real
  // lock-while-blocked hazard.
  ASSERT_TRUE(HasRule(r, "lock-block"));
}

// ----------------------------------------------------------------- lock-cycle

TEST(LockCycle, OppositeNestingOrdersFail) {
  Report r = AnalyzeFiles({{"src/core/pair.h", R"cc(
namespace dash::core {
class Pair {
 public:
  void Fwd() {
    util::MutexLock a(mu_a_);
    util::MutexLock b(mu_b_);
  }
  void Rev() {
    util::MutexLock b(mu_b_);
    util::MutexLock a(mu_a_);
  }
 private:
  util::Mutex mu_a_;
  util::Mutex mu_b_;
};
}  // namespace dash::core
)cc"}});
  ASSERT_TRUE(HasRule(r, "lock-cycle"));
  EXPECT_TRUE(HasEntry(r.lock_edges, "Pair::mu_a_ -> Pair::mu_b_"));
  EXPECT_TRUE(HasEntry(r.lock_edges, "Pair::mu_b_ -> Pair::mu_a_"));
}

TEST(LockCycle, ReentrantAcquisitionThroughCalleeIsASelfLoop) {
  Report r = AnalyzeFiles({{"src/core/reent.h", R"cc(
namespace dash::core {
class Reent {
 public:
  void Outer() {
    util::MutexLock lock(mu_);
    Inner();
  }
  void Inner() {
    util::MutexLock lock(mu_);
  }
 private:
  util::Mutex mu_;
};
}  // namespace dash::core
)cc"}});
  // util::Mutex is non-recursive: Outer -> Inner re-acquires mu_ while
  // holding it, which the order graph models as the self-loop mu_ -> mu_.
  ASSERT_TRUE(HasRule(r, "lock-cycle"));
  EXPECT_TRUE(HasEntry(r.lock_edges, "Reent::mu_ -> Reent::mu_"));
}

// The deadlock shape this analyzer exists to prevent from regressing: an
// engine rebuild runs ParallelFor while holding the shard mutex, and a
// worker task re-enters code that takes the same mutex. (The real bug hit
// ShardedFor before the build was hoisted out of the critical section.)
TEST(LockCycle, NestedParallelForUnderMutexReproducesTheDeadlockShape) {
  Report r = AnalyzeFiles({{"src/core/server_fixture.h", R"cc(
namespace dash::core {
class FixturePool {
 public:
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn)
      DASH_BLOCKING {}
};
class Server {
 public:
  void Handle() {
    util::MutexLock lock(shard_mutex_);
    Build();
  }
  void Build() {
    pool_.ParallelFor(4, task_);
    Reenter();
  }
  void Reenter() {
    util::MutexLock lock(shard_mutex_);
  }
 private:
  util::Mutex shard_mutex_;
  FixturePool pool_;
  std::function<void(std::size_t)> task_;
};
}  // namespace dash::core
)cc"}});
  // Blocking (ParallelFor) reached while shard_mutex_ is held...
  EXPECT_TRUE(HasRule(r, "lock-block"));
  // ...and the re-entrant acquisition closes the order-graph cycle.
  EXPECT_TRUE(HasRule(r, "lock-cycle"));
  EXPECT_TRUE(
      HasEntry(r.lock_edges, "Server::shard_mutex_ -> Server::shard_mutex_"));
}

TEST(LockCycle, DistinctClassesWithSameFieldNameStayDistinct) {
  Report r = AnalyzeFiles({{"src/core/two.h", R"cc(
namespace dash::core {
class Inner {
 public:
  void Touch() {
    util::MutexLock lock(mu_);
  }
 private:
  util::Mutex mu_;
};
class Outer {
 public:
  void Touch() {
    util::MutexLock lock(mu_);
    inner_.Touch();
  }
 private:
  util::Mutex mu_;
  Inner inner_;
};
}  // namespace dash::core
)cc"}});
  // Outer::mu_ -> Inner::mu_ is a plain nesting order, not a self-loop:
  // mutex identity is class-qualified, so the shared field name `mu_`
  // cannot alias across classes.
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(HasEntry(r.lock_edges, "Outer::mu_ -> Inner::mu_"));
}

// --------------------------------------------------------------- escape hatch

TEST(EscapeHatch, SameLineAndPreviousLineAllowSuppressAndAreCounted) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve() DASH_HOT_PATH {
  auto a = std::make_unique<int>(1);  // dash-analyze: allow(hot-alloc)
  // dash-analyze: allow(hot-alloc)
  auto b = std::make_unique<int>(2);
  auto c = std::make_unique<int>(3);
  return *a + *b + *c;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].line, 7);
  ASSERT_EQ(r.allowed.size(), 2u);
  EXPECT_EQ(r.allowed[0].rule, "hot-alloc");
  EXPECT_EQ(r.allowed[0].line, 4);
  EXPECT_EQ(r.allowed[1].line, 6);
}

TEST(EscapeHatch, AllowOnlySuppressesTheNamedRule) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve() DASH_HOT_PATH {
  // dash-analyze: allow(hot-lock)
  auto p = std::make_unique<int>(1);
  return *p;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
  EXPECT_TRUE(r.allowed.empty());
}

// ------------------------------------------------------------------- plumbing

TEST(Plumbing, LockVocabularyFilesAreExempt) {
  // mutex.h and the annotation headers define the tokens every rule keys
  // on; analyzing them would flag their own vocabulary.
  Report r = AnalyzeFiles({{"src/util/mutex.h", R"cc(
namespace dash::util {
int Serve() DASH_HOT_PATH { return *new int(1); }
}  // namespace dash::util
)cc"}});
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(r.hot_roots.empty());
}

TEST(Plumbing, ToolsFilesAreSubjectToTheSameRules) {
  Report r = AnalyzeFiles({{"tools/fake_tool.cc", R"cc(
namespace dash::tools {
int Serve() DASH_HOT_PATH { return *new int(1); }
}  // namespace dash::tools
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
}

TEST(Plumbing, CommentsAndStringsAreInvisible) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve() DASH_HOT_PATH {
  // std::make_unique<int>(1) in a comment is fine, as is sleep_for here.
  /* block comment: MutexLock lock(mu_); std::cout << "x"; */
  const char* doc = "make_shared malloc MutexLock cout Pop";
  return doc[0];
}
}  // namespace dash::core
)cc"}});
  EXPECT_TRUE(r.violations.empty());
}

// A C++14 digit separator is not a character literal: the rest of the line
// stays code, so an allocation after `1'000` is still seen.
TEST(Plumbing, DigitSeparatorKeepsTheRestOfTheLineVisible) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve(int n) DASH_HOT_PATH {
  int lim = 1'000; int* p = new int(n);
  return lim + *p;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
  EXPECT_EQ(r.violations[0].line, 4);
}

// The same holds after hex and binary digits, which may be letters; an
// encoding prefix (u8'}', L'}') still opens a character literal, so the
// brace inside it does not end the function early.
TEST(Plumbing, HexDigitSeparatorKeepsTheRestOfTheLineVisible) {
  for (const char* statement :
       {"int m = 0xFF'FF;", "int m = 0b1010'1010;", "char m = u8'}';",
        "wchar_t m = L'}';"}) {
    Report r = AnalyzeFiles({{"src/core/hot.cc", std::string(R"cc(
namespace dash::core {
int Serve(int n) DASH_HOT_PATH {
  )cc") + statement + R"cc( int* p = new int(n);
  return m + *p;
}
}  // namespace dash::core
)cc"}});
    ASSERT_EQ(r.violations.size(), 1u) << statement;
    EXPECT_EQ(r.violations[0].rule, "hot-alloc") << statement;
    EXPECT_EQ(r.violations[0].line, 4) << statement;
  }
}

// ...and a brace after a digit separator still opens a block, so the body
// does not end early and hide what follows the block.
TEST(Plumbing, DigitSeparatorKeepsTheBraceStructure) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve(int n) DASH_HOT_PATH {
  if (n > 1'000) {
    n = 0;
  }
  int* p = new int(n);
  return *p;
}
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "hot-alloc");
  EXPECT_EQ(r.violations[0].line, 7);
}

TEST(Plumbing, DiagnosticFormatIsMachineReadable) {
  Report r = AnalyzeFiles({{"src/core/hot.cc", R"cc(
namespace dash::core {
int Serve() DASH_HOT_PATH { return *new int(1); }
}  // namespace dash::core
)cc"}});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].ToString().rfind("src/core/hot.cc:3: hot-alloc: ",
                                             0),
            0u);
}

TEST(Plumbing, RuleCatalogNamesEveryRule) {
  std::string catalog = RuleCatalog();
  for (const char* rule : {"hot-alloc", "hot-lock", "hot-log", "hot-block",
                           "lock-block", "lock-cycle"}) {
    EXPECT_NE(catalog.find(rule), std::string::npos) << rule;
  }
}

// -------------------------------------------------- acceptance: injected bug

// The contract the hot-path rule was built for: if someone re-introduces a
// per-request allocation into TopKSearcher::Search, the tree stops being
// analyze-clean. Runs the real sources with one allocation spliced into
// the top of Search's body.
TEST(Acceptance, InjectedAllocationInTopKSearcherSearchIsCaught) {
  const std::string header =
      ReadFileOrDie(std::string(DASH_SOURCE_DIR) + "/src/core/topk_search.h");
  std::string impl =
      ReadFileOrDie(std::string(DASH_SOURCE_DIR) + "/src/core/topk_search.cc");
  ASSERT_FALSE(header.empty());
  ASSERT_FALSE(impl.empty());

  // Baseline: the unmodified pair is clean (the arena warm-up allocation
  // is the audited allowance, not a violation).
  Report before = AnalyzeFiles({{"src/core/topk_search.h", header},
                                {"src/core/topk_search.cc", impl}});
  for (const Diagnostic& d : before.violations) ADD_FAILURE() << d.ToString();
  EXPECT_TRUE(HasEntry(before.hot_roots, "TopKSearcher::Search"));
  EXPECT_FALSE(before.allowed.empty());

  // Inject `new` right after Search's opening brace.
  const std::string anchor = "TopKSearcher::Search(";
  std::size_t at = impl.find(anchor);
  ASSERT_NE(at, std::string::npos);
  std::size_t brace = impl.find('{', at);
  ASSERT_NE(brace, std::string::npos);
  impl.insert(brace + 1, "\n  int* injected_leak = new int(7);\n");

  Report after = AnalyzeFiles({{"src/core/topk_search.h", header},
                               {"src/core/topk_search.cc", impl}});
  ASSERT_TRUE(HasRule(after, "hot-alloc"));
  bool names_search = false;
  for (const Diagnostic& d : after.violations) {
    if (d.rule == "hot-alloc" &&
        d.message.find("TopKSearcher::Search") != std::string::npos) {
      names_search = true;
    }
  }
  EXPECT_TRUE(names_search);
}

// -------------------------------------------------------- whole-tree checks

// The tree itself must be clean — the invariant the `analyze-graph` CTest
// label and CI job enforce, checked here through the library entry point.
TEST(Tree, RepositoryIsAnalyzeClean) {
  Report r = AnalyzeTree(DASH_SOURCE_DIR);
  for (const Diagnostic& d : r.violations) {
    ADD_FAILURE() << d.ToString();
  }
  EXPECT_GT(r.files_scanned, 50u);
  EXPECT_GT(r.call_edges, 500u);
  // The serving roots the contract is anchored on.
  for (const char* root :
       {"TopKSearcher::Search", "ShardedEngine::MergeShardResults",
        "SearchService::HandleSearch", "ResultCache::Lookup",
        "SnapshotPublisher::Current", "IndexSnapshot::GatherTerm",
        "RouterService::HandleRouted"}) {
    EXPECT_TRUE(HasEntry(r.hot_roots, root)) << root;
  }
  // The audited escape set: exactly the two reviewed allowances (the
  // thread-local arena warm-up and the cache-lookup mutex). Growing this
  // list is a reviewed decision, so the count is pinned.
  EXPECT_EQ(r.allowed.size(), 2u);
}

TEST(Tree, ToolsAreAnalyzeClean) {
  Report r = AnalyzeTree(DASH_SOURCE_DIR);
  for (const Diagnostic& d : r.violations) {
    if (d.file.rfind("tools/", 0) == 0) ADD_FAILURE() << d.ToString();
  }
}

}  // namespace
}  // namespace dash::analyze
