// dash_analyze — whole-repo call-graph contract checker (DESIGN.md §13).
//
// dash_lint (dash_lint_lib.h) checks one line at a time; this tool checks
// properties that only exist *across* functions. It extracts a
// function-definition / call-site graph from every source file under
// src/ and tools/ over the source model dash_lint also uses
// (source_model.h: comments, string literals and preprocessor lines
// blanked; no LLVM dependency) and enforces two whole-program contracts:
//
// 1. Hot-path purity. Functions annotated DASH_HOT_PATH
//    (src/util/analysis_annotations.h) are latency-critical serving
//    roots: nothing transitively reachable from them may
//      - allocate            (new / make_unique / make_shared / malloc
//                             / calloc / realloc / strdup)  ... hot-alloc
//      - acquire a mutex     (MutexLock / lock_guard / unique_lock /
//                             scoped_lock / .Lock())        ... hot-lock
//      - log or touch iostreams (DASH_LOG / cout / cerr / clog /
//                             printf / fprintf / puts)      ... hot-log
//      - block               (sleep_for / accept / Join / Pop / Wait /
//                             future .get() / a DASH_BLOCKING callee)
//                                                           ... hot-block
//    The walk stops at DASH_COLD_PATH functions — the sanctioned
//    hot/cold boundaries (cache miss, engine rebuild); every boundary
//    actually crossed is counted and listed in the report so the escape
//    set stays visible in review.
//
// 2. Lock order and lock-time blocking. A static lock-order graph is
//    derived from nested util::MutexLock scopes plus DASH_ACQUIRE /
//    DASH_REQUIRES annotations: an edge A -> B means B was acquired
//    while A was held (directly, or anywhere in a callee). Cycles —
//    including self-loops, the re-entrant-acquisition shape — fail with
//    lock-cycle. Blocking while holding any mutex (a blocking token or
//    a call whose transitive closure blocks, e.g. ThreadPool::Join,
//    BoundedQueue::Pop, future .get()) fails with lock-block; the one
//    sanctioned shape, `cv.Wait(m)` on the *sole* held mutex m, is
//    exempt because CondVar::Wait releases m while parked.
//
// Escape hatch: a `dash-analyze: allow(rule[, rule...])` comment on the
// flagged line or the line above suppresses each named rule there
// (syntax in source_model.h); suppressions are counted and listed in the
// summary, exactly like dash_lint's.
//
// Known limits (token analyzer, not a compiler): calls through
// std::function values, destructor-triggered joins (pool_.reset()), and
// operator overloads are not graph edges; receiver types are inferred
// from declaration statements, falling back to every method of that
// name. The fixture tests in tests/dash_analyze_test.cpp pin the
// behaviour at these edges.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "source_model.h"

namespace dash::analyze {

// Diagnostic rule ids: hot-alloc|hot-lock|hot-log|hot-block|lock-block|
// lock-cycle.
using source::Diagnostic;
using source::SourceFile;

struct Report {
  std::vector<Diagnostic> violations;
  std::vector<Diagnostic> allowed;  // suppressed by dash-analyze: allow(...)
  std::size_t files_scanned = 0;
  std::size_t functions = 0;
  std::size_t call_edges = 0;  // resolved call-site -> definition edges
  // Audit trails (sorted, deduplicated):
  std::vector<std::string> hot_roots;        // DASH_HOT_PATH functions
  std::vector<std::string> cold_boundaries;  // "Cold::Fn (from Hot::Root)"
  std::vector<std::string> blocking;         // DASH_BLOCKING + derived blockers
  std::vector<std::string> lock_edges;       // "A -> B @ file:line"
};

// Analyze an explicit file set (the fixture-test entry point). The lock
// and annotation vocabulary itself — src/util/mutex.h,
// src/util/thread_annotations.h and src/util/analysis_annotations.h — is
// skipped: those files define the tokens every rule keys on.
Report AnalyzeFiles(const std::vector<SourceFile>& files);

// Analyze every *.h / *.cc under <root>/src and <root>/tools.
Report AnalyzeTree(const std::string& root);

// Human-readable catalog of every rule id, for --list-rules.
std::string RuleCatalog();

}  // namespace dash::analyze
