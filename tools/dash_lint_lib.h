// dash_lint — repo-specific invariant linter (no LLVM dependency).
//
// The Clang thread-safety analysis (see src/util/thread_annotations.h)
// proves lock discipline, but several Dash invariants live above the type
// system: which modules may create threads, which may consume wall-clock
// or entropy, and which container iterations must be canonically ordered.
// dash_lint enforces those with a token-level scan over the shared source
// model (source_model.h: comments, string literals and preprocessor lines
// blanked) plus namespace/brace structure — enough context to keep the
// false-positive rate near zero on this codebase without dragging in a
// compiler frontend.
//
// Rule catalog (ids are stable; tie-ins reference DESIGN.md §10):
//   raw-thread       std::thread/std::jthread/std::async only in
//                    util/thread_pool.{h,cc} — everything else goes
//                    through util::ThreadPool so pool sizing, exception
//                    propagation, and shutdown stay centralized.
//   nondeterminism   no rand()/srand()/std::random_device/time()/
//                    std::chrono::system_clock in src/core + src/mapreduce:
//                    crawl/index/serving must be seed-replayable
//                    (SplitMix64 via util/random.h only). This is the
//                    contract the PR 2 fuzz oracles depend on.
//   unordered-iter   range-for over a std::unordered_map/set declared in
//                    the same file, inside src/core, needs a canonical
//                    sort within the next few lines (or an allow comment):
//                    hash-order leaking into output is the exact bug class
//                    the differential harness caught twice in PR 2.
//   global-state     namespace-scope mutable variables must carry
//                    DASH_GUARDED_BY (or be atomic/Mutex/const/thread_local)
//                    so the analyze preset can prove every access.
//   iostream-hotpath no <iostream>/std::cout/std::cerr in src/core +
//                    src/db — use util/logging (leveled, sink-fanout,
//                    and quiet under test) instead of interleaving raw
//                    stream writes on hot paths.
//   layer-cycle      quoted includes must follow the one-way module
//                    layering util < db < sql|tpch < webapp < mapreduce
//                    < core < baseline < testing < tools; an upward
//                    include (src/db/ pulling core/..., say) is the seed
//                    of a dependency cycle and is rejected outright.
//
// Escape hatch: a `dash-lint: allow(rule[, rule...])` comment on the
// offending line or the line directly above suppresses each named rule
// there (syntax in source_model.h); suppressions are counted and listed
// in the summary so they stay visible in review.
#pragma once

#include <string>
#include <vector>

#include "source_model.h"

namespace dash::lint {

using source::Diagnostic;

struct Report {
  std::vector<Diagnostic> violations;
  std::vector<Diagnostic> allowed;  // suppressed by dash-lint: allow(...)
  std::size_t files_scanned = 0;
};

// Lints one file's contents. `path` must be the repo-relative path with
// forward slashes (rule applicability is path-based).
Report LintFile(const std::string& path, const std::string& content);

// Walks `root`/src and `root`/tools (tests/ are exempt by design: they may
// spawn raw threads and probe nondeterminism) and lints every *.h/*.cc.
Report LintTree(const std::string& root);

// Human-readable rule catalog for --list-rules.
std::string RuleCatalog();

}  // namespace dash::lint
