// Fixed-seed block of the differential fuzzing harness (tools/dash_fuzz),
// run under ctest so the harness itself — generator, oracles, and the
// invariants they pin down — is tier-1-guarded. The block is split into
// ranges so `ctest -j` spreads the work, and carries the `fuzz` label so
// the asan/tsan presets can select it (`ctest -L fuzz`).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testing/instance_gen.h"
#include "testing/oracles.h"
#include "util/thread_pool.h"

namespace dash::testing {
namespace {

// Must match tools/dash_fuzz.cc so a failing seed here replays with
// `dash_fuzz --seed N`.
std::uint64_t WorkloadSeed(std::uint64_t seed) { return seed ^ 0x5EEDF00DULL; }

// Seeds are independent, so the range fans out over the shared worker
// pool (like `dash_fuzz --threads`); each seed's check stays bit-for-bit
// deterministic and failures are reported in seed order.
void CheckSeedRange(std::uint64_t first, std::uint64_t last) {
  const std::size_t count = static_cast<std::size_t>(last - first + 1);
  std::vector<std::string> failures(count);
  util::ThreadPool::Shared().ParallelFor(count, [&](std::size_t i) {
    std::uint64_t seed = first + i;
    RandomInstance inst = GenerateInstance(seed);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed));
    if (!report.ok()) {
      failures[i] = "replay: dash_fuzz --seed " + std::to_string(seed) +
                    "\n" + report.ToString();
    }
  });
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      ADD_FAILURE() << failure;
      return;  // one seed's dump is enough to debug
    }
  }
}

TEST(FuzzSmoke, Seeds1To30) { CheckSeedRange(1, 30); }
TEST(FuzzSmoke, Seeds31To60) { CheckSeedRange(31, 60); }
TEST(FuzzSmoke, Seeds61To90) { CheckSeedRange(61, 90); }
TEST(FuzzSmoke, Seeds91To120) { CheckSeedRange(91, 120); }

// Directed shapes the random sweep hits only occasionally.
TEST(FuzzSmoke, DirectedFourTableChain) {
  GenOptions options;
  options.force_tables = 4;
  for (std::uint64_t seed = 500; seed < 505; ++seed) {
    RandomInstance inst = GenerateInstance(seed, options);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed));
    EXPECT_TRUE(report.ok()) << inst.summary << "\n" << report.ToString();
  }
}

TEST(FuzzSmoke, DirectedTwoRangeAttributes) {
  GenOptions options;
  options.force_eq = 0;
  options.force_range = 2;
  for (std::uint64_t seed = 600; seed < 605; ++seed) {
    RandomInstance inst = GenerateInstance(seed, options);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed));
    EXPECT_TRUE(report.ok()) << inst.summary << "\n" << report.ToString();
  }
}

TEST(FuzzSmoke, DirectedEmptyRoot) {
  GenOptions options;
  options.empty_root = true;
  for (std::uint64_t seed = 700; seed < 705; ++seed) {
    RandomInstance inst = GenerateInstance(seed, options);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed));
    EXPECT_TRUE(report.ok()) << inst.summary << "\n" << report.ToString();
  }
}

TEST(FuzzSmoke, DirectedOuterJoin) {
  GenOptions options;
  options.force_outer = 1;
  for (std::uint64_t seed = 800; seed < 805; ++seed) {
    RandomInstance inst = GenerateInstance(seed, options);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed));
    EXPECT_TRUE(report.ok()) << inst.summary << "\n" << report.ToString();
  }
}

// Sustained mixed insert/delete/search workload: the segmented
// UpdatableIndex accumulates delta segments + compactions while every op
// is cross-checked against a fresh rebuild and the merge(A,B) ≡
// rebuild(A∪B) invariant, and every ShardedEngine view of each
// multi-segment snapshot against the segmented search (tools/dash_fuzz
// --mixed-writes runs the same oracle over the full sweep). The other
// oracles are disabled so this block's runtime is the write workload
// itself.
TEST(FuzzSmoke, DirectedMixedWrites) {
  OracleOptions options;
  options.check_crawl_equivalence = false;
  options.check_graph = false;
  options.check_search = false;
  options.check_page_engine = false;
  options.check_save_load = false;
  options.check_updates = false;
  options.check_server = false;
  options.check_mixed_writes = true;
  options.mixed_write_ops = 10;
  for (std::uint64_t seed = 900; seed < 908; ++seed) {
    RandomInstance inst = GenerateInstance(seed);
    OracleReport report = CheckInstance(inst, WorkloadSeed(seed), options);
    EXPECT_TRUE(report.ok()) << inst.summary << "\n" << report.ToString();
  }
}

}  // namespace
}  // namespace dash::testing
