// dash_fuzz: differential fuzzing driver for the Dash engine.
//
// Generates random database/web-application instances (testing/instance_gen)
// and cross-checks every answer path and metamorphic invariant on each
// (testing/oracles). On a mismatch the failing instance is shrunk by
// deleting rows while the mismatch persists, then dumped together with a
// replayable command line.
//
//   dash_fuzz --runs 1000            # sweep seeds 1..1000
//   dash_fuzz --runs 1000 --threads 8  # same sweep on a worker pool
//   dash_fuzz --seed 4242            # replay one seed verbosely
//   dash_fuzz --runs 200 --queries 8 --no-shrink
//
// `--threads N` only parallelizes the sweep across seeds — each seed's
// instance, workload, shrink, and replay stay bit-for-bit deterministic,
// and a parallel sweep reports the same (lowest) failing seed a
// sequential one would.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "testing/instance_gen.h"
#include "testing/oracles.h"
#include "util/thread_pool.h"

namespace {

using dash::testing::CheckInstance;
using dash::testing::DumpInstance;
using dash::testing::GenerateInstance;
using dash::testing::OracleOptions;
using dash::testing::OracleReport;
using dash::testing::RandomInstance;

struct Args {
  std::uint64_t runs = 200;
  std::uint64_t start = 1;
  std::int64_t seed = -1;  // >= 0: replay exactly this seed
  std::uint64_t threads = 1;
  bool shrink = true;
  bool verbose = false;
  OracleOptions oracle;
};

[[noreturn]] void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --runs N       seeds to sweep (default 200)\n"
      << "  --start N      first seed of the sweep (default 1)\n"
      << "  --seed N       replay a single seed and dump the instance\n"
      << "  --threads N    sweep seeds on an N-worker pool (default 1);\n"
      << "                 reports the same lowest failing seed as N=1\n"
      << "  --queries N    random queries per instance (default "
      << OracleOptions{}.queries_per_instance << ")\n"
      << "  --updates N    insert/delete mutations per instance (default "
      << OracleOptions{}.update_ops << ")\n"
      << "  --mixed-writes sustained interleaved insert/delete/search\n"
      << "                 workload driving the segment-merge invariants\n"
      << "                 (merge(A,B) == rebuild(A||B); tombstoned docs\n"
      << "                 vanish from answers; sharded views of every\n"
      << "                 segmented snapshot answer alike and their\n"
      << "                 shard stats sum to the rebuilt df); "
      << OracleOptions{}.mixed_write_ops << " ops per instance\n"
      << "  --mixed-ops N  override the mixed-writes op count\n"
      << "  --no-shrink    report the original failing instance unshrunk\n"
      << "  --verbose      print every instance summary while sweeping\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto next_value = [&](int& i) -> std::uint64_t {
    if (i + 1 >= argc) Usage(argv[0]);
    return std::strtoull(argv[++i], nullptr, 10);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--runs") {
      args.runs = next_value(i);
    } else if (arg == "--start") {
      args.start = next_value(i);
    } else if (arg == "--seed") {
      args.seed = static_cast<std::int64_t>(next_value(i));
    } else if (arg == "--threads") {
      args.threads = next_value(i);
      if (args.threads == 0) Usage(argv[0]);
    } else if (arg == "--queries") {
      args.oracle.queries_per_instance = static_cast<int>(next_value(i));
    } else if (arg == "--updates") {
      args.oracle.update_ops = static_cast<int>(next_value(i));
    } else if (arg == "--mixed-writes") {
      args.oracle.check_mixed_writes = true;
    } else if (arg == "--mixed-ops") {
      args.oracle.mixed_write_ops = static_cast<int>(next_value(i));
    } else if (arg == "--no-shrink") {
      args.shrink = false;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else {
      Usage(argv[0]);
    }
  }
  return args;
}

// The query/update workload seed is derived from the instance seed, so one
// `--seed N` line replays both the instance and the workload exactly.
std::uint64_t WorkloadSeed(std::uint64_t seed) { return seed ^ 0x5EEDF00DULL; }

// Delta-debugging by row deletion: repeatedly try removing one row at a
// time; keep a deletion when the oracle mismatch persists. Converges to an
// instance where every remaining row is necessary for the failure.
RandomInstance Shrink(const RandomInstance& failing,
                      const OracleOptions& options) {
  RandomInstance best = failing;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const std::string& name : best.db.TableNames()) {
      for (std::size_t r = 0; r < best.db.table(name).row_count();) {
        RandomInstance candidate = best;
        dash::db::Row victim = candidate.db.table(name).rows()[r];
        candidate.db.mutable_table(name).RemoveFirstMatch(victim);
        if (!CheckInstance(candidate, WorkloadSeed(candidate.seed), options)
                 .ok()) {
          best = std::move(candidate);
          progress = true;  // same index now names the next row
        } else {
          ++r;  // row is load-bearing, keep it
        }
      }
    }
  }
  best.summary += " (shrunk)";
  return best;
}

int ReportFailure(const RandomInstance& original, const Args& args) {
  RandomInstance culprit =
      args.shrink ? Shrink(original, args.oracle) : original;
  OracleReport report =
      CheckInstance(culprit, WorkloadSeed(culprit.seed), args.oracle);
  std::cout << "FAILURE at seed " << original.seed << "\n"
            << report.ToString() << "\n"
            << DumpInstance(culprit)
            << "replay: dash_fuzz --seed " << original.seed << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  if (args.seed >= 0) {
    RandomInstance inst =
        GenerateInstance(static_cast<std::uint64_t>(args.seed));
    std::cout << DumpInstance(inst);
    OracleReport report =
        CheckInstance(inst, WorkloadSeed(inst.seed), args.oracle);
    if (!report.ok()) return ReportFailure(inst, args);
    std::cout << "seed " << args.seed << ": all oracles agree\n";
    return 0;
  }

  if (args.threads > 1) {
    // Parallel sweep: seeds fan out over the pool; the lowest failing
    // seed wins, so the verdict matches a sequential sweep. Seeds above
    // an already-found failure are skipped (the sequential sweep would
    // never have reached them).
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    std::atomic<std::uint64_t> first_failure{kNone};
    std::atomic<std::uint64_t> checked{0};
    dash::util::ThreadPool pool(args.threads);
    pool.ParallelFor(args.runs, [&](std::size_t i) {
      std::uint64_t seed = args.start + i;
      if (seed >= first_failure.load(std::memory_order_relaxed)) return;
      RandomInstance inst = GenerateInstance(seed);
      if (args.verbose) std::cout << inst.summary + "\n";
      OracleReport report =
          CheckInstance(inst, WorkloadSeed(seed), args.oracle);
      if (!report.ok()) {
        std::uint64_t seen = first_failure.load(std::memory_order_relaxed);
        while (seed < seen && !first_failure.compare_exchange_weak(
                                  seen, seed, std::memory_order_relaxed)) {
        }
        return;
      }
      std::uint64_t done = checked.fetch_add(1) + 1;
      if (done % 100 == 0) {
        std::cout << std::to_string(done) + "/" + std::to_string(args.runs) +
                         " seeds checked\n";
      }
    });
    std::uint64_t failing = first_failure.load();
    if (failing != kNone) {
      // Re-derive the culprit on this thread; shrink and the replay line
      // are exactly what a sequential sweep would have printed.
      return ReportFailure(GenerateInstance(failing), args);
    }
    std::cout << "OK: " << checked.load()
              << " instances, zero oracle mismatches\n";
    return 0;
  }

  std::uint64_t checked = 0;
  for (std::uint64_t seed = args.start; seed < args.start + args.runs;
       ++seed) {
    RandomInstance inst = GenerateInstance(seed);
    if (args.verbose) std::cout << inst.summary << "\n";
    OracleReport report =
        CheckInstance(inst, WorkloadSeed(seed), args.oracle);
    if (!report.ok()) return ReportFailure(inst, args);
    if (++checked % 100 == 0) {
      std::cout << checked << "/" << args.runs << " seeds checked\n";
    }
  }
  std::cout << "OK: " << checked << " instances, zero oracle mismatches\n";
  return 0;
}
