// Tests of the benchmark's own helpers: the tail-percentile rule, the
// seeded input streams, span self-time arithmetic and the host-speed
// sampler.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "core/index_update.h"
#include "reference.h"
#include "stats.h"
#include "streams.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is sample 990, ten lie beyond it.
  Tail tail = TailOf(Ramp(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(tail.Label(), "p99");
}

TEST(Tail, FallsBackWhenTooFewSamplesBeyond) {
  // 999 samples leave only nine beyond p99, so p98 it is.
  Tail tail = TailOf(Ramp(999), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.98);
  EXPECT_GE(SamplesBeyond(999, tail.quantile), 10u);
  // 200 samples: p95 leaves exactly ten.
  EXPECT_DOUBLE_EQ(TailOf(Ramp(200), 0.99).quantile, 0.95);
  // 100 samples: p90.
  EXPECT_DOUBLE_EQ(TailOf(Ramp(100), 0.99).quantile, 0.90);
  // 20 samples: only the median leaves ten beyond.
  EXPECT_DOUBLE_EQ(TailOf(Ramp(20), 0.99).quantile, 0.50);
  // Fewer than 20: the maximum.
  Tail small = TailOf(Ramp(5), 0.99);
  EXPECT_EQ(small.Label(), "max");
  EXPECT_DOUBLE_EQ(small.value, 5);
}

TEST(Tail, CapLimitsThePercentile) {
  // 100000 samples would allow p99.9, but the cap holds it at p99.
  EXPECT_DOUBLE_EQ(TailOf(Ramp(100000), 0.99).quantile, 0.99);
  EXPECT_DOUBLE_EQ(TailOf(Ramp(100000), 0.999).quantile, 0.999);
  EXPECT_EQ(TailOf(Ramp(100000), 0.999).Label(), "p99.9");
}

TEST(Percentile, NearestRank) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.75), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
}

TEST(Streams, SameSeedSameRequests) {
  dash::util::ZipfSampler zipf(5000, 1.0);
  const std::vector<const dash::util::ZipfSampler*> samplers = {&zipf, nullptr};
  for (const dash::util::ZipfSampler* z : samplers) {
    RequestStream a(30, z, SubSeed(7, 0)), b(30, z, SubSeed(7, 0)),
        c(30, z, SubSeed(8, 0));
    std::vector<std::size_t> ra, rb, rc;
    for (int i = 0; i < 500; ++i) {
      ra.push_back(a.Next());
      rb.push_back(b.Next());
      rc.push_back(c.Next());
    }
    EXPECT_EQ(ra, rb);
    EXPECT_NE(ra, rc);
  }
  EXPECT_NE(SubSeed(7, 0), SubSeed(7, 1));
}

std::vector<WriteOp> ApplyWrites(std::uint64_t seed, int count) {
  dash::core::UpdatableIndex index(dash::tpch::Generate(dash::tpch::Scale::kTiny),
                                   dash::bench::MakeApp(2));
  WriteStream stream(seed);
  std::vector<WriteOp> ops;
  for (int i = 0; i < count; ++i) {
    ops.push_back(stream.Next(index.database()));
    Apply(index, ops.back());
  }
  return ops;
}

TEST(Streams, SameSeedSameWrites) {
  std::vector<WriteOp> a = ApplyWrites(11, 40);
  std::vector<WriteOp> b = ApplyWrites(11, 40);
  std::vector<WriteOp> c = ApplyWrites(12, 40);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  int inserts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].insert, b[i].insert);
    EXPECT_EQ(a[i].row, b[i].row);
    differs = differs || a[i].insert != c[i].insert || a[i].row != c[i].row;
    inserts += a[i].insert ? 1 : 0;
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(inserts, 0);
  EXPECT_LT(inserts, 40);
}

Span At(std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsDirectChildren) {
  std::vector<Span> spans = {At(0, 100, -1), At(10, 30, 0), At(50, 60, 0),
                             At(12, 20, 1)};
  std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);  // the grandchild is not subtracted
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 8);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,30) and [20,50) overlap on [20,30): union 40, not 50.
  std::vector<Span> spans = {At(0, 100, -1), At(10, 30, 0), At(20, 50, 0)};
  EXPECT_EQ(SelfTimes(spans)[0], 60);
  // A child nested inside another sibling adds nothing.
  spans.push_back(At(25, 28, 0));
  EXPECT_EQ(SelfTimes(spans)[0], 60);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent (e.g. work handed to another thread)
  // only covers the parent's own interval.
  std::vector<Span> spans = {At(0, 100, -1), At(90, 150, 0), At(-20, 5, 0)};
  EXPECT_EQ(SelfTimes(spans)[0], 100 - 10 - 5);
}

TEST(SelfTime, TracerRecordsNesting) {
  Tracer tracer;
  {
    ScopedSpan root(tracer, "root", -1, 7);
    ScopedSpan child(tracer, "child", root.id(), 7);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7u);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  std::vector<std::int64_t> self = SelfTimes(tracer.spans());
  EXPECT_GE(self[0], 0);
}

TEST(HostSpeed, SamplerCountsItsOwnCpuTime) {
  HostSpeedSampler sampler(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  sampler.Stop();
  ASSERT_GT(sampler.units(), 0u);
  EXPECT_GT(sampler.slowdown(), 0.0);
  // The thread's CPU time covers every unit it timed, plus its set-up, so
  // a process total less cpu_s() holds none of the sampler's work.
  EXPECT_GE(sampler.cpu_s(), sampler.slowdown() * kReferenceUnitCpuS);
  sampler.Stop();  // stopping twice is harmless
}

}  // namespace
}  // namespace perfbench
