// dash_perfbench: the end-to-end benchmark of Dash.
//
// One binary, four workloads, all on TPC-H generated in-process (medium
// scale, the generator's fixed data seed) and driven only through Dash's
// public surfaces: the HTTP /search endpoint of a core::SearchServer on
// loopback, the write calls of core::UpdatableIndex, and the MapReduce
// StepwiseCrawl / IntegratedCrawl jobs.
//
//   hot_topk      Q2; closed loop, 2 connections, 30 hottest keywords,
//                 k=10 s=1000; 2-worker server, no cache, no shards.
//   zipf_sharded  Q2; Zipf(1.0) keywords over the DF-ordered vocabulary,
//                 k=10 s=200; 2-worker server, 256-entry cache, 4 shards.
//                 Closed loop on 2 connections, then a short open loop at
//                 the rate of perfbench/calibration.json (reported only).
//   write_mix     Q2; one closed-loop writer applying the seeded lineitem
//                 churn (60% insert / 40% delete) to an UpdatableIndex,
//                 plus 2 closed-loop reader connections (Zipf, k=10 s=200)
//                 to a server following its publisher (cache 256).
//   crawl         Q3; StepwiseCrawl and IntegratedCrawl alternately on a
//                 4-worker mr::Cluster.
//
// Untraced runs (--trace 0) report the end-to-end metrics setup_s, rss_mb
// and norm_cpu_us_per_op, the CPU time Dash spends on one of the
// workload's own operations (a /search request, a write, a round of SW and
// INT crawls) at the host-speed gauge's reference speed (reference.h),
// and print the wall-clock figures (throughput, p50, p90, p99) beside
// them. Traced runs (--trace 1) replay a fixed prefix of the same seeded
// inputs one request at a time with spans around every layer call
// (replay.h) and report the per-layer metrics, the tracing overhead, and a
// check that the deterministic work counters repeat exactly across two
// traced passes, the second on an index built anew.
//
//   dash_perfbench --workload hot_topk --seed 1 --seconds 10 --trace 0
//   dash_perfbench --workload zipf_sharded --rate 2000 --slo-us 5000 ...
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "client.h"
#include "core/crawler.h"
#include "core/dash_engine.h"
#include "core/index_update.h"
#include "core/mr_crawl.h"
#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "mapreduce/cluster.h"
#include "reference.h"
#include "replay.h"
#include "report.h"
#include "sql/parser.h"
#include "stats.h"
#include "streams.h"
#include "tpch/tpch.h"
#include "trace.h"
#include "util/random.h"
#include "webapp/http.h"
#include "webapp/http_server.h"

namespace {

namespace core = dash::core;
namespace webapp = dash::webapp;
using perfbench::Report;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr dash::tpch::Scale kScale = dash::tpch::Scale::kMedium;
constexpr int kSetups = 3;  // setup_s is the median of this many set-ups
// The crawl's set-up is one single-threaded reference crawl, whose time
// swings with the host more than the served workloads' build does.
constexpr int kCrawlSetups = 5;
constexpr int kK = 10;
// Source-address blocks of the loopback clients (client.h): closed-loop
// clients use 0.., open-loop users kOpenLoopClients.., one-at-a-time
// requests kSerialClient.
constexpr std::uint32_t kOpenLoopClients = 16;
constexpr std::uint32_t kWarmUpClient = 32;
constexpr std::uint32_t kSerialClient = 33;
// Time windows of a search workload's timed phase (see ReportOps).
constexpr int kSearchWindows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  double rate = 0;    // zipf_sharded offered load, requests/s
  double slo_us = 0;  // zipf_sharded latency limit
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// User plus system CPU time of the whole process so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

using perfbench::ThreadCpuSeconds;

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Set-up stage times of one repetition.
struct SetupTimes {
  double generate_s = 0, build_s = 0, warmup_s = 0;
  double total() const { return generate_s + build_s + warmup_s; }
};

// Runs `setup` `setups` times (trace runs: once), keeping the last result;
// reports setup_s as the median total and the stages of the kept
// repetition.
template <typename T>
T RepeatSetup(const Args& args, Report& report,
              const std::function<T(SetupTimes*)>& setup,
              SetupTimes* kept, int setups = kSetups) {
  const int repeats = args.trace ? 1 : setups;
  std::vector<double> totals;
  std::optional<T> result;
  for (int i = 0; i < repeats; ++i) {
    result.reset();  // free the previous repetition before building anew
    SetupTimes times;
    result.emplace(setup(&times));
    totals.push_back(times.total());
    *kept = times;
  }
  report.Note("setup: %d repetition(s), median %.3f s (generate %.3f s, "
              "build %.3f s, warm-up %.3f s in the last)",
              repeats, perfbench::Median(totals), kept->generate_s,
              kept->build_s, kept->warmup_s);
  if (!args.trace) report.Metric("setup_s", perfbench::Median(totals), "s");
  return std::move(*result);
}

// Latency samples with their completion times (seconds since the timed
// phase began).
struct Samples {
  std::vector<double> at_s;
  std::vector<double> us;

  void Add(double at, double latency_us) {
    at_s.push_back(at);
    us.push_back(latency_us);
  }
  void Append(const Samples& other) {
    at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
    us.insert(us.end(), other.us.begin(), other.us.end());
  }
  std::size_t size() const { return us.size(); }
};

struct OpsFigures {
  double rate = 0, p50_us = 0, tail_us = 0;
  std::string tail_label;
};

// Reports the timed phase: the gated end-to-end metrics rss_mb and
// norm_cpu_us_per_op (`cpu_s` of CPU time spent on `ops` operations, over
// the host's slowdown), and printed beside them the wall-clock figures:
// throughput, p50, p90 and the p99 (the highest percentile up to p99 with
// ten samples beyond it in every window), each the median over `windows`
// equal time windows so a stall of the machine moves one window, not the
// result. Wall-clock figures are not gated: on the shared virtual machine
// this was built on, they moved 2-4x between runs minutes apart with the
// host's load. CPU time per operation moved far less, and what remained
// followed the host's speed, which `host` measured during the phase.
OpsFigures ReportOps(Report& report, const char* what, std::size_t ops,
                     double busy_s, const Samples& samples, int windows,
                     double cpu_s, const perfbench::HostSpeedSampler& host) {
  const double span = busy_s / windows;
  std::vector<std::vector<double>> per_window(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto w = static_cast<std::size_t>(span > 0 ? samples.at_s[i] / span : 0);
    per_window[std::min(w, per_window.size() - 1)].push_back(samples.us[i]);
  }
  std::size_t fewest = samples.size();
  for (auto& window : per_window) {
    std::sort(window.begin(), window.end());
    fewest = std::min(fewest, window.size());
  }
  // One tail percentile for all windows: the one the smallest supports.
  perfbench::Tail tail;
  tail.quantile = perfbench::TailQuantile(fewest);
  std::vector<double> p50s, p90s, tails, rates;
  std::string detail;
  for (const auto& window : per_window) {
    p50s.push_back(perfbench::Percentile(window, 0.5));
    p90s.push_back(perfbench::Percentile(window, 0.9));
    tails.push_back(perfbench::Percentile(window, tail.quantile));
    rates.push_back(span > 0 ? static_cast<double>(window.size()) / span : 0);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.0f/%.0f/%.0f", p50s.back(),
                  p90s.back(), tails.back());
    detail += buf;
  }
  const double rate = perfbench::Median(rates);
  const double p50 = perfbench::Median(p50s);
  const double p90 = perfbench::Median(p90s);
  report.Note("%s: %zu ops in %.3f s, median %.2f/s over %d window(s) of >= "
              "%zu samples; median p50 %.1f us, p90 %.1f us, %s %.1f us (%zu "
              "samples beyond it per window)",
              what, ops, busy_s, rate, windows, fewest, p50, p90,
              tail.Label().c_str(), perfbench::Median(tails),
              perfbench::SamplesBeyond(fewest, tail.quantile));
  report.Note("per-window p50/p90/%s us:%s", tail.Label().c_str(),
              detail.c_str());
  const double cpu_us_per_op =
      ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0;
  report.Note("ops_per_s = %.3f 1/s; op_p50_us = %.1f us; op_p90_us = %.1f "
              "us; cpu_us_per_op = %.1f us; host slowdown %.3f (%zu "
              "reference units)",
              rate, p50, p90, cpu_us_per_op, host.slowdown(), host.units());
  report.Metric("rss_mb", PeakRssMb(), "MB");
  report.Metric("norm_cpu_us_per_op", cpu_us_per_op / host.slowdown(), "us");
  return {rate, p50, perfbench::Median(tails), tail.Label()};
}

// ---------------------------------------------------------------------------
// Served index (hot_topk, zipf_sharded): a reference-built Q2 snapshot
// behind a SearchServer.

struct Served {
  core::SnapshotPtr snapshot;
  std::unique_ptr<core::SnapshotPublisher> publisher;
  std::unique_ptr<core::SearchServer> server;
};

core::ServeOptions ServerOptions(std::size_t cache, int shards) {
  core::ServeOptions options;
  options.num_workers = 2;
  options.cache_capacity = cache;
  options.shards = shards;
  return options;
}

// A warm-up request: opens the listener path and, on a sharded server,
// builds the lazy per-publication sharded view.
constexpr const char* kWarmUpTarget = "/search?q=warmup&k=10&s=0";
bool WarmUp(int port) {
  auto response =
      perfbench::LoopbackClient(port, kWarmUpClient).Fetch(kWarmUpTarget);
  return response.has_value() && response->status == 200;
}

// Generates the data and builds the Q2 snapshot the served workloads search.
core::SnapshotPtr BuildQ2Snapshot(SetupTimes* times) {
  Clock::time_point t = Clock::now();
  dash::db::Database db = dash::tpch::Generate(kScale);
  times->generate_s = SecondsSince(t);
  t = Clock::now();
  core::BuildOptions build;
  build.algorithm = core::CrawlAlgorithm::kReference;
  core::SnapshotPtr snapshot =
      core::DashEngine::Build(db, dash::bench::MakeApp(2), build).snapshot();
  times->build_s = SecondsSince(t);
  return snapshot;
}

Served SetUpServed(const core::ServeOptions& options, SetupTimes* times) {
  Served served;
  served.snapshot = BuildQ2Snapshot(times);
  Clock::time_point t = Clock::now();
  served.publisher = std::make_unique<core::SnapshotPublisher>(served.snapshot);
  served.server = std::make_unique<core::SearchServer>(*served.publisher, options);
  served.server->Start();
  if (!WarmUp(served.server->port())) {
    throw std::runtime_error("warm-up request failed");
  }
  times->warmup_s = SecondsSince(t);
  return served;
}

std::vector<std::string> Vocabulary(const core::IndexSnapshot& snapshot) {
  std::vector<std::string> out;
  for (auto& [keyword, df] : snapshot.index().KeywordsByDf()) {
    (void)df;
    out.push_back(keyword);
  }
  return out;
}

// Keyword bucket by DF rank: top 10% hot, bottom 10% cold, rest warm.
enum class Bucket { kCold, kWarm, kHot };
Bucket BucketOf(std::size_t rank, std::size_t vocabulary) {
  if (rank * 10 < vocabulary) return Bucket::kHot;
  if (rank * 10 >= vocabulary * 9) return Bucket::kCold;
  return Bucket::kWarm;
}

// What one client thread saw.
struct ClientLog {
  Samples latency;
  std::vector<double> late_us;  // open loop: send time minus schedule
  std::map<std::size_t, std::string> bodies;  // keyword rank -> first body
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;      // no response or status != 200
  std::uint64_t inconsistent = 0;  // same query, different body
  std::uint64_t slo_missed = 0;
  double cpu_s = 0;  // the client threads' own CPU time

  void Merge(ClientLog&& other) {
    latency.Append(other.latency);
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    for (auto& [rank, body] : other.bodies) {
      auto [it, fresh] = bodies.try_emplace(rank, std::move(body));
      if (!fresh && it->second != body) ++inconsistent;
    }
    sent += other.sent;
    failed += other.failed;
    inconsistent += other.inconsistent;
    slo_missed += other.slo_missed;
    cpu_s += other.cpu_s;
  }
};

// Records one response. `keep_bodies` is off when answers legitimately
// change under the client (write_mix).
void Record(ClientLog& log, std::size_t rank,
            const std::optional<webapp::HttpResponse>& response,
            Clock::time_point origin, double latency_us, bool keep_bodies) {
  ++log.sent;
  if (!response.has_value() || response->status != 200) {
    ++log.failed;
    return;
  }
  log.latency.Add(SecondsSince(origin), latency_us);
  if (keep_bodies) {
    auto [it, fresh] = log.bodies.try_emplace(rank, response->body);
    if (!fresh && it->second != response->body) ++log.inconsistent;
  } else if (log.bodies.size() < 200) {
    log.bodies.try_emplace(rank);
  }
}

// A client thread that threw stops sending; its error counts as a failure.
void ClientError(ClientLog& log, const std::exception& e) {
  ++log.sent;
  ++log.failed;
  std::fprintf(stderr, "dash_perfbench: client: %s\n", e.what());
}

// Closed loop: `clients` threads, each sending its next request when the
// previous one returns, until `stop` is set.
ClientLog RunClosedLoop(int port, const std::vector<std::string>& keywords,
                        const dash::util::ZipfSampler* zipf, std::size_t pool,
                        std::uint64_t s, int clients, std::uint64_t seed,
                        Clock::time_point origin, const std::atomic<bool>& stop,
                        bool keep_bodies) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      const double cpu0 = ThreadCpuSeconds();
      perfbench::RequestStream stream(pool, zipf,
                                      perfbench::SubSeed(seed, static_cast<std::uint64_t>(c)));
      perfbench::LoopbackClient client(port, static_cast<std::uint32_t>(c));
      try {
        while (!stop.load(std::memory_order_relaxed)) {
          std::size_t rank = stream.Next();
          std::string target = perfbench::SearchTarget(keywords[rank], kK, s);
          Clock::time_point sent = Clock::now();
          auto response = client.Fetch(target);
          Record(log, rank, response, origin, UsSince(sent), keep_bodies);
        }
      } catch (const std::exception& e) {
        ClientError(log, e);
      }
      log.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  ClientLog all;
  for (ClientLog& log : logs) all.Merge(std::move(log));
  return all;
}

// RunClosedLoop for `seconds`.
ClientLog ClosedLoopFor(double seconds, int port,
                        const std::vector<std::string>& keywords,
                        const dash::util::ZipfSampler* zipf, std::size_t pool,
                        std::uint64_t s, int clients, std::uint64_t seed,
                        bool keep_bodies) {
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  });
  ClientLog log = RunClosedLoop(port, keywords, zipf, pool, s, clients, seed,
                                start, stop, keep_bodies);
  timer.join();
  return log;
}

// Traffic before the timed phase (its own seed stream), so caches are
// warm and lazily built state exists when timing starts.
constexpr double kPrerollSeconds = 2.0;
constexpr std::uint64_t kPrerollStream = 200;
// The traced run's concurrent phase (see TraceServed).
constexpr double kTransportSeconds = 1.5;
constexpr std::uint64_t kTransportStream = 400;

// Compares every distinct query's body with the direct engine answer.
std::uint64_t CheckBodies(
    const ClientLog& log, const std::vector<std::string>& keywords,
    const std::function<std::vector<core::SearchResult>(const std::string&)>&
        direct) {
  std::uint64_t mismatches = 0;
  for (const auto& [rank, body] : log.bodies) {
    if (core::SearchService::RenderResults(direct(keywords[rank])) != body) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Traced passes over the serving path.

// Per-request figures of one traced pass.
struct RequestTrace {
  double roundtrip_us = 0, handle_us = 0, parse_us = 0, cache_us = 0,
         topk_self_us = 0, gather_us = 0, render_us = 0, merge_us = 0;
  std::vector<double> shard_us;
  bool has_cache = false, has_topk = false, has_shards = false;
};

std::map<std::uint64_t, RequestTrace> PerRequest(const Tracer& tracer) {
  const std::vector<perfbench::Span>& spans = tracer.spans();
  std::vector<std::int64_t> self = perfbench::SelfTimes(spans);
  std::map<std::uint64_t, RequestTrace> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    RequestTrace& r = out[s.request];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    const std::string name = s.name;
    if (name == "http.roundtrip") r.roundtrip_us += dur;
    if (name == "service.handle") r.handle_us += dur;
    if (name == "service.parse") r.parse_us += dur;
    if (name == "service.render") r.render_us += dur;
    if (name == "cache.lookup") {
      r.cache_us += dur;
      r.has_cache = true;
    }
    if (name == "topk.search") {
      r.topk_self_us += static_cast<double>(self[i]) / 1000.0;
      r.has_topk = true;
    }
    if (name == "snapshot.gather") r.gather_us += dur;
    if (name == "sharded.shard_search") {
      r.shard_us.push_back(dur);
      r.has_shards = true;
    }
    if (name == "sharded.merge") r.merge_us += dur;
  }
  return out;
}

// The per-layer metric catalogue: every traced run reports every name, a
// layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"http.roundtrip_us", "us"},
        {"http.transport_self_us", "us"},
        {"http.queue_depth_max", "count"},
        {"http.shed", "count"},
        {"http.parse_errors", "count"},
        {"service.handle_us", "us"},
        {"service.parse_us", "us"},
        {"service.render_us", "us"},
        {"service.searches_per_request", "ratio"},
        {"cache.lookup_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evicted_superseded", "count"},
        {"snapshot.gather_us", "us"},
        {"snapshot.postings_read", "count"},
        {"snapshot.segments", "count"},
        {"topk.search_us", "us"},
        {"topk.search_us.cold", "us"},
        {"topk.search_us.warm", "us"},
        {"topk.search_us.hot", "us"},
        {"topk.results_per_query", "count"},
        {"sharded.view_build_us", "us"},
        {"sharded.shard_search_us", "us"},
        {"sharded.shard_search_us.max", "us"},
        {"sharded.straggler_ratio", "ratio"},
        {"sharded.merge_us", "us"},
        {"update.insert_ms", "ms"},
        {"update.delete_ms", "ms"},
        {"update.fragments_recomputed", "count"},
        {"update.compactions", "count"},
        {"update.segments_max", "count"},
    };
    for (const char* phase :
         {"SW-Jn", "SW-Grp", "SW-Idx", "INT-Jn", "INT-Ext", "INT-Cnsd"}) {
      m.push_back({std::string("mr.") + phase + ".wall_s", "s"});
      m.push_back({std::string("mr.") + phase + ".shuffle_bytes", "bytes"});
      m.push_back({std::string("mr.") + phase + ".map_output_records", "count"});
    }
    m.push_back({"mr.task_retries", "count"});
    m.push_back({"setup.generate_s", "s"});
    m.push_back({"setup.build_s", "s"});
    m.push_back({"setup.warmup_s", "s"});
    m.push_back({"trace.overhead_pct", "%"});
    m.push_back({"trace.unaccounted_pct", "%"});
    m.push_back({"trace.spans", "count"});
    return m;
  }();
  return kMetrics;
}

// Collects per-layer values, then emits the whole catalogue in order.
class LayerValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Emit(Report& report) const {
    for (const auto& [name, unit] : LayerMetrics()) {
      auto it = values_.find(name);
      report.Metric(name, it == values_.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& [known_name, unit] : LayerMetrics()) {
        known = known || known_name == name;
      }
      if (!known) throw std::logic_error("unlisted per-layer metric " + name);
    }
  }

 private:
  std::map<std::string, double> values_;
};

void SetSetupLayers(LayerValues& layers, const SetupTimes& times) {
  layers.Set("setup.generate_s", times.generate_s);
  layers.Set("setup.build_s", times.build_s);
  layers.Set("setup.warmup_s", times.warmup_s);
}

// Fills the serving-path layer metrics from one traced pass.
// `topk_on_path`: the top-k spans are the served search (unsharded); on a
// sharded workload they run beside it and are left out of the accounting.
void SetServingLayers(LayerValues& layers, const Tracer& tracer,
                      const std::map<std::uint64_t, Bucket>& buckets,
                      bool topk_on_path, Report& report) {
  std::map<std::uint64_t, RequestTrace> per_request = PerRequest(tracer);
  std::vector<double> roundtrip, transport, handle, parse, render, cache,
      gather, topk, merge, shard_mean, shard_max, straggler;
  std::map<Bucket, std::vector<double>> topk_by_bucket;
  double sum_roundtrip = 0, sum_accounted = 0;
  for (const auto& [request, r] : per_request) {
    if (r.roundtrip_us <= 0) continue;  // writes of write_mix
    roundtrip.push_back(r.roundtrip_us);
    handle.push_back(r.handle_us);
    transport.push_back(r.roundtrip_us - r.handle_us);
    parse.push_back(r.parse_us);
    render.push_back(r.render_us);
    if (r.has_cache) cache.push_back(r.cache_us);
    if (r.has_topk) {
      topk.push_back(r.topk_self_us);
      gather.push_back(r.gather_us);
      auto b = buckets.find(request);
      if (b != buckets.end()) topk_by_bucket[b->second].push_back(r.topk_self_us);
    }
    if (r.has_shards) {
      double sum = 0, max = 0;
      for (double us : r.shard_us) {
        sum += us;
        max = std::max(max, us);
      }
      double mean = sum / static_cast<double>(r.shard_us.size());
      shard_mean.push_back(mean);
      shard_max.push_back(max);
      if (mean > 0) straggler.push_back(max / mean);
      merge.push_back(r.merge_us);
    }
    // The stages the round trip is made of: transport (round trip minus
    // the service's own handling), then the service's layers as replayed.
    double stages = r.parse_us + r.cache_us + r.render_us +
                    (r.has_shards ? r.merge_us : 0);
    for (double us : r.shard_us) stages += us;
    if (topk_on_path && r.has_topk) stages += r.topk_self_us + r.gather_us;
    sum_roundtrip += r.roundtrip_us;
    sum_accounted += (r.roundtrip_us - r.handle_us) + stages;
  }
  auto median = [](std::vector<double> v) { return perfbench::Median(std::move(v)); };
  layers.Set("http.roundtrip_us", median(roundtrip));
  layers.Set("http.transport_self_us", median(transport));
  layers.Set("service.handle_us", median(handle));
  layers.Set("service.parse_us", median(parse));
  layers.Set("service.render_us", median(render));
  layers.Set("cache.lookup_us", median(cache));
  layers.Set("snapshot.gather_us", median(gather));
  layers.Set("topk.search_us", median(topk));
  layers.Set("topk.search_us.cold", median(topk_by_bucket[Bucket::kCold]));
  layers.Set("topk.search_us.warm", median(topk_by_bucket[Bucket::kWarm]));
  layers.Set("topk.search_us.hot", median(topk_by_bucket[Bucket::kHot]));
  layers.Set("sharded.shard_search_us", median(shard_mean));
  layers.Set("sharded.shard_search_us.max", median(shard_max));
  layers.Set("sharded.straggler_ratio", median(straggler));
  layers.Set("sharded.merge_us", median(merge));
  for (const perfbench::Span& s : tracer.spans()) {
    if (std::string(s.name) == "sharded.view_build") {
      layers.Set("sharded.view_build_us",
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  double unaccounted =
      sum_roundtrip > 0 ? 100.0 * (sum_roundtrip - sum_accounted) / sum_roundtrip
                        : 0;
  layers.Set("trace.unaccounted_pct", unaccounted);
  report.Note("traced: %zu requests; medians: round trip %.1f us, transport "
              "%.1f us, service %.1f us; transport and stage spans account "
              "for %.1f%% of the summed round trips (unaccounted %.1f%%)",
              roundtrip.size(), median(roundtrip), median(transport),
              median(handle), 100.0 - unaccounted, unaccounted);
}

// One traced request: round trip to the server, the service's Handle on an
// in-process replica, and the layer-by-layer replay; all three answers
// must agree byte for byte.
struct TracedServing {
  Tracer& tracer;
  perfbench::LoopbackClient& client;
  core::SearchService& replica;
  perfbench::Replayer& replayer;
  bool topk_beside_shards;

  // Returns false on any failure or disagreement.
  bool Request(const std::string& target, std::uint64_t request) {
    ScopedSpan root(tracer, "request", -1, request);
    std::optional<webapp::HttpResponse> response;
    {
      ScopedSpan span(tracer, "http.roundtrip", root.id(), request);
      response = client.Fetch(target);
    }
    webapp::HttpRequest parsed = webapp::ParseUrl(target);
    webapp::HttpResponse handled;
    {
      ScopedSpan span(tracer, "service.handle", root.id(), request);
      handled = replica.Handle(parsed, Clock::now());
    }
    std::string replayed =
        replayer.Replay(target, request, root.id(), topk_beside_shards);
    return response.has_value() && response->status == 200 &&
           handled.status == 200 && response->body == handled.body &&
           response->body == replayed;
  }
};

// Polls the server's transport counters while a pass runs.
class TransportPoller {
 public:
  explicit TransportPoller(const core::SearchServer& server)
      : server_(server), thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            std::size_t depth = server_.transport_stats().queue_depth;
            std::size_t seen = max_depth_.load(std::memory_order_relaxed);
            if (depth > seen) max_depth_.store(depth, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~TransportPoller() {
    stop_.store(true);
    thread_.join();
  }
  TransportPoller(const TransportPoller&) = delete;
  TransportPoller& operator=(const TransportPoller&) = delete;

  std::size_t max_depth() const { return max_depth_.load(); }

 private:
  const core::SearchServer& server_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> max_depth_{0};
  std::thread thread_;  // last: starts after the members it reads
};

void SetTransportLayers(LayerValues& layers, const core::SearchServer& server,
                        std::size_t max_depth) {
  webapp::HttpServer::Stats stats = server.transport_stats();
  layers.Set("http.queue_depth_max", static_cast<double>(max_depth));
  layers.Set("http.shed", static_cast<double>(stats.shed));
  layers.Set("http.parse_errors", static_cast<double>(stats.parse_errors));
}

void SetServiceCounters(LayerValues& layers, const core::SearchService& replica) {
  core::ServeCounters c = replica.counters();
  const std::uint64_t lookups = c.cache_hits + c.cache_misses;
  layers.Set("service.searches_per_request",
             c.requests_total > 0 ? static_cast<double>(c.searches) /
                                        static_cast<double>(c.requests_total)
                                  : 0);
  layers.Set("cache.hit_ratio", lookups > 0 ? static_cast<double>(c.cache_hits) /
                                                  static_cast<double>(lookups)
                                            : 0);
  layers.Set("cache.evicted_superseded",
             static_cast<double>(c.cache_evicted_superseded));
}

void CheckCountersRepeat(Report& report, const perfbench::ReplayCounters& a,
                         const perfbench::ReplayCounters& b) {
  report.Note("replay counters: %llu requests, %llu searches, %llu postings "
              "read, %llu results",
              static_cast<unsigned long long>(a.requests),
              static_cast<unsigned long long>(a.searches),
              static_cast<unsigned long long>(a.postings_read),
              static_cast<unsigned long long>(a.results));
  if (!(a == b)) {
    report.Invalid("deterministic replay counters differ between two traced "
                   "passes with the same seed");
  }
}

std::string TracePath(const Args& args) {
  return args.trace_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".spans.jsonl";
}

void WriteSpans(const Args& args, const Tracer& tracer, Report& report) {
  std::string path = TracePath(args);
  if (!tracer.WriteJsonLines(path)) {
    throw std::runtime_error("cannot write " + path);
  }
  report.Note("spans: %zu written to %s", tracer.spans().size(), path.c_str());
}

// Traced run of a served workload: an untraced pass and two traced passes
// over the same `requests` seeded targets, one request at a time, then a
// short concurrent phase for the transport counters. Each pass gets a
// fresh server (and replica), so all of them start from the same empty
// result cache. The second traced pass searches an index built anew from
// freshly generated data, so its counters repeating checks the data
// generation and the index build as well as the searches. `load` drives
// the concurrent phase against a server's port.
void TraceServed(const Args& args, Report& report, LayerValues& layers,
                 const core::SnapshotPublisher& publisher,
                 const core::ServeOptions& options,
                 const std::vector<std::string>& keywords,
                 const dash::util::ZipfSampler* zipf, std::uint64_t s,
                 std::size_t requests,
                 const std::function<ClientLog(int)>& load) {
  std::vector<std::size_t> ranks;
  perfbench::RequestStream stream(keywords.size(), zipf,
                                  perfbench::SubSeed(args.seed, 0));
  for (std::size_t i = 0; i < requests; ++i) ranks.push_back(stream.Next());
  const std::size_t vocabulary = zipf != nullptr ? keywords.size() : 0;

  auto fresh_server = [&](const core::SnapshotPublisher& on) {
    auto server = std::make_unique<core::SearchServer>(on, options);
    server->Start();
    if (!WarmUp(server->port())) throw std::runtime_error("warm-up request failed");
    return server;
  };
  std::vector<double> untraced;
  {
    auto server = fresh_server(publisher);
    perfbench::LoopbackClient serial(server->port(), kSerialClient);
    for (std::size_t rank : ranks) {
      std::string target = perfbench::SearchTarget(keywords[rank], kK, s);
      Clock::time_point sent = Clock::now();
      auto response = serial.Fetch(target);
      untraced.push_back(UsSince(sent));
      report.Attempted(1);
      if (!response.has_value() || response->status != 200) report.Failed(1);
    }
  }

  Tracer tracers[2];
  std::unique_ptr<core::SnapshotPublisher> rebuilt;
  std::optional<perfbench::ReplayCounters> first;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      SetupTimes rebuild;
      rebuilt = std::make_unique<core::SnapshotPublisher>(BuildQ2Snapshot(&rebuild));
      report.Note("second traced pass on an index built anew (generate %.3f s, "
                  "build %.3f s)",
                  rebuild.generate_s, rebuild.build_s);
    }
    const core::SnapshotPublisher& on = pass == 0 ? publisher : *rebuilt;
    Tracer& tracer = tracers[pass];
    auto server = fresh_server(on);
    perfbench::LoopbackClient serial(server->port(), kSerialClient);
    core::SearchService replica(on, options);
    replica.Handle(webapp::ParseUrl(kWarmUpTarget), Clock::now());
    perfbench::Replayer replayer(tracer, on, options.cache_capacity,
                                 options.shards);
    TracedServing traced{tracer, serial, replica, replayer,
                         /*topk_beside_shards=*/true};
    std::map<std::uint64_t, Bucket> buckets;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      buckets[i] = vocabulary > 0 ? BucketOf(ranks[i], vocabulary) : Bucket::kHot;
      report.Attempted(1);
      if (!traced.Request(perfbench::SearchTarget(keywords[ranks[i]], kK, s), i)) {
        report.Failed(1);
      }
    }
    if (pass == 0) {
      first = replayer.counters();
      SetServingLayers(layers, tracer, buckets, options.shards == 0, report);
      SetServiceCounters(layers, replica);
      const perfbench::ReplayCounters& c = *first;
      layers.Set("snapshot.postings_read", static_cast<double>(c.postings_read));
      layers.Set("snapshot.segments", static_cast<double>(c.segments_max));
      layers.Set("topk.results_per_query",
                 c.searches > 0 ? static_cast<double>(c.results) /
                                      static_cast<double>(c.searches)
                                : 0);
      layers.Set("trace.spans", static_cast<double>(tracer.spans().size()));
    } else {
      CheckCountersRepeat(report, *first, replayer.counters());
    }
  }
  rebuilt.reset();

  // The transport counters, polled while `load` runs concurrent requests
  // (one-at-a-time passes never queue).
  {
    auto server = fresh_server(publisher);
    std::size_t max_depth = 0;
    ClientLog log;
    {
      TransportPoller poller(*server);
      log = load(server->port());
      max_depth = poller.max_depth();
    }
    report.Attempted(log.sent);
    report.Failed(log.failed);
    SetTransportLayers(layers, *server, max_depth);
    report.Note("transport under concurrent load: %llu requests, queue depth "
                "up to %zu, %llu shed",
                static_cast<unsigned long long>(log.sent), max_depth,
                static_cast<unsigned long long>(server->transport_stats().shed));
  }

  std::vector<double> traced_roundtrip;
  for (const perfbench::Span& span : tracers[0].spans()) {
    if (std::string(span.name) == "http.roundtrip") {
      traced_roundtrip.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  double base = perfbench::Median(untraced);
  double overhead =
      base > 0 ? 100.0 * (perfbench::Median(traced_roundtrip) / base - 1.0) : 0;
  layers.Set("trace.overhead_pct", overhead);
  report.Note("tracing overhead: round trip median %.1f us traced vs %.1f us "
              "untraced (%+.1f%%)",
              perfbench::Median(traced_roundtrip), base, overhead);
  WriteSpans(args, tracers[0], report);
}

// ---------------------------------------------------------------------------
// hot_topk

void RunHotTopk(const Args& args, Report& report) {
  const core::ServeOptions options = ServerOptions(0, 0);
  const std::uint64_t s = 1000;
  SetupTimes times;
  Served served = RepeatSetup<Served>(
      args, report, [&](SetupTimes* t) { return SetUpServed(options, t); },
      &times);
  std::vector<std::string> hot = dash::bench::PickKeywords(
      served.snapshot->index(), dash::bench::Temperature::kHot);

  if (args.trace) {
    LayerValues layers;
    SetSetupLayers(layers, times);
    TraceServed(args, report, layers, *served.publisher, options, hot, nullptr,
                s, 300, [&](int port) {
                  return ClosedLoopFor(kTransportSeconds, port, hot, nullptr,
                                       hot.size(), s, 2,
                                       perfbench::SubSeed(args.seed, kTransportStream),
                                       /*keep_bodies=*/false);
                });
    layers.Emit(report);
    return;
  }

  const int port = served.server->port();
  ClientLog preroll = ClosedLoopFor(kPrerollSeconds, port, hot, nullptr,
                                    hot.size(), s, 2,
                                    perfbench::SubSeed(args.seed, kPrerollStream),
                                    /*keep_bodies=*/false);
  report.Attempted(preroll.sent);
  report.Failed(preroll.failed);
  Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  perfbench::HostSpeedSampler host;
  ClientLog log = ClosedLoopFor(args.seconds, port, hot, nullptr, hot.size(), s,
                                2, args.seed, /*keep_bodies=*/true);
  host.Stop();
  // The server's CPU time: the process's, less the client and sampler
  // threads'.
  const double cpu_s = ProcessCpuSeconds() - cpu0 - log.cpu_s - host.cpu_s();
  double elapsed = SecondsSince(start);
  std::uint64_t mismatched =
      CheckBodies(log, hot, [&](const std::string& kw) {
        return served.snapshot->Search({kw}, kK, s);
      });
  report.Attempted(log.sent + log.bodies.size());
  report.Failed(log.failed + log.inconsistent + mismatched);
  report.Note("answers: %zu distinct queries checked against "
              "IndexSnapshot::Search, %llu mismatched",
              log.bodies.size(), static_cast<unsigned long long>(mismatched));
  OpsFigures f =
      ReportOps(report, "search (closed loop, 2 connections)",
                log.latency.size(), elapsed, log.latency, kSearchWindows,
                cpu_s, host);
  report.Note("search_qps = %.2f 1/s; search_p50_us = %.1f us; search_p99_us "
              "= %.1f us (%s)",
              f.rate, f.p50_us, f.tail_us, f.tail_label.c_str());
}

// ---------------------------------------------------------------------------
// zipf_sharded

// The open-loop phase of zipf_sharded: its length, its seed stream, and
// its sender threads. Two keep a 2000 req/s schedule (a request takes a
// few hundred microseconds) while adding the fewest threads to the ones
// the server already runs on the machine's cores.
constexpr double kOpenLoopSeconds = 3.0;
constexpr std::uint64_t kOpenLoopStream = 300;
constexpr int kOpenLoopUsers = 2;

// Open loop: request g is due at start + g/rate; `users` threads take the
// slots round-robin. Latency counts from the due time.
ClientLog RunOpenLoop(int port, const std::vector<std::string>& keywords,
                      const std::vector<std::size_t>& schedule, std::uint64_t s,
                      double rate, double slo_us, int users) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(users));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (int u = 0; u < users; ++u) {
    threads.emplace_back([&, u] {
      ClientLog& log = logs[static_cast<std::size_t>(u)];
      perfbench::LoopbackClient client(
          port, kOpenLoopClients + static_cast<std::uint32_t>(u));
      try {
        for (std::size_t g = static_cast<std::size_t>(u); g < schedule.size();
             g += static_cast<std::size_t>(users)) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(static_cast<double>(g) / rate));
          std::this_thread::sleep_until(due);
          log.late_us.push_back(UsSince(due));
          std::string target =
              perfbench::SearchTarget(keywords[schedule[g]], kK, s);
          auto response = client.Fetch(target);
          double latency = UsSince(due);
          std::uint64_t failed_before = log.failed;
          Record(log, schedule[g], response, start, latency, /*keep_bodies=*/true);
          if (log.failed != failed_before || latency > slo_us) ++log.slo_missed;
        }
      } catch (const std::exception& e) {
        ClientError(log, e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClientLog all;
  for (ClientLog& log : logs) all.Merge(std::move(log));
  return all;
}

// RunOpenLoop for `seconds` of Zipf keywords drawn from seed `stream`.
ClientLog OpenLoopFor(double seconds, int port,
                      const std::vector<std::string>& vocabulary,
                      const dash::util::ZipfSampler& zipf, std::uint64_t s,
                      std::uint64_t stream_seed, const Args& args) {
  std::vector<std::size_t> schedule;
  perfbench::RequestStream stream(vocabulary.size(), &zipf, stream_seed);
  const auto total = static_cast<std::size_t>(args.rate * seconds);
  for (std::size_t g = 0; g < total; ++g) schedule.push_back(stream.Next());
  return RunOpenLoop(port, vocabulary, schedule, s, args.rate, args.slo_us,
                     kOpenLoopUsers);
}

void RunZipfSharded(const Args& args, Report& report) {
  const core::ServeOptions options = ServerOptions(256, 4);
  const std::uint64_t s = 200;
  SetupTimes times;
  Served served = RepeatSetup<Served>(
      args, report, [&](SetupTimes* t) { return SetUpServed(options, t); },
      &times);
  std::vector<std::string> vocabulary = Vocabulary(*served.snapshot);
  dash::util::ZipfSampler zipf(vocabulary.size(), 1.0);
  if (args.rate <= 0 || args.slo_us <= 0) {
    throw std::invalid_argument("zipf_sharded needs --rate and --slo-us");
  }

  if (args.trace) {
    LayerValues layers;
    SetSetupLayers(layers, times);
    // The transport counters are polled under the open loop, the load
    // slo_miss_ratio is measured on.
    TraceServed(args, report, layers, *served.publisher, options, vocabulary,
                &zipf, s, 1500, [&](int port) {
                  return OpenLoopFor(kTransportSeconds, port, vocabulary, zipf, s,
                                     perfbench::SubSeed(args.seed, kTransportStream),
                                     args);
                });
    layers.Emit(report);
    return;
  }

  // Gated figures: a closed loop on 2 connections, like hot_topk.
  const int port = served.server->port();
  ClientLog preroll = ClosedLoopFor(
      kPrerollSeconds, port, vocabulary, &zipf, vocabulary.size(), s, 2,
      perfbench::SubSeed(args.seed, kPrerollStream), /*keep_bodies=*/false);
  report.Attempted(preroll.sent);
  report.Failed(preroll.failed);
  Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  perfbench::HostSpeedSampler host;
  ClientLog log = ClosedLoopFor(args.seconds, port, vocabulary, &zipf,
                                vocabulary.size(), s, 2, args.seed,
                                /*keep_bodies=*/true);
  host.Stop();
  // The server's CPU time: the process's, less the client and sampler
  // threads'.
  const double cpu_s = ProcessCpuSeconds() - cpu0 - log.cpu_s - host.cpu_s();
  const double elapsed = SecondsSince(start);

  // Then the open loop at the calibrated rate. On a shared virtual machine
  // its latencies follow the host's stalls (a stalled server accumulates
  // a backlog of due requests), so it is reported, not gated.
  ClientLog open = OpenLoopFor(kOpenLoopSeconds, port, vocabulary, zipf, s,
                               perfbench::SubSeed(args.seed, kOpenLoopStream), args);

  core::ShardedEngine direct(served.snapshot, 4);
  auto sharded_answer = [&](const std::string& kw) {
    return direct.Search({kw}, kK, s);
  };
  const std::uint64_t mismatched = CheckBodies(log, vocabulary, sharded_answer) +
                                   CheckBodies(open, vocabulary, sharded_answer);
  report.Attempted(log.sent + log.bodies.size() + open.sent +
                   open.bodies.size());
  report.Failed(log.failed + log.inconsistent + open.failed +
                open.inconsistent + mismatched);
  report.Note("answers: %zu + %zu distinct queries checked against "
              "ShardedEngine(snapshot, 4).Search, %llu mismatched",
              log.bodies.size(), open.bodies.size(),
              static_cast<unsigned long long>(mismatched));

  core::ServeCounters counters = served.server->service().counters();
  const std::uint64_t lookups = counters.cache_hits + counters.cache_misses;
  report.Note("server cache hit ratio %.3f",
              lookups > 0 ? static_cast<double>(counters.cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  auto late = Sorted(open.late_us);
  const double late_p50 = perfbench::Percentile(late, 0.5);
  const double late_max = late.empty() ? 0 : late.back();
  if (late_p50 > args.slo_us) {
    report.Note("open loop INVALID: offered %.0f req/s for %.0f s, the "
                "generator fell behind its schedule (loadgen.late_us p50 %.1f "
                "max %.1f); its latencies are not reported",
                args.rate, kOpenLoopSeconds, late_p50, late_max);
  } else {
    auto open_sorted = Sorted(open.latency.us);
    perfbench::Tail tail = perfbench::TailOf(open_sorted);
    report.Note("open loop: offered %.0f req/s for %.0f s, latency limit %.0f "
                "us; slo_miss_ratio = %.5f; loadgen.late_us p50 %.1f max %.1f; "
                "p50 %.1f us, %s %.1f us (%zu samples)",
                args.rate, kOpenLoopSeconds, args.slo_us,
                open.sent > 0 ? static_cast<double>(open.slo_missed) /
                                        static_cast<double>(open.sent)
                                  : 0.0,
                late_p50, late_max, perfbench::Percentile(open_sorted, 0.5),
                tail.Label().c_str(), tail.value, tail.samples);
  }
  OpsFigures f =
      ReportOps(report, "search (closed loop, 2 connections)",
                log.latency.size(), elapsed, log.latency, kSearchWindows,
                cpu_s, host);
  report.Note("search_qps = %.2f 1/s; search_p50_us = %.1f us; search_p99_us "
              "= %.1f us (%s)",
              f.rate, f.p50_us, f.tail_us, f.tail_label.c_str());
}

// ---------------------------------------------------------------------------
// write_mix

struct Updating {
  std::unique_ptr<core::UpdatableIndex> index;
  std::unique_ptr<core::SearchServer> server;
};

Updating SetUpUpdating(const core::ServeOptions& options, SetupTimes* times) {
  Updating out;
  Clock::time_point t = Clock::now();
  dash::db::Database db = dash::tpch::Generate(kScale);
  times->generate_s = SecondsSince(t);
  t = Clock::now();
  out.index = std::make_unique<core::UpdatableIndex>(std::move(db),
                                                     dash::bench::MakeApp(2));
  times->build_s = SecondsSince(t);
  t = Clock::now();
  out.server = std::make_unique<core::SearchServer>(out.index->publisher(), options);
  out.server->Start();
  if (!WarmUp(out.server->port())) {
    throw std::runtime_error("warm-up request failed");
  }
  times->warmup_s = SecondsSince(t);
  return out;
}

// Hash of the canonical dump of a build (SW ≡ INT ≡ reference and
// final-snapshot ≡ rebuild comparisons).
std::size_t Fingerprint(const core::FragmentIndexBuild& build) {
  return std::hash<std::string>{}(build.index.ToDebugString(build.catalog));
}

void RunWriteMix(const Args& args, Report& report) {
  const core::ServeOptions options = ServerOptions(256, 0);
  const std::uint64_t s = 200;
  SetupTimes times;
  std::function<Updating(SetupTimes*)> setup = [&](SetupTimes* t) {
    return SetUpUpdating(options, t);
  };
  Updating up = RepeatSetup<Updating>(args, report, setup, &times);
  std::vector<std::string> vocabulary = Vocabulary(*up.index->snapshot());
  dash::util::ZipfSampler zipf(vocabulary.size(), 1.0);

  if (args.trace) {
    LayerValues layers;
    SetSetupLayers(layers, times);
    // Three passes of the same seeded writes and reads, each on a fresh
    // index: pass 0 untraced (round trips only), passes 1 and 2 traced;
    // pass 1 gives the metrics and pass 2 must repeat its counters. In the
    // traced passes the replica and the replayer also hold each superseded
    // snapshot, so the server's workers no longer free it inside the
    // round trip and the overhead reads negative.
    constexpr int kWrites = 24, kReadsPerWrite = 4;
    std::optional<perfbench::ReplayCounters> first_replay;
    std::uint64_t first_recomputed = 0, first_compactions = 0;
    std::vector<double> untraced_rt, traced_rt;
    for (int pass = 0; pass < 3; ++pass) {
      if (pass > 0) {
        SetupTimes ignored;
        up.server.reset();  // the server reads the index's publisher
        up.index.reset();
        up = setup(&ignored);
      }
      Tracer tracer;
      core::SearchService replica(up.index->publisher(), options);
      perfbench::Replayer replayer(tracer, up.index->publisher(),
                                   options.cache_capacity, 0);
      perfbench::LoopbackClient serial(up.server->port(), kSerialClient);
      TracedServing traced{tracer, serial, replica, replayer, false};
      perfbench::WriteStream writes(perfbench::SubSeed(args.seed, 100));
      perfbench::RequestStream reads(vocabulary.size(), &zipf,
                                     perfbench::SubSeed(args.seed, 0));
      const std::size_t recomputed0 = up.index->fragments_recomputed();
      const std::size_t compactions0 = up.index->compactions();
      std::size_t segments_max = up.index->segment_count();
      std::vector<double> insert_ms, delete_ms;
      std::map<std::uint64_t, Bucket> buckets;
      std::uint64_t request = 0;
      for (int w = 0; w < kWrites; ++w) {
        perfbench::WriteOp op = writes.Next(up.index->database());
        if (pass == 0) {
          perfbench::Apply(*up.index, op);
          ++request;
        } else {
          ScopedSpan span(tracer, op.insert ? "update.insert" : "update.delete",
                          -1, request++);
          Clock::time_point t = Clock::now();
          perfbench::Apply(*up.index, op);
          (op.insert ? insert_ms : delete_ms).push_back(UsSince(t) / 1000.0);
        }
        report.Attempted(1);
        segments_max = std::max(segments_max, up.index->segment_count());
        for (int r = 0; r < kReadsPerWrite; ++r) {
          std::size_t rank = reads.Next();
          std::string target = perfbench::SearchTarget(vocabulary[rank], kK, s);
          buckets[request] = BucketOf(rank, vocabulary.size());
          report.Attempted(1);
          bool ok = true;
          if (pass == 0) {
            Clock::time_point sent = Clock::now();
            auto response = serial.Fetch(target);
            untraced_rt.push_back(UsSince(sent));
            ok = response.has_value() && response->status == 200;
          } else {
            ok = traced.Request(target, request);
          }
          ++request;
          if (!ok) report.Failed(1);
        }
      }
      const std::uint64_t recomputed = up.index->fragments_recomputed() - recomputed0;
      const std::uint64_t compactions = up.index->compactions() - compactions0;
      if (pass == 1) {
        first_replay = replayer.counters();
        first_recomputed = recomputed;
        first_compactions = compactions;
        SetServingLayers(layers, tracer, buckets, true, report);
        SetServiceCounters(layers, replica);
        SetTransportLayers(layers, *up.server, 0);
        for (const perfbench::Span& span : tracer.spans()) {
          if (std::string(span.name) == "http.roundtrip") {
            traced_rt.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
          }
        }
        layers.Set("update.insert_ms", perfbench::Median(insert_ms));
        layers.Set("update.delete_ms", perfbench::Median(delete_ms));
        layers.Set("update.fragments_recomputed", static_cast<double>(recomputed));
        layers.Set("update.compactions", static_cast<double>(compactions));
        layers.Set("update.segments_max", static_cast<double>(segments_max));
        layers.Set("snapshot.postings_read",
                   static_cast<double>(first_replay->postings_read));
        layers.Set("snapshot.segments", static_cast<double>(first_replay->segments_max));
        layers.Set("topk.results_per_query",
                   first_replay->searches > 0
                       ? static_cast<double>(first_replay->results) /
                             static_cast<double>(first_replay->searches)
                       : 0);
        layers.Set("trace.spans", static_cast<double>(tracer.spans().size()));
        report.Note("writes: %d applied, %llu fragments recomputed, %llu "
                    "compactions, up to %zu segments",
                    kWrites, static_cast<unsigned long long>(recomputed),
                    static_cast<unsigned long long>(compactions), segments_max);
        WriteSpans(args, tracer, report);
      } else if (pass == 2) {
        CheckCountersRepeat(report, *first_replay, replayer.counters());
        if (recomputed != first_recomputed || compactions != first_compactions) {
          report.Invalid("update.fragments_recomputed / update.compactions "
                         "differ between two traced passes with the same seed");
        }
      }
    }
    const double base = perfbench::Median(untraced_rt);
    const double overhead =
        base > 0 ? 100.0 * (perfbench::Median(traced_rt) / base - 1.0) : 0;
    layers.Set("trace.overhead_pct", overhead);
    report.Note("tracing overhead: read round trip median %.1f us traced vs "
                "%.1f us untraced (%+.1f%%)",
                perfbench::Median(traced_rt), base, overhead);
    layers.Emit(report);
    return;
  }

  perfbench::HostSpeedSampler host;
  std::atomic<bool> stop{false};
  ClientLog readers;
  const Clock::time_point start = Clock::now();
  std::thread reader_thread([&] {
    readers = RunClosedLoop(up.server->port(), vocabulary, &zipf,
                            vocabulary.size(), s, 2, args.seed, start, stop,
                            /*keep_bodies=*/false);
  });
  perfbench::WriteStream writes(perfbench::SubSeed(args.seed, 100));
  Samples write_us;
  std::uint64_t write_failures = 0;
  // The write path runs on this thread alone (no pool), so this thread's
  // CPU time is the writes' CPU time; the readers run beside it.
  double write_cpu_s = 0;
  while (SecondsSince(start) < args.seconds) {
    perfbench::WriteOp op = writes.Next(up.index->database());
    Clock::time_point t = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    try {
      perfbench::Apply(*up.index, op);
    } catch (const std::exception& e) {
      ++write_failures;
      report.Note("write failed: %s", e.what());
    }
    write_cpu_s += ThreadCpuSeconds() - cpu0;
    write_us.Add(SecondsSince(start), UsSince(t));
  }
  double elapsed = SecondsSince(start);
  stop.store(true);
  reader_thread.join();
  host.Stop();

  // Final snapshot ≡ a rebuild from the final database.
  core::SnapshotPtr final_snapshot = up.index->snapshot();
  core::Crawler crawler(up.index->database(), dash::bench::MakeApp(2).query);
  bool same_as_rebuild =
      Fingerprint(final_snapshot->MergedBuild()) == Fingerprint(crawler.BuildIndex());
  // A replay of the readers' query sample matches the server now.
  std::uint64_t replay_mismatches = 0;
  perfbench::LoopbackClient checker(up.server->port(), kSerialClient);
  for (const auto& [rank, unused] : readers.bodies) {
    (void)unused;
    auto response = checker.Fetch(perfbench::SearchTarget(vocabulary[rank], kK, s));
    std::string direct = core::SearchService::RenderResults(
        final_snapshot->Search({vocabulary[rank]}, kK, s));
    if (!response.has_value() || response->status != 200 ||
        response->body != direct) {
      ++replay_mismatches;
    }
  }
  report.Attempted(write_us.size() + readers.sent + 1 + readers.bodies.size());
  report.Failed(write_failures + readers.failed + (same_as_rebuild ? 0 : 1) +
                replay_mismatches);
  auto reads = Sorted(readers.latency.us);
  perfbench::Tail read_tail = perfbench::TailOf(reads, 0.99);
  report.Note("readers (closed loop, 2 connections): %zu searches; "
              "search_p50_us = %.1f us; search_p99_us = %s %.1f us (%zu samples)",
              reads.size(), perfbench::Percentile(reads, 0.5),
              read_tail.Label().c_str(), read_tail.value, read_tail.samples);
  report.Note("answers: final snapshot %s a rebuild from the final database "
              "(%zu segments, %zu compactions); %zu replayed queries, %llu "
              "mismatched",
              same_as_rebuild ? "equals" : "DIFFERS FROM",
              up.index->segment_count(), up.index->compactions(),
              readers.bodies.size(),
              static_cast<unsigned long long>(replay_mismatches));
  // Writes are few (tens per second): one window.
  OpsFigures f = ReportOps(report, "write (closed loop, 1 writer)",
                           write_us.size(), elapsed, write_us, 1, write_cpu_s,
                           host);
  report.Note("updates_per_s = %.2f 1/s; update_p50_ms = %.2f ms; "
              "update_p99_ms = %.2f ms (%s of %zu writes)",
              f.rate, f.p50_us / 1000, f.tail_us / 1000, f.tail_label.c_str(),
              write_us.size());
}

// ---------------------------------------------------------------------------
// crawl

struct Crawled {
  std::unique_ptr<dash::db::Database> db;
  std::size_t reference = 0;  // Fingerprint of the reference crawl build
  std::unique_ptr<dash::mr::Cluster> cluster;
};

const std::vector<std::string>& PhaseOrder() {
  static const std::vector<std::string> kOrder = {"SW-Jn",  "SW-Grp",  "SW-Idx",
                                                  "INT-Jn", "INT-Ext", "INT-Cnsd"};
  return kOrder;
}

void RunCrawl(const Args& args, Report& report) {
  const dash::sql::PsjQuery query = dash::sql::Parse(dash::bench::kQ3Sql);
  // Set-up: the data, the reference crawl every SW and INT build is checked
  // against, and the cluster.
  SetupTimes times;
  Crawled crawled = RepeatSetup<Crawled>(
      args, report,
      [&](SetupTimes* t) {
        Crawled c;
        Clock::time_point start = Clock::now();
        c.db = std::make_unique<dash::db::Database>(dash::tpch::Generate(kScale));
        t->generate_s = SecondsSince(start);
        start = Clock::now();
        c.reference = Fingerprint(core::Crawler(*c.db, query).BuildIndex());
        t->build_s = SecondsSince(start);
        start = Clock::now();
        c.cluster = std::make_unique<dash::mr::Cluster>();  // 4 worker threads
        t->warmup_s = SecondsSince(start);
        return c;
      },
      &times, kCrawlSetups);
  const std::size_t reference = crawled.reference;
  auto crawl = [&](bool stepwise) {
    return stepwise ? core::StepwiseCrawl(*crawled.cluster, *crawled.db, query)
                    : core::IntegratedCrawl(*crawled.cluster, *crawled.db, query);
  };

  if (args.trace) {
    LayerValues layers;
    SetSetupLayers(layers, times);
    // Pass 0 untraced, passes 1 and 2 traced; pass 1 gives the metrics and
    // pass 2 must repeat its deterministic counters.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> first;
    double untraced_s = 0, traced_s = 0;
    Tracer tracer;
    for (int pass = 0; pass < 3; ++pass) {
      std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts;
      std::uint64_t retries = 0;
      for (bool stepwise : {true, false}) {
        Clock::time_point start = Clock::now();
        std::optional<core::CrawlResult> result;
        if (pass == 0) {
          result = crawl(stepwise);
          untraced_s += SecondsSince(start);
        } else {
          ScopedSpan span(tracer, stepwise ? "crawl.stepwise" : "crawl.integrated",
                          -1, static_cast<std::uint64_t>(pass));
          result = crawl(stepwise);
          if (pass == 1) traced_s += SecondsSince(start);
        }
        report.Attempted(1);
        if (Fingerprint(result->build) != reference) report.Failed(1);
        for (const core::CrawlPhase& phase : result->phases) {
          counts[phase.name] = {phase.metrics.map_output_bytes,
                                phase.metrics.map_output_records};
          retries += phase.metrics.task_retries;
          if (pass == 1) {
            layers.Set("mr." + phase.name + ".wall_s", phase.metrics.TotalWallSec());
            layers.Set("mr." + phase.name + ".shuffle_bytes",
                       static_cast<double>(phase.metrics.map_output_bytes));
            layers.Set("mr." + phase.name + ".map_output_records",
                       static_cast<double>(phase.metrics.map_output_records));
          }
        }
      }
      if (pass == 1) {
        first = counts;
        layers.Set("mr.task_retries", static_cast<double>(retries));
      } else if (pass == 2 && counts != first) {
        report.Invalid("mr shuffle bytes / map output records differ between "
                       "two traced passes with the same seed");
      }
    }
    for (const std::string& phase : PhaseOrder()) {
      auto it = first.find(phase);
      if (it == first.end()) {
        report.Invalid("crawl phase " + phase + " missing");
        continue;
      }
      report.Note("%-8s shuffle %llu bytes, %llu map output records", phase.c_str(),
                  static_cast<unsigned long long>(it->second.first),
                  static_cast<unsigned long long>(it->second.second));
    }
    const double overhead = untraced_s > 0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0;
    layers.Set("trace.overhead_pct", overhead);
    layers.Set("trace.spans", static_cast<double>(tracer.spans().size()));
    report.Note("tracing overhead: SW+INT %.3f s traced vs %.3f s untraced (%+.1f%%)",
                traced_s, untraced_s, overhead);
    WriteSpans(args, tracer, report);
    layers.Emit(report);
    return;
  }

  // Rounds of StepwiseCrawl then IntegratedCrawl until the crawl time
  // reaches --seconds; one op is one round.
  std::vector<double> sw_us, int_us;
  Samples rounds;
  double busy_s = 0;
  std::uint64_t wrong = 0;
  double check_cpu_s = 0;  // the answer checks' CPU time, not the crawls'
  const double cpu0 = ProcessCpuSeconds();
  perfbench::HostSpeedSampler host;
  while (rounds.size() == 0 || busy_s < args.seconds) {
    double round_us = 0;
    for (bool stepwise : {true, false}) {
      Clock::time_point t0 = Clock::now();
      core::CrawlResult result = crawl(stepwise);
      double us = UsSince(t0);
      (stepwise ? sw_us : int_us).push_back(us);
      round_us += us;
      const double check0 = ThreadCpuSeconds();
      if (Fingerprint(result.build) != reference) ++wrong;
      check_cpu_s += ThreadCpuSeconds() - check0;
    }
    busy_s += round_us / 1e6;
    rounds.Add(busy_s, round_us);
  }
  host.Stop();
  const double cpu_s = ProcessCpuSeconds() - cpu0 - host.cpu_s() - check_cpu_s;
  report.Attempted(sw_us.size() + int_us.size());
  report.Failed(wrong);
  report.Note("crawl_sw_s = %.3f s; crawl_int_s = %.3f s (medians of %zu "
              "rounds); %zu crawls checked against the reference build, %llu "
              "differ",
              perfbench::Median(sw_us) / 1e6, perfbench::Median(int_us) / 1e6,
              rounds.size(), sw_us.size() + int_us.size(),
              static_cast<unsigned long long>(wrong));
  ReportOps(report, "crawl round (SW then INT)", rounds.size(), busy_s, rounds,
            1, cpu_s, host);
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = value() != "0";
    } else if (arg == "--trace-dir") {
      args.trace_dir = value();
    } else if (arg == "--rate") {
      args.rate = std::stod(value());
    } else if (arg == "--slo-us") {
      args.slo_us = std::stod(value());
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = ParseArgs(argc, argv);
    const std::map<std::string, std::function<void(const Args&, Report&)>> kWorkloads = {
        {"hot_topk", RunHotTopk},
        {"zipf_sharded", RunZipfSharded},
        {"write_mix", RunWriteMix},
        {"crawl", RunCrawl},
    };
    auto it = kWorkloads.find(args.workload);
    if (it == kWorkloads.end()) {
      throw std::invalid_argument("unknown --workload '" + args.workload +
                                  "' (hot_topk, zipf_sharded, write_mix, crawl)");
    }
    Report report;
    report.Note("workload %s, seed %llu, %.1f s, trace %d", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    it->second(args, report);
    report.Note("failed_ratio %.6f (%llu of %llu)",
                static_cast<double>(report.failed()) /
                    static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)),
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
    report.PrintResult();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dash_perfbench: %s\n", e.what());
    return 1;
  }
}
