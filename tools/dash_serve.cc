// dash_serve: a standalone Dash search node.
//
// Builds one of the paper's three application queries (Table III) over the
// deterministic TPC-H-style dataset, publishes the resulting immutable
// IndexSnapshot, and serves it over HTTP via core::SearchServer — the
// multi-threaded listener with bounded admission control, per-request
// deadlines, optional result cache and optional sharded scatter-gather.
// With --shard-index it becomes a cluster shard node (DESIGN.md §15):
// /search answers the local top-k of that fragment slice only, one
// request per leg of a core::SearchRouter in front of it, and
// /shardstats reports the slice's per-term statistics for inspection.
//
//   dash_serve --port 8080 --workers 4 --queue 64
//              --cache 256 --shards 8 --deadline-ms 50
//              --query 1 --scale small
//   dash_serve --port 8431 --shards 4 --shard-index 2   # shard node
//
// Then:
//   curl 'http://127.0.0.1:8080/search?q=burger&k=10&s=0'
//   curl 'http://127.0.0.1:8080/stats'
//
// Runs until SIGINT/SIGTERM, then shuts down gracefully (admitted requests
// are drained before exit). tools/dash_loadgen drives the same stack
// in-process; this binary exists for interactive poking and external load
// tools.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "bench/workloads.h"
#include "core/search_server.h"
#include "tpch/tpch.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int /*sig*/) { g_stop.store(true, std::memory_order_relaxed); }

dash::tpch::Scale ParseScale(const std::string& name) {
  if (name == "tiny") return dash::tpch::Scale::kTiny;
  if (name == "small") return dash::tpch::Scale::kSmall;
  if (name == "medium") return dash::tpch::Scale::kMedium;
  if (name == "large") return dash::tpch::Scale::kLarge;
  std::fprintf(stderr, "unknown --scale '%s' (tiny|small|medium|large)\n",
               name.c_str());
  std::exit(2);
}

// Parses a decimal flag value and enforces its documented range with an
// error message — never a silent clamp: an operator who typed
// --workers 0 should learn the server refused, not debug a hang.
int ParseIntFlag(const std::string& flag, const char* value, int min,
                 int max) {
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", flag.c_str(), value);
    std::exit(2);
  }
  if (parsed < min || parsed > max) {
    std::fprintf(stderr, "%s: %ld out of range [%d, %d]\n", flag.c_str(),
                 parsed, min, max);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N         listen port, 0 = ephemeral    (default 0)\n"
      "  --workers N      HTTP worker threads, >= 1     (default 4)\n"
      "  --queue N        admission queue slots, >= 1   (default 64)\n"
      "  --cache N        result-cache entries, 0 = off (default 0)\n"
      "  --shards N       scatter-gather shards, 0 = off(default 0)\n"
      "  --shard-index N  serve ONLY shard N of --shards as a cluster\n"
      "                   shard node (/search = local top-k, /shardstats\n"
      "                   = slice stats); requires 0 <= N < --shards\n"
      "  --deadline-ms N  per-request budget, 0 = none  (default 0)\n"
      "  --query 1|2|3    paper application query       (default 1)\n"
      "  --scale S        tiny|small|medium|large       (default tiny)\n"
      "  --help           this text\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dash::core::ServeOptions options;
  int query = 1;
  dash::tpch::Scale scale = dash::tpch::Scale::kTiny;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg == "--port") {
      options.port = ParseIntFlag(arg, next(), 0, 65535);
    } else if (arg == "--workers") {
      options.num_workers = ParseIntFlag(arg, next(), 1, 1024);
    } else if (arg == "--queue") {
      options.queue_capacity =
          static_cast<std::size_t>(ParseIntFlag(arg, next(), 1, 1 << 20));
    } else if (arg == "--cache") {
      options.cache_capacity =
          static_cast<std::size_t>(ParseIntFlag(arg, next(), 0, 1 << 24));
    } else if (arg == "--shards") {
      options.shards = ParseIntFlag(arg, next(), 0, 4096);
    } else if (arg == "--shard-index") {
      options.shard_index = ParseIntFlag(arg, next(), 0, 4095);
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = ParseIntFlag(arg, next(), 0, 3600 * 1000);
    } else if (arg == "--query") {
      query = ParseIntFlag(arg, next(), 1, 3);
    } else if (arg == "--scale") {
      scale = ParseScale(next());
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (options.shard_index >= 0 && options.shards <= 0) {
    std::fprintf(stderr,
                 "--shard-index requires --shards > 0 (a shard node serves "
                 "one slice of a sharded layout)\n");
    return 2;
  }
  if (options.shard_index >= options.shards && options.shard_index >= 0) {
    std::fprintf(stderr, "--shard-index %d out of range [0, %d)\n",
                 options.shard_index, options.shards);
    return 2;
  }

  std::printf("building Q%d index over %s dataset...\n", query,
              std::string(dash::tpch::ScaleName(scale)).c_str());
  const dash::core::DashEngine& engine = dash::bench::Engine(query, scale);
  std::printf("index ready: %zu fragments, generation %llu\n",
              engine.catalog().size(),
              static_cast<unsigned long long>(engine.snapshot()->generation()));

  dash::core::SearchServer server(engine.snapshot(), options);
  server.Start();
  std::printf("serving on http://127.0.0.1:%d  (workers=%d queue=%zu "
              "cache=%zu shards=%d shard_index=%d deadline_ms=%d)\n",
              server.port(), options.num_workers, options.queue_capacity,
              options.cache_capacity, options.shards, options.shard_index,
              options.deadline_ms);
  if (options.shard_index >= 0) {
    std::printf("shard node: /search = shard %d/%d local top-k, "
                "/shardstats?q=<kw> = slice stats\n",
                options.shard_index, options.shards);
  }
  std::printf("try: /search?q=<keyword>&k=10&s=0   /stats   /healthz\n");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("shutting down...\n");
  server.Stop();
  dash::webapp::HttpServer::Stats t = server.transport_stats();
  std::printf("accepted=%llu handled=%llu shed=%llu parse_errors=%llu\n",
              static_cast<unsigned long long>(t.accepted),
              static_cast<unsigned long long>(t.handled),
              static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.parse_errors));
  return 0;
}
