#include "testing/chaos.h"

#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/random.h"

namespace dash::testing {

int ChaosPlan::DeadShardCount() const {
  int dead_shards = 0;
  for (int shard = 0; shard < shards; ++shard) {
    bool any_alive = false;
    for (int replica = 0; replica < replicas; ++replica) {
      if (!at(shard, replica).dead) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) ++dead_shards;
  }
  return dead_shards;
}

ChaosPlan AssignChaos(const ChaosProfile& profile, int shards, int replicas,
                      std::uint64_t seed) {
  if (shards < 1 || replicas < 1) {
    throw std::invalid_argument("AssignChaos: bad topology");
  }
  ChaosPlan plan;
  plan.shards = shards;
  plan.replicas = replicas;
  plan.assignments.assign(static_cast<std::size_t>(shards * replicas), {});

  util::SplitMix64 rng(seed);
  // Seed-derived shard visit order (Fisher–Yates) and per-shard replica
  // offset: the damage-maximizing sweep walks every shard once per round,
  // so round r marks each shard's (offset + r)-th replica — dead replicas
  // hit distinct shards first, by construction.
  std::vector<int> order(static_cast<std::size_t>(shards));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<int> offset(static_cast<std::size_t>(shards));
  for (int& o : offset) {
    o = static_cast<int>(rng.Below(static_cast<std::uint64_t>(replicas)));
  }
  std::vector<std::pair<int, int>> sweep;
  sweep.reserve(static_cast<std::size_t>(shards * replicas));
  for (int i = 0; i < shards * replicas; ++i) {
    int shard = order[static_cast<std::size_t>(i % shards)];
    int replica =
        (offset[static_cast<std::size_t>(shard)] + i / shards) % replicas;
    sweep.emplace_back(shard, replica);
  }

  std::size_t cursor = 0;
  auto take = [&plan, &sweep, &cursor](int count, auto mark) {
    int placed = 0;
    while (placed < count && cursor < sweep.size()) {
      ChaosAssignment& a =
          plan.at(sweep[cursor].first, sweep[cursor].second);
      ++cursor;
      if (a.dead || a.straggler || a.stale) continue;
      mark(a);
      ++placed;
    }
  };
  take(profile.dead_replicas, [](ChaosAssignment& a) { a.dead = true; });
  take(profile.straggler_replicas,
       [](ChaosAssignment& a) { a.straggler = true; });
  take(profile.stale_replicas, [](ChaosAssignment& a) { a.stale = true; });
  return plan;
}

// ---- ChaosTransport --------------------------------------------------

bool ChaosTransport::InjectBeforeCall() {
  if (assignment_.dead) return true;
  if (assignment_.straggler && straggle_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(straggle_ms_));
  }
  if (flaky_rate_ > 0) {
    // Verdict = f(seed, request ordinal): the counter is atomic, so
    // concurrent requests get distinct ordinals, and the SET of failed
    // ordinals is seed-fixed regardless of which thread drew which.
    std::uint64_t ordinal = requests_.fetch_add(1, std::memory_order_relaxed);
    util::SplitMix64 rng(seed_ ^ (ordinal * 0x9E3779B97F4A7C15ULL));
    return rng.NextDouble() < flaky_rate_;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

core::ShardReply ChaosTransport::Route(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words) {
  if (InjectBeforeCall()) return {};
  return inner_->Route(keywords, k, min_page_words);
}

std::string ChaosTransport::description() const {
  std::string mode;
  if (assignment_.dead) mode += "+dead";
  if (assignment_.straggler) mode += "+straggler";
  if (assignment_.stale) mode += "+stale";
  if (flaky_rate_ > 0) mode += "+flaky";
  if (mode.empty()) mode = "+none";
  return "chaos" + mode + " over " + inner_->description();
}

// ---- TestCluster -----------------------------------------------------

TestCluster::TestCluster(core::SnapshotPtr snapshot,
                         const ClusterOptions& options)
    : options_(options),
      plan_(AssignChaos(options.chaos, options.shards, options.replicas,
                        options.chaos_seed)),
      reference_(snapshot, options.shards) {
  std::vector<std::vector<std::unique_ptr<core::ShardTransport>>> transports(
      static_cast<std::size_t>(options.shards));
  for (int shard = 0; shard < options.shards; ++shard) {
    for (int replica = 0; replica < options.replicas; ++replica) {
      publishers_.push_back(
          std::make_unique<core::SnapshotPublisher>(snapshot));
      core::SnapshotPublisher& publisher = *publishers_.back();
      core::ServeOptions serve;
      serve.shards = options.shards;
      serve.shard_index = shard;
      std::unique_ptr<core::ShardTransport> transport;
      if (options.http) {
        serve.num_workers = 2;
        servers_.push_back(
            std::make_unique<core::SearchServer>(publisher, serve));
        servers_.back()->Start();
        transport =
            core::HttpShardTransport::Loopback(servers_.back()->port());
      } else {
        nodes_.push_back(
            std::make_unique<core::SearchService>(publisher, serve));
        transport = core::HttpShardTransport::InProcess(*nodes_.back());
      }
      // Per-replica chaos seed: mixes topology position into the run
      // seed, so one replica's verdict stream never aliases another's.
      std::uint64_t replica_seed =
          util::SplitMix64(options.chaos_seed ^
                           static_cast<std::uint64_t>(
                               shard * options.replicas + replica + 1))
              .Next();
      transports[static_cast<std::size_t>(shard)].push_back(
          std::make_unique<ChaosTransport>(
              std::move(transport), plan_.at(shard, replica),
              options.chaos.flaky_rate, options.chaos.straggle_ms,
              replica_seed));
    }
  }

  core::RouterOptions router_options;
  router_options.default_k = options.default_k;
  router_options.default_s = options.default_s;
  router_options.shard_deadline_ms = options.shard_deadline_ms;
  router_ = std::make_unique<core::SearchRouter>(std::move(transports),
                                                 router_options);
  service_ = std::make_unique<core::RouterService>(*router_, router_options);
}

TestCluster::~TestCluster() {
  for (auto& server : servers_) server->Stop();
}

void TestCluster::Publish(core::SnapshotPtr snapshot) {
  reference_ = core::ShardedEngine(snapshot, options_.shards);
  for (int shard = 0; shard < options_.shards; ++shard) {
    for (int replica = 0; replica < options_.replicas; ++replica) {
      if (!plan_.at(shard, replica).stale) {
        publisher(shard, replica).Publish(snapshot);
      }
    }
  }
}

}  // namespace dash::testing
