// Deterministic failure injection for the replicated-shard serving tier.
//
// The router's degradation contract (core/search_router.h) only means
// something if failures are reproducible: a chaos run that cannot be
// replayed under tsan or bisected by seed is a flake generator, not a
// test. Everything here is therefore a pure function of
// (profile, topology, seed):
//
//   AssignChaos — decides WHICH replicas misbehave. Dead replicas land on
//     distinct shards first (one kill per shard does maximal coverage
//     damage; only after every shard lost one does a second replica of
//     the same shard die), then stragglers and stale replicas fill the
//     remaining live slots, all in a seed-derived shard order.
//
//   ChaosTransport — decides WHAT each request sees. It wraps a real
//     core::ShardTransport: dead replicas fail every call, stragglers
//     sleep straggle_ms before forwarding (tripping the router's
//     per-shard deadline when configured), and flaky replicas fail each
//     request with probability flaky_rate, decided by hashing the
//     replica seed with an atomic request counter — thread-safe AND
//     replayable (run N's verdicts don't depend on thread interleaving;
//     the set of failed request ordinals is fixed by the seed).
//
//   Stale replicas are a topology property, not a transport one: the
//   TestCluster simply never advances their SnapshotPublisher, so they
//   keep answering — correctly — from an old generation, and the
//   router's X-Dash-Generation-Min/Max spread exposes the skew.
//
// TestCluster wires the full three-role topology over one corpus: per
// replica a SnapshotPublisher and a SearchService in shard-node mode
// (called in-process, or behind a loopback-HTTP SearchServer), chaos
// wrappers per the plan, and one SearchRouter/RouterService on top. Both
// variants run the real shard-node code and the real reply decoders; they
// differ only in how a request target reaches the node. A shard view is
// just the snapshot plus a shard id, so every replica makes its own per
// request at no cost, and all in-sync replicas serve the same published
// snapshot object.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/search_router.h"
#include "core/search_server.h"

namespace dash::testing {

struct ChaosProfile {
  int dead_replicas = 0;       // fail every request
  int straggler_replicas = 0;  // sleep straggle_ms, then answer
  int straggle_ms = 50;
  int stale_replicas = 0;      // never receive later publications
  double flaky_rate = 0.0;     // per-request failure odds on live replicas
};

struct ChaosAssignment {
  bool dead = false;
  bool straggler = false;
  bool stale = false;
};

struct ChaosPlan {
  int shards = 0;
  int replicas = 0;
  std::vector<ChaosAssignment> assignments;  // shard-major

  ChaosAssignment& at(int shard, int replica) {
    return assignments[static_cast<std::size_t>(shard * replicas + replica)];
  }
  const ChaosAssignment& at(int shard, int replica) const {
    return assignments[static_cast<std::size_t>(shard * replicas + replica)];
  }
  // Shards with every replica dead — the f of the bounded-degradation
  // oracle when the plan has no other failure modes.
  int DeadShardCount() const;
};

ChaosPlan AssignChaos(const ChaosProfile& profile, int shards, int replicas,
                      std::uint64_t seed);

// Wraps one replica's transport with its assigned misbehavior.
class ChaosTransport : public core::ShardTransport {
 public:
  ChaosTransport(std::unique_ptr<core::ShardTransport> inner,
                 const ChaosAssignment& assignment, double flaky_rate,
                 int straggle_ms, std::uint64_t replica_seed)
      : inner_(std::move(inner)),
        assignment_(assignment),
        flaky_rate_(flaky_rate),
        straggle_ms_(straggle_ms),
        seed_(replica_seed) {}

  core::ShardReply Route(const std::vector<std::string>& keywords, int k,
                         std::uint64_t min_page_words) override;
  std::string description() const override;

  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  // Dead / straggle / flaky verdict for the next request ordinal; true =
  // this call must fail (after any straggle sleep).
  bool InjectBeforeCall();

  const std::unique_ptr<core::ShardTransport> inner_;
  const ChaosAssignment assignment_;
  const double flaky_rate_;
  const int straggle_ms_;
  const std::uint64_t seed_;
  std::atomic<std::uint64_t> requests_{0};
};

struct ClusterOptions {
  int shards = 4;
  int replicas = 1;
  // false: each replica's shard-node SearchService is called in-process
  // (fast, fuzz-friendly). true: each replica is a SearchServer behind
  // loopback HTTP, so the socket path is exercised too.
  bool http = false;
  int default_k = 10;
  std::uint64_t default_s = 0;
  int shard_deadline_ms = 0;  // router-side per-leg budget; 0 = none
  ChaosProfile chaos;
  std::uint64_t chaos_seed = 0;
};

// A complete replicated-shard cluster in one process: shards × replicas
// nodes over one corpus snapshot, chaos per AssignChaos, one router.
class TestCluster {
 public:
  TestCluster(core::SnapshotPtr snapshot, const ClusterOptions& options);
  ~TestCluster();

  core::SearchRouter& router() { return *router_; }
  core::RouterService& service() { return *service_; }
  const ChaosPlan& plan() const { return plan_; }
  const ClusterOptions& options() const { return options_; }

  // Publishes `snapshot` to every replica EXCEPT the plan's stale ones,
  // which stay frozen at their current generation (generation skew).
  void Publish(core::SnapshotPtr snapshot);

  // The local ground truth the oracles compare against: a single-process
  // ShardedEngine over the latest published snapshot, same shard count.
  const core::ShardedEngine& reference() const { return reference_; }

 private:
  core::SnapshotPublisher& publisher(int shard, int replica) {
    return *publishers_[static_cast<std::size_t>(
        shard * options_.replicas + replica)];
  }

  ClusterOptions options_;
  ChaosPlan plan_;
  std::vector<std::unique_ptr<core::SnapshotPublisher>> publishers_;
  std::vector<std::unique_ptr<core::SearchService>> nodes_;   // !http
  std::vector<std::unique_ptr<core::SearchServer>> servers_;  // http
  core::ShardedEngine reference_;
  std::unique_ptr<core::SearchRouter> router_;
  std::unique_ptr<core::RouterService> service_;
};

}  // namespace dash::testing
