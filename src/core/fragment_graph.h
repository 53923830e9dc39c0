// The fragment graph (paper Section VI-A, Figure 9).
//
// Nodes are fragments (weighted by keyword count, held in the catalog);
// an edge connects f and f' iff they can be combined into a db-page that
// contains no other fragment. Since a db-page fixes every equality
// attribute and selects an axis-aligned box of range-attribute values:
//
//   * fragments with different equality values are never connected
//     (Figure 9's disconnected Thai node);
//   * with no range attributes every page is a single fragment: no edges;
//   * with one range attribute, edges are exactly the adjacencies in
//     sorted range-value order within each equality group (Figure 9's
//     American chain);
//   * with several range attributes, f—f' holds iff the minimal box
//     covering both contains no third fragment (boundaries inclusive).
//
// Construction is the paper's incremental insertion with its pre-sorting
// optimization: the canonical catalog orders identifiers lexicographically
// (equality prefix first), so each equality group is a contiguous handle
// run already sorted by range values, and the <=1-range-attribute cases
// reduce to linking neighbors.
//
// Because a page never leaves its equality group, the group is also the
// unit of sharding: Build records each group's shard key (a hash of the
// eq-value prefix), and shard i of S owns the groups whose key is i mod S
// (ShardOf). IndexSnapshot applies that filter when it resolves a term
// for one shard, so a shard needs no index of its own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/fragment.h"

namespace dash::core {

class FragmentGraph {
 public:
  struct Stats {
    double build_seconds = 0;
    std::size_t nodes = 0;
    std::size_t edges = 0;
  };

  FragmentGraph() = default;

  // Builds the graph over a canonicalized catalog. `num_eq` / `num_range`
  // are the counts of equality and range selection attributes (the
  // identifier layout: eq values first).
  static FragmentGraph Build(const FragmentCatalog& catalog,
                             std::size_t num_eq, std::size_t num_range);

  std::span<const FragmentHandle> Neighbors(FragmentHandle f) const {
    return adjacency_[f];
  }

  // Equality groups: contiguous handle runs sharing the eq-value prefix.
  std::size_t num_groups() const { return groups_.size(); }
  std::uint32_t GroupOf(FragmentHandle f) const { return group_of_[f]; }
  // Handles [first, last] of group g, sorted by range values ascending.
  std::pair<FragmentHandle, FragmentHandle> GroupSpan(std::uint32_t g) const {
    return groups_[g];
  }
  // Shard of `f` when the fragments are split into `shard_count` shards:
  // its group's shard key modulo the count, so whole groups stay together
  // (with no equality attributes there is one group, and every fragment
  // lands in one shard — the group cannot be split without breaking page
  // assembly).
  std::size_t ShardOf(FragmentHandle f, std::size_t shard_count) const {
    return group_keys_[group_of_[f]] % shard_count;
  }

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const;
  const Stats& stats() const { return stats_; }

  std::size_t num_eq_attributes() const { return num_eq_; }
  std::size_t num_range_attributes() const { return num_range_; }

 private:
  std::vector<std::vector<FragmentHandle>> adjacency_;
  std::vector<std::pair<FragmentHandle, FragmentHandle>> groups_;
  std::vector<std::uint32_t> group_of_;
  std::vector<std::uint64_t> group_keys_;  // group -> shard key
  std::size_t num_eq_ = 0;
  std::size_t num_range_ = 0;
  Stats stats_;
};

}  // namespace dash::core
