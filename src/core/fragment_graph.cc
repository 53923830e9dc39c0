#include "core/fragment_graph.h"

#include <algorithm>
#include <stdexcept>

#include "util/stopwatch.h"

namespace dash::core {

namespace {

// True iff id[num_eq..] of `mid` lies within the componentwise min/max box
// of `a` and `b` (inclusive). Precondition: same equality prefix.
bool InBox(const db::Row& a, const db::Row& b, const db::Row& mid,
           std::size_t num_eq) {
  for (std::size_t d = num_eq; d < a.size(); ++d) {
    const db::Value& lo = a[d] <= b[d] ? a[d] : b[d];
    const db::Value& hi = a[d] <= b[d] ? b[d] : a[d];
    if (mid[d] < lo || hi < mid[d]) return false;
  }
  return true;
}

// Shard key of an equality group: an FNV-style mix of its eq-value prefix.
std::uint64_t ShardKey(const db::Row& id, std::size_t num_eq) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t d = 0; d < num_eq; ++d) {
    h ^= id[d].Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

FragmentGraph FragmentGraph::Build(const FragmentCatalog& catalog,
                                   std::size_t num_eq, std::size_t num_range) {
  util::Stopwatch watch;
  FragmentGraph graph;
  graph.num_eq_ = num_eq;
  graph.num_range_ = num_range;
  const std::size_t n = catalog.size();
  graph.adjacency_.resize(n);
  graph.group_of_.resize(n);

  // Sanity: handles must be canonical (identifiers ascending), which makes
  // equality groups contiguous and range-sorted.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!(catalog.id(static_cast<FragmentHandle>(i)) <
          catalog.id(static_cast<FragmentHandle>(i + 1)))) {
      throw std::logic_error(
          "FragmentGraph::Build requires a canonicalized catalog");
    }
  }

  auto same_group = [&](std::size_t a, std::size_t b) {
    const db::Row& ra = catalog.id(static_cast<FragmentHandle>(a));
    const db::Row& rb = catalog.id(static_cast<FragmentHandle>(b));
    for (std::size_t d = 0; d < num_eq; ++d) {
      if (!(ra[d] == rb[d])) return false;
    }
    return true;
  };

  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = begin + 1;
    while (end < n && same_group(begin, end)) ++end;
    std::uint32_t g = static_cast<std::uint32_t>(graph.groups_.size());
    graph.groups_.emplace_back(static_cast<FragmentHandle>(begin),
                               static_cast<FragmentHandle>(end - 1));
    graph.group_keys_.push_back(
        ShardKey(catalog.id(static_cast<FragmentHandle>(begin)), num_eq));
    for (std::size_t i = begin; i < end; ++i) {
      graph.group_of_[i] = g;
    }

    if (num_range <= 1) {
      // Pre-sorted fast path: with one range attribute, combinable-without-
      // covering-others is exactly sorted adjacency; with none, no two
      // distinct fragments ever share a page.
      if (num_range == 1) {
        for (std::size_t i = begin; i + 1 < end; ++i) {
          graph.adjacency_[i].push_back(static_cast<FragmentHandle>(i + 1));
          graph.adjacency_[i + 1].push_back(static_cast<FragmentHandle>(i));
        }
      }
    } else {
      // Generic incremental insertion (paper Section VI-A): add fragments
      // one by one; adding f removes any edge whose box now covers f and
      // links f to every node whose box with f is empty of current nodes.
      std::vector<std::size_t> present;  // indices inserted so far
      for (std::size_t f = begin; f < end; ++f) {
        const db::Row& rf = catalog.id(static_cast<FragmentHandle>(f));
        // Remove edges whose box now covers f.
        std::vector<std::pair<FragmentHandle, FragmentHandle>> doomed;
        for (std::size_t a : present) {
          for (FragmentHandle b : graph.adjacency_[a]) {
            if (static_cast<std::size_t>(b) > a &&
                InBox(catalog.id(static_cast<FragmentHandle>(a)),
                      catalog.id(b), rf, num_eq)) {
              doomed.emplace_back(static_cast<FragmentHandle>(a), b);
            }
          }
        }
        for (auto [a, b] : doomed) {
          auto& fa = graph.adjacency_[a];
          auto& fb = graph.adjacency_[b];
          fa.erase(std::find(fa.begin(), fa.end(), b));
          fb.erase(std::find(fb.begin(), fb.end(), a));
        }
        // Connect f to nodes with an empty box.
        for (std::size_t a : present) {
          const db::Row& ra = catalog.id(static_cast<FragmentHandle>(a));
          bool blocked = false;
          for (std::size_t m : present) {
            if (m == a) continue;
            if (InBox(ra, rf, catalog.id(static_cast<FragmentHandle>(m)),
                      num_eq)) {
              blocked = true;
              break;
            }
          }
          if (!blocked) {
            graph.adjacency_[a].push_back(static_cast<FragmentHandle>(f));
            graph.adjacency_[f].push_back(static_cast<FragmentHandle>(a));
          }
        }
        present.push_back(f);
      }
    }
    begin = end;
  }

  for (auto& adj : graph.adjacency_) std::sort(adj.begin(), adj.end());

  graph.stats_.build_seconds = watch.ElapsedSeconds();
  graph.stats_.nodes = n;
  graph.stats_.edges = graph.edge_count();
  return graph;
}

std::size_t FragmentGraph::edge_count() const {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

}  // namespace dash::core
