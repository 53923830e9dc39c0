// Top-k db-page search (paper Section VI-B, Algorithm 1).
//
// The queue conceptually starts with every fragment relevant to the
// queried keywords (each resolved through a TermPlanSource, see below);
// the walk repeatedly dequeues the highest-scoring pending db-page, and
// either outputs it (when it is not expandable: already >= the size
// threshold s, or out of neighbors) or expands it by one fragment along
// the fragment graph, favoring relevant fragments. Relevant fragments
// absorbed by an expansion are removed from the queue. The URLs of output
// pages are formulated by reverse query string parsing (the page's
// equality values + the min/max of its range values).
//
// Seeding is lazy. Each term plan carries a seed order (its postings by
// normalised TF descending), and the walk pulls seeds from those streams
// into a small seed heap only while the best unseen seed could still tie
// or beat the heap's top: every unseen fragment scores at most
// sum_w IDF_w * (the ratio at the head of w's stream). A hot keyword with
// tens of thousands of relevant fragments therefore scores the few
// hundred the walk reaches, not all of them. Pop order is still the seed
// heap's exact (score desc, fragment asc), so answers are the same as
// seeding every fragment up front; a plan without a seed order is pulled
// whole before the first pop, which is exactly that.
//
// Scoring follows the paper's modified TF/IDF: for queried keywords W,
//   score(p) = sum_{w in W} (occurrences of w in p / total words of p)
//              * IDF_w,  with IDF_w = 1 / (number of fragments containing w).
// Example 7's arithmetic (TF 2/8 -> 3/25 after a merge) is reproduced
// exactly by this formula.
//
// Note on the paper's monotonicity claim: expanding a page "due to
// additional text" is said never to raise its score. With size-normalized
// TF a *relevant* neighbor can in fact raise it; the best-first queue
// handles that naturally (the expansion re-enters the queue with its new
// score), making the result list best-effort top-k exactly as published.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/fragment_graph.h"
#include "core/inverted_index.h"
#include "sql/psj_query.h"
#include "util/analysis_annotations.h"
#include "webapp/query_string.h"

namespace dash::core {

struct SearchResult {
  std::vector<FragmentHandle> fragments;  // ascending handles
  double score = 0;
  std::uint64_t size_words = 0;
  // Concrete parameter values of the reconstructed db-page (parameter name
  // -> value text); range parameters carry the min/max over the fragments.
  std::map<std::string, std::string> params;
  // Full URL when the searcher was given a WebAppInfo; empty otherwise.
  std::string url;
};

// Per-request search deadline (serving tier). The search loop polls the
// steady clock every few queue pops; once `at` passes it stops expanding,
// sets `expired`, and returns the pages output so far — every one of them
// is a complete, valid db-page, the list is just shorter than k (the
// server turns that into 504 + partial results). `expired` is atomic so a
// sharded scatter can hand one deadline to all shard searchers. A null
// deadline (the default everywhere) keeps Search fully deterministic —
// the differential-fuzzing contract is unchanged.
struct SearchDeadline {
  std::chrono::steady_clock::time_point at;
  std::atomic<bool> expired{false};
};

// Everything the searcher needs for one normalized query token: its IDF,
// a fragment-ascending posting span over catalog handles, and that span's
// seed order. This is the searcher's only view of the inverted index.
// IndexSnapshot::GatherTerm supplies it, from its own index or by
// gathering across segments; for a shard slice it keeps the global IDF
// and narrows the span (and the order) to the postings that shard owns,
// so each shard seeds only its own fragments. The spans must stay valid
// for the duration of the Search call that requested them. An unknown
// token yields idf 0 and empty spans.
struct TermPlan {
  double idf = 0;
  std::span<const Posting> postings;  // fragment ascending
  // Positions into `postings` by SeedRatio descending (ties: position
  // ascending), each exactly once — the order the walk pulls this term's
  // seeds in. Empty means no order: the walk then scores and heaps the
  // whole span before its first pop (same answers, O(df) cost).
  std::span<const std::uint32_t> seed_order;
};
using TermPlanSource = std::function<TermPlan(std::string_view token)>;

// Work counters of one search — the first fields of a per-request
// profile. Caller-owned and passed by pointer the way SearchDeadline is;
// null (the default everywhere) means off. Search adds to the fields, so
// one profile can sum several searches (the legs of a sharded search).
struct QueryProfile {
  std::uint64_t seeds_scored = 0;  // relevant fragments scored into the seed heap
  std::uint64_t seeds_popped = 0;  // seed-heap pops, absorbed seeds included
  std::uint64_t expansions = 0;    // pages grown by one fragment
};

class TopKSearcher {
 public:
  // All referenced objects must outlive the searcher. `app` may be null
  // (no URL formulation). `selection` must match the catalog's identifier
  // layout (Crawler::selection()). Every query token resolves through
  // `plan` (see TermPlanSource); the walk itself (seeding, expansion,
  // scoring, output order) depends only on the plans, so two sources that
  // yield the same IDFs and spans yield the same answers bit-for-bit. A
  // restricted span is only sound when every graph-reachable occurrence
  // of each term lies inside it, as equality-group sharding guarantees.
  TopKSearcher(TermPlanSource plan, const FragmentCatalog& catalog,
               const FragmentGraph& graph,
               const std::vector<sql::SelectionAttribute>& selection,
               const webapp::WebAppInfo* app = nullptr);

  // Returns at most k db-pages relevant to `keywords` (each input string
  // is tokenized with the indexing tokenizer, so "Burger Experts" queries
  // two keywords). `min_page_words` is the paper's size threshold s.
  //
  // `max_seeds` caps the walk at the first `max_seeds` seed pops (0 = no
  // cap, the paper's Algorithm 1); seeds an expansion absorbed count
  // against it when popped. Keeping only the top-scored seeds bounds
  // query latency — the search-time analog of the crawl-scope tradeoff —
  // while expansion may still absorb unseeded relevant fragments. With
  // max_seeds >= the df of every queried keyword the results are
  // unchanged.
  //
  // `deadline`, when non-null, bounds wall-clock: on expiry the search
  // returns the (complete, correctly scored) pages found so far and marks
  // the deadline expired. Passing null preserves exact determinism.
  // `profile`, when non-null, accumulates the search's work counters.
  // DASH_HOT_PATH: the innermost serving loop. dash_analyze proves the
  // walk below allocation-free (modulo the audited arena warm-up),
  // lock-free and log-free — see DESIGN.md §13; its per-query state lives
  // in thread-local scratch, so a warmed thread allocates only the results.
  std::vector<SearchResult> Search(const std::vector<std::string>& keywords,
                                   int k, std::uint64_t min_page_words,
                                   std::size_t max_seeds = 0,
                                   SearchDeadline* deadline = nullptr,
                                   QueryProfile* profile = nullptr) const
      DASH_HOT_PATH;

 private:
  TermPlanSource plan_;
  const FragmentCatalog& catalog_;
  const FragmentGraph& graph_;
  const std::vector<sql::SelectionAttribute>& selection_;
  const webapp::WebAppInfo* app_;
};

}  // namespace dash::core
