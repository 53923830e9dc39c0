#include "testing/reference_topk.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/tokenizer.h"

namespace dash::testing {

namespace {

using core::FragmentHandle;

struct Page {
  double score = 0;
  std::vector<FragmentHandle> members;  // ascending
};

bool PopsBefore(const Page& a, const Page& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.members < b.members;
}

}  // namespace

std::vector<core::SearchResult> ReferenceSearch(
    const core::IndexSnapshot& snapshot,
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, std::size_t max_seeds,
    core::ShardSlice slice) {
  std::vector<std::string> terms;
  for (const std::string& raw : keywords) {
    for (std::string& tok : util::Tokenize(raw)) {
      if (std::find(terms.begin(), terms.end(), tok) == terms.end()) {
        terms.push_back(std::move(tok));
      }
    }
  }
  std::vector<core::SearchResult> results;
  if (terms.empty() || k <= 0) return results;
  const core::FragmentCatalog& catalog = snapshot.catalog();
  const core::FragmentGraph& graph = snapshot.graph();

  // Line 1: IDF and occurrences per term.
  std::vector<double> idf(terms.size());
  std::vector<std::map<FragmentHandle, std::uint64_t>> occurrences(
      terms.size());
  core::IndexSnapshot::ReclaimGatherScratch();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    core::TermPlan plan = snapshot.GatherTerm(terms[t], slice);
    idf[t] = plan.idf;
    for (const core::Posting& p : plan.postings) {
      occurrences[t][p.fragment] = p.occurrences;
    }
  }
  core::IndexSnapshot::ReclaimGatherScratch();
  auto occurrences_in = [&](std::size_t t, FragmentHandle f) {
    auto it = occurrences[t].find(f);
    return it == occurrences[t].end() ? std::uint64_t{0} : it->second;
  };
  auto words_of = [&](const std::vector<FragmentHandle>& members) {
    std::uint64_t words = 0;
    for (FragmentHandle m : members) words += catalog.keyword_total(m);
    return words;
  };
  auto score_of = [&](const std::vector<FragmentHandle>& members) {
    std::uint64_t words = words_of(members);
    if (words == 0) return 0.0;
    double score = 0;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      std::uint64_t occ = 0;
      for (FragmentHandle m : members) occ += occurrences_in(t, m);
      score += idf[t] * static_cast<double>(occ) / static_cast<double>(words);
    }
    return score;
  };

  // Line 2: every relevant fragment is a seed, in pop order.
  std::set<FragmentHandle> relevant;
  for (const auto& term : occurrences) {
    for (const auto& [f, occ] : term) relevant.insert(f);
  }
  std::vector<Page> seeds;
  for (FragmentHandle f : relevant) seeds.push_back(Page{score_of({f}), {f}});
  std::sort(seeds.begin(), seeds.end(), PopsBefore);
  if (max_seeds > 0 && seeds.size() > max_seeds) seeds.resize(max_seeds);

  std::size_t next_seed = 0;
  std::vector<Page> queue;  // expanded pages
  std::set<std::vector<FragmentHandle>> queued;
  std::set<FragmentHandle> absorbed;
  std::set<FragmentHandle> output;
  while (static_cast<int>(results.size()) < k) {
    while (next_seed < seeds.size() &&
           absorbed.contains(seeds[next_seed].members.front())) {
      ++next_seed;
    }
    auto best_queued = std::min_element(queue.begin(), queue.end(), PopsBefore);
    Page head;
    if (next_seed < seeds.size() &&
        (queue.empty() || PopsBefore(seeds[next_seed], *best_queued))) {
      head = seeds[next_seed++];
    } else if (!queue.empty()) {
      head = *best_queued;
      queue.erase(best_queued);
    } else {
      break;
    }
    if (std::any_of(head.members.begin(), head.members.end(),
                    [&](FragmentHandle m) { return output.contains(m); })) {
      continue;
    }

    std::set<FragmentHandle> frontier;
    if (words_of(head.members) < min_page_words) {
      for (FragmentHandle m : head.members) {
        for (FragmentHandle n : graph.Neighbors(m)) frontier.insert(n);
      }
      for (FragmentHandle m : head.members) frontier.erase(m);
    }

    if (frontier.empty()) {
      core::SearchResult r;
      r.fragments = head.members;
      r.score = head.score;
      r.size_words = words_of(head.members);
      const db::Row& first = catalog.id(head.members.front());
      const auto& selection = snapshot.selection();
      for (std::size_t d = 0; d < selection.size(); ++d) {
        const sql::SelectionAttribute& attr = selection[d];
        if (!attr.is_range) {
          r.params[attr.eq_parameter] = first[d].ToString();
          continue;
        }
        db::Value lo = first[d], hi = first[d];
        for (FragmentHandle m : head.members) {
          const db::Value& v = catalog.id(m)[d];
          if (v < lo) lo = v;
          if (hi < v) hi = v;
        }
        if (!attr.min_parameter.empty()) {
          r.params[attr.min_parameter] = lo.ToString();
        }
        if (!attr.max_parameter.empty()) {
          r.params[attr.max_parameter] = hi.ToString();
        }
      }
      if (snapshot.has_app()) r.url = snapshot.app().UrlFor(r.params);
      output.insert(head.members.begin(), head.members.end());
      results.push_back(std::move(r));
      continue;
    }

    bool best_relevant = false;
    Page best;
    FragmentHandle best_fragment = 0;
    for (FragmentHandle c : frontier) {  // ascending
      bool is_relevant = false;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        if (occurrences_in(t, c) != 0) is_relevant = true;
      }
      Page grown{0, head.members};
      grown.members.insert(
          std::upper_bound(grown.members.begin(), grown.members.end(), c), c);
      grown.score = score_of(grown.members);
      if (best.members.empty() ||
          (is_relevant != best_relevant ? is_relevant
                                        : grown.score > best.score)) {
        best_relevant = is_relevant;
        best = std::move(grown);
        best_fragment = c;
      }
    }
    if (best_relevant) absorbed.insert(best_fragment);
    if (queued.insert(best.members).second) queue.push_back(std::move(best));
  }
  std::stable_sort(results.begin(), results.end(),
                   [](const core::SearchResult& a,
                      const core::SearchResult& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.fragments < b.fragments;
                   });
  return results;
}

}  // namespace dash::testing
