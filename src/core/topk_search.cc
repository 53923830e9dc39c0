#include "core/topk_search.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "util/tokenizer.h"

namespace dash::core {

namespace {

// Heavy state of a pending db-page, held behind a pointer so heap sifts
// move 32-byte entries instead of three vectors. Payloads are recycled
// through a free list: steady-state expansion does no vector allocation,
// it reuses the capacity of dead entries.
struct Payload {
  std::vector<FragmentHandle> members;   // ascending
  // Expansion frontier: graph neighbors of `members` that are not members
  // themselves, kept sorted. Maintained incrementally (O(degree) per
  // expansion) instead of being recollected from every member's adjacency
  // list on each pop, which costs O(|members| * degree) on deep pages.
  std::vector<FragmentHandle> frontier;  // ascending
  std::vector<std::uint64_t> occ;        // per queried keyword
};

// A pending db-page in the priority queue (expanded entries only; seeds —
// single-fragment pages — stay in a lightweight seed heap, pulled into it
// lazily and materialized only when popped).
struct Entry {
  double score = 0;
  std::uint64_t set_hash = 0;            // sum of MixHandle over members
  std::uint64_t words = 0;
  Payload* p = nullptr;                  // owned by the search's arena
};

// Queue order: score descending; ties broken by smaller member list
// (lexicographically) so runs are deterministic.
struct EntryLess {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.score != b.score) return a.score < b.score;
    return a.p->members > b.p->members;
  }
};

// Per-handle mixer (splitmix64 finalizer). A member set's fingerprint is
// the *sum* of its handles' mixes, so it updates in O(1) per expansion
// and is independent of growth order.
inline std::uint64_t MixHandle(FragmentHandle f) {
  std::uint64_t x = static_cast<std::uint64_t>(f) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Set of already-queued member sets. Open-addressed over (fingerprint,
// span into a shared member pool): an insert costs one probe run and an
// amortized pool append — no per-insert node or key allocation, and
// equality is exact (element compare on fingerprint match), so the dedup
// behaves identically to keying on the full member list.
class VisitedSet {
 public:
  VisitedSet() : slots_(1024) {}

  // Forget all recorded sets but keep the table and pool capacity, so a
  // reused instance runs allocation-free once warmed up. O(1): slots from
  // earlier queries are invalidated by the generation stamp, not by
  // clearing the (potentially large) table.
  void Reset() {
    ++gen_;
    pool_.clear();
    count_ = 0;
  }

  // Records `members` (fingerprint `hash`); false if already present.
  bool Insert(std::uint64_t hash,
              const std::vector<FragmentHandle>& members) {
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = Slot{hash, static_cast<std::uint32_t>(pool_.size()),
                 static_cast<std::uint32_t>(members.size()), gen_};
        pool_.insert(pool_.end(), members.begin(), members.end());
        ++count_;
        return true;
      }
      if (s.hash == hash && s.length == members.size() &&
          std::equal(members.begin(), members.end(),
                     pool_.begin() + s.offset)) {
        return false;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint64_t gen = 0;  // slot is live iff gen == VisitedSet::gen_
  };

  void Grow() {
    std::vector<Slot> next(slots_.size() * 2);
    std::size_t mask = next.size() - 1;
    for (const Slot& s : slots_) {
      if (s.gen != gen_) continue;
      std::size_t i = s.hash & mask;
      while (next[i].gen == gen_) i = (i + 1) & mask;
      next[i] = s;
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::vector<FragmentHandle> pool_;
  std::size_t count_ = 0;
  std::uint64_t gen_ = 1;  // slots start at gen 0 == empty
};

// One query term: IDF, the plan's *borrowed* fragment-sorted span and
// seed order (no per-query copy or re-sort — segments precompute both),
// and the term's seed-stream cursor.
struct TermPostings {
  double idf = 0;
  std::span<const Posting> by_frag;          // sorted by fragment
  std::span<const std::uint32_t> seed_order;  // positions into by_frag
  std::size_t next_seed = 0;  // seed_order[next_seed] is the stream head
  // For terms whose list covers a large share of the catalog the
  // expansion loop probes occurrences constantly; a dense frag->occ
  // array turns each probe into one load instead of a binary search.
  std::vector<std::uint32_t> dense;

  std::uint32_t OccurrencesIn(FragmentHandle f) const {
    if (!dense.empty()) return dense[f];
    auto it = std::lower_bound(
        by_frag.begin(), by_frag.end(), f,
        [](const Posting& p, FragmentHandle h) { return p.fragment < h; });
    if (it == by_frag.end() || it->fragment != f) return 0;
    return it->occurrences;
  }
};

// A not-yet-materialized single-fragment entry.
struct Seed {
  double score = 0;
  FragmentHandle fragment = 0;
};

// Heap comparator yielding pops in (score desc, fragment asc) order — the
// order of a fully sorted seed array over every relevant fragment.
struct SeedPopLater {
  bool operator()(const Seed& a, const Seed& b) const {
    if (a.score != b.score) return a.score < b.score;
    return a.fragment > b.fragment;
  }
};

// Lexicographic {f} < members, allocation-free.
inline bool SingletonLess(FragmentHandle f,
                          const std::vector<FragmentHandle>& members) {
  return f < members.front() ||
         (f == members.front() && members.size() > 1);
}

// Relative slack on the unseen-seed bound. A seed's score sums
// IDF * occurrences / words term by term; the bound sums IDF * SeedRatio
// over stream heads. Equal rationals (1/2, 2/4, 3/6) can round to scores
// an ulp or two apart, so without slack a seed could stay unpulled while a
// lower-scored one pops first. A few ulps per term is ~1e-15 relative;
// 1e-9 covers any term count with room to spare and costs at most a few
// extra pulls of seeds that tie to nine digits.
constexpr double kBoundSlack = 1e-9;

// Per-thread walk state. Every Search on a thread reclaims it on entry —
// clears keep their capacity and the per-fragment marks are invalidated by
// bumping `gen` — so a warmed-up thread's walk allocates nothing; the
// allocations left are the results it returns. Searches never nest on a
// thread (a TermPlanSource gathers, it never searches).
struct WalkScratch {
  std::vector<TermPostings> terms;  // high-water sized; the query's first n
  std::vector<Seed> seeds;          // seed heap (SeedPopLater)
  // Expanded-entry max-heap. Hand-rolled over a vector (same layout a
  // std::priority_queue would produce) so the head can be *moved* out —
  // top()+pop() on priority_queue forces a deep Entry copy per pop.
  std::vector<Entry> queue;
  std::vector<std::uint64_t> seed_occ, cand_occ, best_occ;
  VisitedSet visited;  // expanded sets already queued
  // Per-fragment stamps: in the current search a fragment is seen (scored
  // into the seed heap), consumed (absorbed by an expansion, so its seed
  // is dropped when popped) or used (in an output page) iff the field
  // equals `gen`. Flat loads on the walk's innermost tests, and an O(1)
  // reset per search instead of an O(catalog) clear.
  struct Marks {
    std::uint64_t seen = 0;
    std::uint64_t consumed = 0;
    std::uint64_t used = 0;
  };
  std::vector<Marks> marks;
  std::uint64_t gen = 0;
  // Payload arena + free list (see Payload). Every payload acquired during
  // a search is released by the time it returns (dead heads immediately,
  // queue survivors in the sweep before the return), so the free list
  // stays consistent across calls.
  std::vector<std::unique_ptr<Payload>> payload_arena;
  std::vector<Payload*> free_payloads;
};

thread_local WalkScratch g_walk;

}  // namespace

TopKSearcher::TopKSearcher(
    TermPlanSource plan, const FragmentCatalog& catalog,
    const FragmentGraph& graph,
    const std::vector<sql::SelectionAttribute>& selection,
    const webapp::WebAppInfo* app)
    : plan_(std::move(plan)),
      catalog_(catalog),
      graph_(graph),
      selection_(selection),
      app_(app) {}

std::vector<SearchResult> TopKSearcher::Search(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, std::size_t max_seeds,
    SearchDeadline* deadline, QueryProfile* profile) const {
  // Normalize the query with the indexing tokenizer and drop duplicates.
  std::vector<std::string> terms;
  for (const std::string& raw : keywords) {
    for (std::string& tok : util::Tokenize(raw)) {
      if (std::find(terms.begin(), terms.end(), tok) == terms.end()) {
        terms.push_back(std::move(tok));
      }
    }
  }
  std::vector<SearchResult> results;
  if (terms.empty() || k <= 0) return results;
  static const std::vector<FragmentHandle> kNoCandidates;
  const std::size_t num_terms = terms.size();

  WalkScratch& w = g_walk;
  ++w.gen;
  if (w.marks.size() < catalog_.size()) w.marks.resize(catalog_.size());
  if (w.terms.size() < num_terms) w.terms.resize(num_terms);
  w.seeds.clear();
  w.queue.clear();
  VisitedSet& visited = w.visited;
  visited.Reset();
  w.seed_occ.assign(num_terms, 0);
  std::uint64_t seeds_scored = 0;
  std::uint64_t expansions = 0;

  auto score_of = [&w](const std::vector<std::uint64_t>& occ,
                       std::uint64_t words) {
    if (words == 0) return 0.0;
    double score = 0;
    for (std::size_t t = 0; t < occ.size(); ++t) {
      score += w.terms[t].idf * static_cast<double>(occ[t]) /
               static_cast<double>(words);
    }
    return score;
  };

  // Scores relevant fragment `f`, seen in term `src`'s postings with
  // `occurrences`, onto the seed heap's storage — unless another term's
  // stream already did. The caller restores the heap order.
  auto add_seed = [&](FragmentHandle f, std::size_t src,
                      std::uint32_t occurrences) {
    if (w.marks[f].seen == w.gen) return false;
    w.marks[f].seen = w.gen;
    for (std::size_t t = 0; t < num_terms; ++t) {
      w.seed_occ[t] =
          t == src ? occurrences : w.terms[t].OccurrencesIn(f);
    }
    w.seeds.push_back(Seed{score_of(w.seed_occ, catalog_.keyword_total(f)), f});
    ++seeds_scored;
    return true;
  };

  // Per-term IDF, fragment-sorted postings and seed order (line 1 of
  // Algorithm 1), one plan per term, borrowed from wherever the source
  // keeps them. A plan without a seed order is seeded whole right here
  // (line 2 as written); the rest are pulled lazily below.
  for (std::size_t t = 0; t < num_terms; ++t) {
    TermPlan plan = plan_(terms[t]);
    TermPostings& tp = w.terms[t];
    tp.idf = plan.idf;
    tp.by_frag = plan.postings;
    tp.seed_order = plan.seed_order;
    tp.next_seed = 0;
    tp.dense.clear();
    if (tp.by_frag.size() * 8 >= catalog_.size()) {
      tp.dense.assign(catalog_.size(), 0);
      for (const Posting& p : tp.by_frag) tp.dense[p.fragment] = p.occurrences;
    }
  }
  for (std::size_t t = 0; t < num_terms; ++t) {
    TermPostings& tp = w.terms[t];
    if (!tp.seed_order.empty()) continue;
    for (const Posting& p : tp.by_frag) add_seed(p.fragment, t, p.occurrences);
  }
  std::make_heap(w.seeds.begin(), w.seeds.end(), SeedPopLater{});

  // Pulls seeds until the heap's top is the best pending seed overall:
  // its score beats (with slack: strictly exceeds, so ties are pulled and
  // the heap orders them) the bound on every seed still unseen. Each pull
  // takes the stream head contributing most to that bound.
  auto settle_seed_top = [&] {
    for (;;) {
      double bound = 0;
      double best_share = -1;
      std::size_t pick = num_terms;
      for (std::size_t t = 0; t < num_terms; ++t) {
        const TermPostings& tp = w.terms[t];
        if (tp.next_seed >= tp.seed_order.size()) continue;
        const Posting& head = tp.by_frag[tp.seed_order[tp.next_seed]];
        double share =
            tp.idf * SeedRatio(head.occurrences,
                               catalog_.keyword_total(head.fragment));
        bound += share;
        if (share > best_share) {
          best_share = share;
          pick = t;
        }
      }
      if (pick == num_terms) return;  // every stream drained
      if (!w.seeds.empty() &&
          w.seeds.front().score > bound * (1 + kBoundSlack)) {
        return;
      }
      TermPostings& tp = w.terms[pick];
      const Posting& p = tp.by_frag[tp.seed_order[tp.next_seed++]];
      if (add_seed(p.fragment, pick, p.occurrences)) {
        std::push_heap(w.seeds.begin(), w.seeds.end(), SeedPopLater{});
      }
    }
  };

  // Search-scope cap (see header): only the first `max_seeds` pops count,
  // absorbed seeds included.
  const std::size_t seed_budget =
      max_seeds > 0 ? max_seeds : std::numeric_limits<std::size_t>::max();
  std::size_t seeds_popped = 0;
  auto drop_top_seed = [&] {
    std::pop_heap(w.seeds.begin(), w.seeds.end(), SeedPopLater{});
    w.seeds.pop_back();
    ++seeds_popped;
  };
  // Settles the seed heap and drops seeds absorbed by an earlier
  // expansion ("removed from Q"); true iff a live seed within the budget
  // is on top.
  auto next_seed_ready = [&] {
    while (seeds_popped < seed_budget) {
      settle_seed_top();
      if (w.seeds.empty()) return false;
      if (w.marks[w.seeds.front().fragment].consumed != w.gen) return true;
      drop_top_seed();
    }
    return false;
  };

  auto acquire_payload = [&]() -> Payload* {
    if (!w.free_payloads.empty()) {
      Payload* p = w.free_payloads.back();
      w.free_payloads.pop_back();
      p->members.clear();
      p->frontier.clear();
      return p;
    }
    // Arena warm-up: each thread's arena grows O(live pages) times total,
    // then every later query on this thread reuses the free list above —
    // the steady state the hot-path contract is really about.
    w.payload_arena.push_back(std::make_unique<Payload>());  // dash-analyze: allow(hot-alloc)
    return w.payload_arena.back().get();
  };
  auto release_payload = [&](Payload* p) { w.free_payloads.push_back(p); };

  auto materialize = [&](const Seed& seed) {
    Entry e;
    e.p = acquire_payload();
    e.p->members.push_back(seed.fragment);
    e.p->occ.resize(num_terms);
    for (std::size_t t = 0; t < num_terms; ++t) {
      e.p->occ[t] = w.terms[t].OccurrencesIn(seed.fragment);
    }
    e.set_hash = MixHandle(seed.fragment);
    for (FragmentHandle n : graph_.Neighbors(seed.fragment)) {
      if (n == seed.fragment) continue;
      auto pos = std::lower_bound(e.p->frontier.begin(), e.p->frontier.end(),
                                  n);
      if (pos == e.p->frontier.end() || *pos != n) {
        e.p->frontier.insert(pos, n);
      }
    }
    e.words = catalog_.keyword_total(seed.fragment);
    e.score = seed.score;
    return e;
  };

  std::vector<Entry>& queue = w.queue;
  auto queue_top = [&]() -> const Entry& { return queue.front(); };
  auto queue_pop = [&] {
    std::pop_heap(queue.begin(), queue.end(), EntryLess{});
    Entry e = std::move(queue.back());
    queue.pop_back();
    return e;
  };
  auto queue_push = [&](Entry e) {
    queue.push_back(std::move(e));
    std::push_heap(queue.begin(), queue.end(), EntryLess{});
  };
  std::vector<std::uint64_t>& cand_occ = w.cand_occ;
  std::vector<std::uint64_t>& best_occ = w.best_occ;
  // Deadline polling: the clock is read on the first pop (a request that
  // arrives already past its budget does zero work) and then once every
  // kDeadlineStride pops — cheap against the work of a pop, tight enough
  // that an expired request stops within microseconds of its budget.
  constexpr std::uint32_t kDeadlineStride = 32;
  std::uint32_t pop_count = 0;
  while (static_cast<int>(results.size()) < k) {
    if (deadline != nullptr && pop_count++ % kDeadlineStride == 0) {
      if (std::chrono::steady_clock::now() >= deadline->at ||
          deadline->expired.load(std::memory_order_relaxed)) {
        deadline->expired.store(true, std::memory_order_relaxed);
        break;
      }
    }
    // Dequeue the globally best pending entry: compare the best pending
    // seed with the top of the expanded-entry queue.
    Entry head;
    if (next_seed_ready() &&
        (queue.empty() || w.seeds.front().score > queue_top().score ||
         (w.seeds.front().score == queue_top().score &&
          SingletonLess(w.seeds.front().fragment, queue_top().p->members)))) {
      head = materialize(w.seeds.front());
      drop_top_seed();
    } else if (!queue.empty()) {
      head = queue_pop();
    } else {
      break;  // Q exhausted
    }

    // Db-pages sharing fragments with an already-returned page "for sure
    // have overlapped contents, and they can be easily identified to be
    // excluded from search results" (paper Section IV).
    bool overlaps_output = false;
    for (FragmentHandle m : head.p->members) {
      if (w.marks[m].used == w.gen) {
        overlaps_output = true;
        break;
      }
    }
    if (overlaps_output) {
      release_payload(head.p);
      continue;
    }

    // Candidate neighbors (fragment graph) not already in the page: the
    // entry's incrementally maintained frontier (empty once the page has
    // reached its word budget — no further growth is attempted).
    const std::vector<FragmentHandle>& candidates =
        head.words < min_page_words ? head.p->frontier : kNoCandidates;

    if (candidates.empty()) {
      // Not expandable (size reached or no fragments available): output.
      SearchResult r;
      r.fragments = head.p->members;
      r.score = head.score;
      r.size_words = head.words;
      // Reverse query string parsing: equality values from the identifier
      // prefix, range bounds from the min/max over the member fragments.
      const db::Row& first = catalog_.id(head.p->members.front());
      for (std::size_t d = 0; d < selection_.size(); ++d) {
        const sql::SelectionAttribute& attr = selection_[d];
        if (!attr.is_range) {
          r.params[attr.eq_parameter] = first[d].ToString();
          continue;
        }
        db::Value lo = first[d], hi = first[d];
        for (FragmentHandle m : head.p->members) {
          const db::Value& v = catalog_.id(m)[d];
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
      if (app_ != nullptr) r.url = app_->UrlFor(r.params);
      for (FragmentHandle m : head.p->members) w.marks[m].used = w.gen;
      release_payload(head.p);
      results.push_back(std::move(r));
      continue;
    }

    // Expand by the best single neighbor, favoring relevant fragments
    // ("whenever possible, relevant db-page fragments are favored").
    bool best_relevant = false;
    double best_score = -1;
    FragmentHandle best = 0;
    std::uint64_t best_words = 0;
    bool have_best = false;
    for (FragmentHandle c : candidates) {
      cand_occ.assign(head.p->occ.begin(), head.p->occ.end());
      bool is_relevant = false;
      for (std::size_t t = 0; t < num_terms; ++t) {
        std::uint32_t o = w.terms[t].OccurrencesIn(c);
        if (o != 0) {
          cand_occ[t] += o;
          is_relevant = true;
        }
      }
      std::uint64_t words = head.words + catalog_.keyword_total(c);
      double score = score_of(cand_occ, words);
      bool better;
      if (is_relevant != best_relevant) {
        better = is_relevant;
      } else if (score != best_score) {
        better = score > best_score;
      } else {
        better = c < best;
      }
      if (!have_best || better) {
        have_best = true;
        best_relevant = is_relevant;
        best_score = score;
        best = c;
        best_occ.swap(cand_occ);
        best_words = words;
      }
    }

    // Single-pass sorted insert of `best` into a recycled member buffer;
    // `head` is dead past this point and donates its payload back.
    Entry expanded;
    expanded.p = acquire_payload();
    const std::vector<FragmentHandle>& hm = head.p->members;
    expanded.p->members.reserve(hm.size() + 1);
    auto split = std::upper_bound(hm.begin(), hm.end(), best);
    expanded.p->members.insert(expanded.p->members.end(), hm.begin(), split);
    expanded.p->members.push_back(best);
    expanded.p->members.insert(expanded.p->members.end(), split, hm.end());
    // New frontier: the old one minus `best`, plus best's neighbors that
    // are neither members nor frontier candidates already.
    std::vector<FragmentHandle>& nf = expanded.p->frontier;
    nf.reserve(head.p->frontier.size() + 4);
    for (FragmentHandle f : head.p->frontier) {
      if (f != best) nf.push_back(f);
    }
    for (FragmentHandle n : graph_.Neighbors(best)) {
      if (std::binary_search(expanded.p->members.begin(),
                             expanded.p->members.end(), n)) {
        continue;
      }
      auto pos = std::lower_bound(nf.begin(), nf.end(), n);
      if (pos == nf.end() || *pos != n) nf.insert(pos, n);
    }
    expanded.p->occ.assign(best_occ.begin(), best_occ.end());
    expanded.set_hash = head.set_hash + MixHandle(best);
    expanded.words = best_words;
    expanded.score = best_score;
    release_payload(head.p);
    ++expansions;
    if (best_relevant) w.marks[best].consumed = w.gen;
    bool fresh = visited.Insert(expanded.set_hash, expanded.p->members);
    if (fresh) {
      queue_push(expanded);
    } else {
      release_payload(expanded.p);
    }
  }
  for (const Entry& e : queue) release_payload(e.p);
  if (profile != nullptr) {
    profile->seeds_scored += seeds_scored;
    profile->seeds_popped += seeds_popped;
    profile->expansions += expansions;
  }
  // Canonical output order: score descending, ties broken by the member
  // handle list (ascending handles == ascending identifier order in a
  // canonical catalog). Pop order alone is not score-sorted — a relevant
  // neighbor can raise a page's score after lower-scored pages were
  // output (see the monotonicity note in the header) — and equal scores
  // would otherwise order by discovery, which differential comparison and
  // the sharded gather merge both need pinned down.
  std::stable_sort(results.begin(), results.end(),
                   [](const SearchResult& a, const SearchResult& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.fragments < b.fragments;
                   });
  return results;
}

}  // namespace dash::core
