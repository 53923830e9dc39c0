#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "baseline/page_engine.h"
#include "core/dash_engine.h"
#include "core/index_io.h"
#include "core/index_update.h"
#include "core/mr_crawl.h"
#include "core/search_router.h"
#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "testing/chaos.h"
#include "testing/reference_topk.h"
#include "util/string_util.h"
#include "util/tokenizer.h"
#include "webapp/http_server.h"

namespace dash::testing {

namespace {

using core::Crawler;
using core::DashEngine;
using core::FragmentHandle;
using core::FragmentIndexBuild;
using core::SearchResult;

// Catalog + posting fingerprint, the equality relation of the crawl and
// update invariants (same shape as the crawl_equivalence/index_update
// tests, so a fuzz failure reproduces under those suites directly).
std::string Fingerprint(const core::FragmentCatalog& catalog,
                        const core::InvertedFragmentIndex& index) {
  std::string out;
  for (std::size_t f = 0; f < catalog.size(); ++f) {
    out += core::FragmentIdToString(catalog.id(static_cast<FragmentHandle>(f)));
    out += "=";
    out += std::to_string(catalog.keyword_total(static_cast<FragmentHandle>(f)));
    out += ";";
  }
  out += "\n";
  out += index.ToDebugString(catalog);
  return out;
}

std::string Fingerprint(const FragmentIndexBuild& build) {
  return Fingerprint(build.catalog, build.index);
}

// Relative-tolerance float compare: scores travel through identical
// arithmetic on every path, so the tolerance only absorbs association
// differences in multi-term sums.
bool Near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

// Independently re-derived fragment: identifier, token counts, total words.
struct BruteDoc {
  db::Row id;
  std::unordered_map<std::string, std::size_t> counts;
  std::uint64_t words = 0;
};

std::vector<BruteDoc> DeriveBruteDocs(const Crawler& crawler) {
  std::vector<BruteDoc> docs;
  for (const core::Fragment& frag : crawler.DeriveFragments()) {
    BruteDoc doc;
    doc.id = frag.id;
    util::TokenCounter counter;
    for (const db::Row& row : frag.rows) {
      Crawler::CountRowKeywords(row, counter);
    }
    doc.counts.insert(counter.counts().begin(), counter.counts().end());
    doc.words = counter.total();
    docs.push_back(std::move(doc));
  }
  return docs;
}

// Same query normalization as TopKSearcher: tokenize, drop duplicates.
std::vector<std::string> QueryTerms(const std::vector<std::string>& keywords) {
  std::vector<std::string> terms;
  for (const std::string& raw : keywords) {
    for (std::string& tok : util::Tokenize(raw)) {
      if (std::find(terms.begin(), terms.end(), tok) == terms.end()) {
        terms.push_back(std::move(tok));
      }
    }
  }
  return terms;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += " ";
    out += p;
  }
  return out;
}

// The walk under test against the reference walk (reference_topk.h),
// rendered byte for byte: on the whole snapshot with and without a seed
// cap, and on every slice of 2, 3 and 5 shards. Returns the first
// disagreement, or "" when every search agrees.
std::string CompareWithReferenceWalk(const core::IndexSnapshot& snapshot,
                                     const std::vector<std::string>& keywords,
                                     int k, std::uint64_t s) {
  struct Leg {
    std::size_t max_seeds;
    core::ShardSlice slice;
  };
  std::vector<Leg> legs = {{0, {}}, {1, {}}, {3, {}}};
  for (std::size_t count : {2, 3, 5}) {
    for (std::size_t index = 0; index < count; ++index) {
      legs.push_back({0, {index, count}});
    }
  }
  for (const Leg& leg : legs) {
    std::string got = core::SearchService::RenderResults(snapshot.Search(
        keywords, k, s, leg.max_seeds, nullptr, leg.slice));
    std::string want = core::SearchService::RenderResults(ReferenceSearch(
        snapshot, keywords, k, s, leg.max_seeds, leg.slice));
    if (got != want) {
      return "'" + Join(keywords) + "' k=" + std::to_string(k) +
             " s=" + std::to_string(s) +
             " max_seeds=" + std::to_string(leg.max_seeds) + " slice " +
             std::to_string(leg.slice.index) + "/" +
             std::to_string(leg.slice.count) +
             ": search differs from the reference walk\n  search:    " + got +
             "  reference: " + want;
    }
  }
  return "";
}

// Synthesizes a plausible row for `name` against the updater's current
// database state: FK columns point at live parent rows (occasionally
// dangling), category/range columns reuse existing values so the new row
// lands in existing fragments. Shared by the index-update and
// mixed-writes oracles so both drive the same workload shape.
db::Row SynthesizeRow(const RandomInstance& inst, const db::Database& current,
                      const std::string& name, util::SplitMix64& rng) {
  const db::Table& table = current.table(name);
  db::Row row;
  for (const db::Column& col : table.schema().columns()) {
    const db::ForeignKey* fk = nullptr;
    for (const db::ForeignKey& candidate : inst.db.foreign_keys()) {
      if (candidate.from_table == name && candidate.from_column == col.name) {
        fk = &candidate;
      }
    }
    if (fk != nullptr) {
      const db::Table& parent = current.table(fk->to_table);
      if (parent.row_count() > 0 && rng.NextDouble() < 0.9) {
        row.push_back(parent.At(rng.Below(parent.row_count()), fk->to_column));
      } else {
        row.push_back(db::Value(99999));  // dangling
      }
    } else if (table.row_count() > 0 && rng.NextDouble() < 0.7) {
      row.push_back(table.At(rng.Below(table.row_count()), col.name));
    } else if (col.type == db::ValueType::kInt) {
      row.push_back(db::Value(rng.Range(0, 5)));
    } else if (col.type == db::ValueType::kDouble) {
      row.push_back(db::Value(static_cast<double>(rng.Range(10, 99)) / 10.0));
    } else {
      row.push_back(db::Value(Join(SampleKeywords(rng))));
    }
  }
  return row;
}

// URL a single-fragment db-page must advertise, formulated independently
// of the searcher (equality values from the identifier, lo == hi bounds).
std::string BruteUrl(const RandomInstance& inst,
                     const std::vector<sql::SelectionAttribute>& selection,
                     const db::Row& id) {
  std::map<std::string, std::string> params;
  for (std::size_t d = 0; d < selection.size(); ++d) {
    const sql::SelectionAttribute& attr = selection[d];
    if (!attr.is_range) {
      params[attr.eq_parameter] = id[d].ToString();
    } else {
      if (!attr.min_parameter.empty()) params[attr.min_parameter] = id[d].ToString();
      if (!attr.max_parameter.empty()) params[attr.max_parameter] = id[d].ToString();
    }
  }
  return inst.app.UrlFor(params);
}

// Parses a result URL back into typed parameter values (the forward
// direction of query-string parsing — the inverse of what the searcher
// did to formulate it).
bool TypedParams(const RandomInstance& inst, const Crawler& crawler,
                 const std::string& url,
                 std::map<std::string, db::Value>* out, std::string* err) {
  const std::string prefix = inst.app.uri + "?";
  if (url.rfind(prefix, 0) != 0) {
    *err = "url '" + url + "' does not start with '" + prefix + "'";
    return false;
  }
  std::map<std::string, std::string> text =
      inst.app.codec.Parse(url.substr(prefix.size()));
  const auto& selection = crawler.selection();
  const auto& columns = crawler.selection_columns();
  for (std::size_t d = 0; d < selection.size(); ++d) {
    const std::string& qualified = columns[d];
    std::string rel = qualified.substr(0, qualified.find('.'));
    const db::Schema& schema = inst.db.table(rel).schema();
    db::ValueType type =
        schema.column(static_cast<std::size_t>(schema.IndexOf(qualified))).type;
    auto parse_one = [&](const std::string& param) -> bool {
      auto it = text.find(param);
      if (it == text.end()) {
        *err = "url '" + url + "' is missing parameter '" + param + "'";
        return false;
      }
      (*out)[param] = db::Value::Parse(it->second, type);
      return true;
    };
    const sql::SelectionAttribute& attr = selection[d];
    if (!attr.is_range) {
      if (!parse_one(attr.eq_parameter)) return false;
    } else {
      if (!attr.min_parameter.empty() && !parse_one(attr.min_parameter)) return false;
      if (!attr.max_parameter.empty() && !parse_one(attr.max_parameter)) return false;
    }
  }
  return true;
}

}  // namespace

std::string OracleReport::ToString() const {
  std::string out;
  for (const std::string& m : mismatches) {
    out += m;
    out += "\n";
  }
  return out;
}

OracleReport CheckInstance(const RandomInstance& inst,
                           std::uint64_t query_seed,
                           const OracleOptions& options) {
  OracleReport report;
  auto fail = [&](std::string msg) {
    report.mismatches.push_back("[" + inst.summary + "] " + std::move(msg));
  };
  auto guard = [&](const char* what, auto&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      fail(std::string(what) + ": exception: " + e.what());
    }
  };

  util::SplitMix64 rng(query_seed * 0xA24BAED4963EE407ULL +
                       0x9FB21C651E98DF25ULL);

  // ---- Reference build + independently re-derived fragment documents. ----
  std::unique_ptr<Crawler> crawler;
  std::unique_ptr<DashEngine> engine;
  std::vector<BruteDoc> docs;
  std::unordered_map<std::string, std::size_t> df;
  try {
    crawler = std::make_unique<Crawler>(inst.db, inst.app.query);
    core::BuildOptions build_options;
    build_options.algorithm = core::CrawlAlgorithm::kReference;
    engine = std::make_unique<DashEngine>(
        DashEngine::Build(inst.db, inst.app, build_options));
    docs = DeriveBruteDocs(*crawler);
    for (const BruteDoc& doc : docs) {
      for (const auto& [keyword, count] : doc.counts) {
        if (count > 0) ++df[keyword];
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("build: exception: ") + e.what());
    return report;
  }

  const core::FragmentCatalog& catalog = engine->catalog();
  const std::size_t num_eq = inst.num_eq;
  const std::size_t num_range = inst.num_range;

  // Catalog vs brute derivation: same fragments, same identifier order,
  // same keyword totals.
  if (catalog.size() != docs.size()) {
    fail("catalog holds " + std::to_string(catalog.size()) +
         " fragments, brute derivation found " + std::to_string(docs.size()));
    return report;
  }
  for (std::size_t f = 0; f < docs.size(); ++f) {
    auto handle = static_cast<FragmentHandle>(f);
    if (!(catalog.id(handle) == docs[f].id)) {
      fail("fragment " + std::to_string(f) + " identifier mismatch: catalog " +
           core::FragmentIdToString(catalog.id(handle)) + " vs brute " +
           core::FragmentIdToString(docs[f].id));
      return report;
    }
    if (catalog.keyword_total(handle) != docs[f].words) {
      fail("fragment " + core::FragmentIdToString(docs[f].id) +
           " keyword total " + std::to_string(catalog.keyword_total(handle)) +
           " != brute count " + std::to_string(docs[f].words));
    }
  }

  // ---- Invariant: SW crawl == INT crawl == reference crawl. ----
  if (options.check_crawl_equivalence) {
    guard("crawl-equivalence", [&] {
      std::string reference = Fingerprint(catalog, engine->index());
      mr::ClusterConfig config;
      config.block_size_bytes = 4 << 10;
      core::CrawlOptions crawl_options;
      crawl_options.num_reduce_tasks = 1 + static_cast<int>(rng.Below(4));
      mr::Cluster sw_cluster(config);
      core::CrawlResult sw =
          StepwiseCrawl(sw_cluster, inst.db, inst.app.query, crawl_options);
      if (Fingerprint(sw.build) != reference) {
        fail("stepwise crawl index differs from reference crawl");
      }
      mr::Cluster int_cluster(config);
      core::CrawlResult integrated =
          IntegratedCrawl(int_cluster, inst.db, inst.app.query, crawl_options);
      if (Fingerprint(integrated.build) != reference) {
        fail("integrated crawl index differs from reference crawl");
      }
    });
  }

  // ---- Invariant: graph edges == definition-checked combinability. ----
  // Definition (paper VI-A): f—f' iff both share every equality value and
  // the minimal axis-aligned box covering their range values contains no
  // third fragment (boundaries inclusive).
  if (options.check_graph && catalog.size() <= options.max_graph_brute_fragments) {
    guard("graph", [&] {
      const core::FragmentGraph& graph = engine->graph();
      for (std::size_t a = 0; a < docs.size(); ++a) {
        for (std::size_t b = a + 1; b < docs.size(); ++b) {
          bool same_group = true;
          for (std::size_t d = 0; d < num_eq; ++d) {
            if (!(docs[a].id[d] == docs[b].id[d])) {
              same_group = false;
              break;
            }
          }
          bool expected = false;
          if (same_group && num_range > 0) {
            expected = true;
            for (std::size_t c = 0; c < docs.size() && expected; ++c) {
              if (c == a || c == b) continue;
              bool inside = true;
              for (std::size_t d = 0; d < num_eq && inside; ++d) {
                inside = docs[c].id[d] == docs[a].id[d];
              }
              for (std::size_t d = num_eq; d < num_eq + num_range && inside;
                   ++d) {
                const db::Value& lo = docs[a].id[d] < docs[b].id[d]
                                          ? docs[a].id[d]
                                          : docs[b].id[d];
                const db::Value& hi = docs[a].id[d] < docs[b].id[d]
                                          ? docs[b].id[d]
                                          : docs[a].id[d];
                inside = !(docs[c].id[d] < lo) && !(hi < docs[c].id[d]);
              }
              if (inside) expected = false;  // a third fragment in the box
            }
          }
          auto fa = static_cast<FragmentHandle>(a);
          auto fb = static_cast<FragmentHandle>(b);
          auto neighbors = graph.Neighbors(fa);
          bool actual =
              std::find(neighbors.begin(), neighbors.end(), fb) != neighbors.end();
          if (actual != expected) {
            fail("graph edge " + core::FragmentIdToString(docs[a].id) + " -- " +
                 core::FragmentIdToString(docs[b].id) + ": graph says " +
                 (actual ? "yes" : "no") + ", definition says " +
                 (expected ? "yes" : "no"));
          }
        }
      }
    });
  }

  // ---- Invariant: serialized-then-loaded == in-memory. ----
  std::unique_ptr<DashEngine> loaded;
  if (options.check_save_load) {
    guard("save-load", [&] {
      std::stringstream stream;
      core::SaveEngine(*engine, stream);
      loaded = std::make_unique<DashEngine>(core::LoadEngine(stream));
      if (Fingerprint(loaded->catalog(), loaded->index()) !=
          Fingerprint(catalog, engine->index())) {
        fail("loaded index fingerprint differs from the saved engine");
        loaded.reset();
      }
    });
  }

  // ---- ShardedEngine builds (searched inside the query sweep). ----
  std::vector<std::unique_ptr<core::ShardedEngine>> sharded;
  if (options.check_sharded) {
    guard("sharded-build", [&] {
      for (int shards : options.shard_counts) {
        sharded.push_back(std::make_unique<core::ShardedEngine>(
            inst.app, crawler->BuildIndex(), shards));
        if (sharded.back()->fragment_count() != catalog.size()) {
          fail("sharding into " + std::to_string(shards) + " shards kept " +
               std::to_string(sharded.back()->fragment_count()) + " of " +
               std::to_string(catalog.size()) + " fragments");
        }
      }
    });
  }

  // ---- PageEngine (the intuitive whole-page baseline). ----
  std::unique_ptr<baseline::PageEngine> pages;
  if (options.check_page_engine && num_range <= 1) {
    guard("page-engine-build", [&] {
      pages = std::make_unique<baseline::PageEngine>(inst.db, inst.app);
    });
  }

  // ---- Query sweep: three answer paths + serving invariants. ----
  if (options.check_search) {
    const auto& selection = crawler->selection();
    std::vector<std::string> previous_keywords;
    for (int q = 0; q < options.queries_per_instance; ++q) {
      std::vector<std::string> keywords = SampleKeywords(rng);
      static const int kChoices[] = {1, 2, 3, 5, 10, 25};
      static const std::uint64_t kSizes[] = {1, 4, 15, 60, 250, 100000};
      int k = kChoices[rng.Below(std::size(kChoices))];
      std::uint64_t s = kSizes[rng.Below(std::size(kSizes))];
      std::string ctx = "query '" + Join(keywords) + "' k=" + std::to_string(k);

      // (1) s=0 disables expansion: Dash must return exactly the top-k
      // relevant fragments by (score desc, fragment asc) — recomputed here
      // from raw token counts.
      guard("fragment-topk", [&] {
        std::vector<std::string> terms = QueryTerms(keywords);
        std::vector<std::pair<double, FragmentHandle>> brute;
        for (std::size_t f = 0; f < docs.size(); ++f) {
          if (docs[f].words == 0) continue;
          double score = 0;
          bool relevant = false;
          for (const std::string& t : terms) {
            auto it = docs[f].counts.find(t);
            if (it == docs[f].counts.end() || it->second == 0) continue;
            relevant = true;
            score += (1.0 / static_cast<double>(df.at(t))) *
                     static_cast<double>(it->second) /
                     static_cast<double>(docs[f].words);
          }
          if (relevant) {
            brute.emplace_back(score, static_cast<FragmentHandle>(f));
          }
        }
        std::sort(brute.begin(), brute.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        if (brute.size() > static_cast<std::size_t>(k)) {
          brute.resize(static_cast<std::size_t>(k));
        }
        auto results = engine->Search(keywords, k, 0);
        if (results.size() != brute.size()) {
          fail(ctx + " s=0: Dash returned " + std::to_string(results.size()) +
               " pages, brute force " + std::to_string(brute.size()));
          return;
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
          const SearchResult& r = results[i];
          auto [score, f] = brute[i];
          if (r.fragments != std::vector<FragmentHandle>{f}) {
            fail(ctx + " s=0 rank " + std::to_string(i) +
                 ": Dash page != brute fragment " +
                 core::FragmentIdToString(docs[f].id));
            return;
          }
          if (!Near(r.score, score)) {
            fail(ctx + " s=0 rank " + std::to_string(i) + ": Dash score " +
                 std::to_string(r.score) + " != brute score " +
                 std::to_string(score));
          }
          std::string url = BruteUrl(inst, selection, docs[f].id);
          if (r.url != url) {
            fail(ctx + " s=0 rank " + std::to_string(i) + ": Dash url '" +
                 r.url + "' != brute url '" + url + "'");
          }
        }

        // Equality-only instances: page universe == fragment universe, so
        // the whole-page baseline must return the identical ranking.
        if (pages != nullptr && num_range == 0) {
          auto baseline_results = pages->Search(keywords, k);
          if (baseline_results.size() != results.size()) {
            fail(ctx + " eq-only: PageEngine returned " +
                 std::to_string(baseline_results.size()) + " pages, Dash " +
                 std::to_string(results.size()));
            return;
          }
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (baseline_results[i].url != results[i].url ||
                !Near(baseline_results[i].score, results[i].score)) {
              fail(ctx + " eq-only rank " + std::to_string(i) +
                   ": PageEngine (" + baseline_results[i].url + ", " +
                   std::to_string(baseline_results[i].score) + ") != Dash (" +
                   results[i].url + ", " + std::to_string(results[i].score) +
                   ")");
            }
          }
        }
      });

      // (2) Expanding searches: every result must replay — its URL, fed
      // back through query-string parsing and brute-force page
      // materialization, must produce the content the searcher scored.
      guard("page-replay", [&] {
        std::vector<std::string> terms = QueryTerms(keywords);
        auto results = engine->Search(keywords, k, s);
        std::string sctx = ctx + " s=" + std::to_string(s);
        std::set<FragmentHandle> used;
        for (std::size_t i = 0; i < results.size(); ++i) {
          const SearchResult& r = results[i];
          std::string rctx = sctx + " rank " + std::to_string(i);
          if (r.fragments.empty() ||
              !std::is_sorted(r.fragments.begin(), r.fragments.end())) {
            fail(rctx + ": member list empty or unsorted");
            continue;
          }
          for (FragmentHandle f : r.fragments) {
            if (!used.insert(f).second) {
              fail(rctx + ": fragment " +
                   core::FragmentIdToString(docs[f].id) +
                   " appears in two results (overlapped contents)");
            }
          }
          // Contiguity + group membership (interval pages for <= 1 range).
          const core::FragmentGraph& graph = engine->graph();
          for (std::size_t m = 1; m < r.fragments.size(); ++m) {
            if (graph.GroupOf(r.fragments[m]) != graph.GroupOf(r.fragments[0])) {
              fail(rctx + ": members span two equality groups");
            }
            if (num_range <= 1 &&
                r.fragments[m] != r.fragments[m - 1] + 1) {
              fail(rctx + ": interval page has a gap at member " +
                   std::to_string(m));
            }
          }
          // Size and score against the brute-force token counts.
          std::uint64_t words = 0;
          std::unordered_map<std::string, std::size_t> member_counts;
          for (FragmentHandle f : r.fragments) {
            words += docs[f].words;
            for (const auto& [keyword, count] : docs[f].counts) {
              member_counts[keyword] += count;
            }
          }
          if (words != r.size_words) {
            fail(rctx + ": size_words " + std::to_string(r.size_words) +
                 " != brute total " + std::to_string(words));
          }
          double score = 0;
          std::size_t occ_total = 0;
          for (const std::string& t : terms) {
            auto it = member_counts.find(t);
            if (it == member_counts.end() || words == 0) continue;
            occ_total += it->second;
            score += (1.0 / static_cast<double>(df.at(t))) *
                     static_cast<double>(it->second) /
                     static_cast<double>(words);
          }
          if (occ_total == 0) {
            fail(rctx + ": result page contains no queried keyword");
          }
          if (!Near(score, r.score)) {
            fail(rctx + ": score " + std::to_string(r.score) +
                 " != brute recomputation " + std::to_string(score));
          }
          // Undersized output is only legal when the group is exhausted.
          if (num_range <= 1 && r.size_words < s) {
            auto [first, last] = graph.GroupSpan(graph.GroupOf(r.fragments[0]));
            if (r.fragments.size() != static_cast<std::size_t>(last - first + 1)) {
              fail(rctx + ": undersized page (" +
                   std::to_string(r.size_words) + " < s=" + std::to_string(s) +
                   ") but its group is not exhausted");
            }
          }
          // URL replay through EvalPage.
          std::map<std::string, db::Value> params;
          std::string err;
          if (!TypedParams(inst, *crawler, r.url, &params, &err)) {
            fail(rctx + ": " + err);
            continue;
          }
          db::Table page = crawler->EvalPage(params);
          util::TokenCounter page_counter;
          for (const db::Row& row : page.rows()) {
            Crawler::CountRowKeywords(row, page_counter);
          }
          if (num_range <= 1) {
            // Interval pages are box-closed: the materialized db-page is
            // exactly the member union.
            if (page_counter.total() != words ||
                page_counter.counts() != member_counts) {
              fail(rctx + ": materialized page for '" + r.url +
                   "' has different content than the " +
                   std::to_string(r.fragments.size()) +
                   " member fragments (page " +
                   std::to_string(page_counter.total()) + " words vs " +
                   std::to_string(words) + ")");
            }
          } else {
            // Two range attributes: the documented page model is "members
            // inside the parameter box" — demand containment.
            if (page_counter.total() < words) {
              fail(rctx + ": materialized page for '" + r.url + "' has " +
                   std::to_string(page_counter.total()) +
                   " words, fewer than its members' " + std::to_string(words));
            }
            for (const auto& [keyword, count] : member_counts) {
              auto it = page_counter.counts().find(keyword);
              std::size_t have = it == page_counter.counts().end() ? 0 : it->second;
              if (have < count) {
                fail(rctx + ": materialized page undercounts keyword '" +
                     keyword + "' (" + std::to_string(have) + " < " +
                     std::to_string(count) + ")");
              }
            }
          }

          // Members outside the page's own enumeration universe: for <= 1
          // range attribute every result URL must name a page the
          // whole-page baseline also materialized, with the same size.
          if (pages != nullptr) {
            auto all = pages->Search(keywords, -1);
            bool found = false;
            for (const auto& p : all) {
              if (p.url == r.url) {
                found = true;
                if (p.size_words != r.size_words) {
                  fail(rctx + ": PageEngine materialized '" + r.url +
                       "' with " + std::to_string(p.size_words) +
                       " words, Dash reports " + std::to_string(r.size_words));
                }
                break;
              }
            }
            if (!found) {
              fail(rctx + ": url '" + r.url +
                   "' is not a page the whole-page baseline enumerates");
            }
          }
        }

        // (3) Invariant: ShardedEngine == unsharded. Truncated searches
        // (small k) are only guaranteed equal without expansion (s=0):
        // with s>0 a score-raising expansion a shard reaches before
        // filling its k can legitimately be missed by the global
        // best-first search (the monotonicity edge case in
        // sharded_engine.h). Exhaustive searches (k > catalog size) have
        // no truncation boundary, so there the full lists must agree
        // under the canonical order — for any s.
        int k_full = static_cast<int>(catalog.size()) + 1;
        auto full = engine->Search(keywords, k_full, s);
        auto topk_s0 = engine->Search(keywords, k, 0);
        for (std::size_t e = 0; e < sharded.size(); ++e) {
          for (bool exhaustive : {false, true}) {
            int sk = exhaustive ? k_full : k;
            std::uint64_t ss = exhaustive ? s : 0;
            const auto& expect = exhaustive ? full : topk_s0;
            auto sr = sharded[e]->Search(keywords, sk, ss);
            std::string mode = std::to_string(options.shard_counts[e]) +
                               "-shard " +
                               (exhaustive ? "exhaustive" : "s=0") + " search";
            if (sr.size() != expect.size()) {
              fail(sctx + ": " + mode + " returned " +
                   std::to_string(sr.size()) + " pages, unsharded " +
                   std::to_string(expect.size()));
              continue;
            }
            for (std::size_t i = 0; i < expect.size(); ++i) {
              if (sr[i].url != expect[i].url ||
                  sr[i].size_words != expect[i].size_words ||
                  !Near(sr[i].score, expect[i].score)) {
                fail(sctx + " rank " + std::to_string(i) + ": " + mode +
                     " (" + sr[i].url + ", " + std::to_string(sr[i].score) +
                     ") != unsharded (" + expect[i].url + ", " +
                     std::to_string(expect[i].score) + ")");
                break;
              }
            }
          }
        }

        // (4) Invariant: loaded engine == in-memory engine, per query.
        if (loaded != nullptr) {
          auto lr = loaded->Search(keywords, k, s);
          if (lr.size() != results.size()) {
            fail(sctx + ": loaded engine returned " +
                 std::to_string(lr.size()) + " pages, in-memory " +
                 std::to_string(results.size()));
          } else {
            for (std::size_t i = 0; i < results.size(); ++i) {
              if (lr[i].url != results[i].url ||
                  lr[i].fragments != results[i].fragments ||
                  !Near(lr[i].score, results[i].score)) {
                fail(sctx + " rank " + std::to_string(i) +
                     ": loaded engine result differs from in-memory");
                break;
              }
            }
          }
        }
      });

      // (5) The lazily seeded walk == the eager reference walk, byte for
      // byte, on this query and (multi-term) on it joined with the
      // previous one.
      guard("reference-walk", [&] {
        std::vector<std::string> joined = keywords;
        joined.insert(joined.end(), previous_keywords.begin(),
                      previous_keywords.end());
        for (const auto& query : {keywords, joined}) {
          std::string diff =
              CompareWithReferenceWalk(*engine->snapshot(), query, k, s);
          if (!diff.empty()) {
            fail(diff);
            return;
          }
        }
      });
      previous_keywords = keywords;
    }
  }

  // ---- Invariant: incremental index_update == full rebuild. ----
  if (options.check_updates) {
    guard("index-update", [&] {
      core::UpdatableIndex updatable(inst.db, inst.app.query);
      std::vector<std::string> tables = inst.db.TableNames();
      for (int op = 0; op < options.update_ops; ++op) {
        // Invariant: publish-then-search == search-then-publish. Snapshots
        // are immutable once published, so a probe answered before an
        // update must be answered byte-identically by the *same* snapshot
        // after the update has published a successor.
        core::SnapshotPtr pre = updatable.snapshot();
        std::vector<std::string> probe = SampleKeywords(rng);
        auto pre_results = pre->Search(probe, 5, 20);

        const std::string& name = tables[rng.Below(tables.size())];
        const db::Table& table = updatable.database().table(name);
        bool insert = table.row_count() == 0 || rng.NextDouble() < 0.6;
        std::string what;
        if (insert) {
          updatable.Insert(
              name, SynthesizeRow(inst, updatable.database(), name, rng));
          what = "insert into " + name;
        } else {
          const db::Row& victim = table.rows()[rng.Below(table.row_count())];
          db::Row copy = victim;
          updatable.Delete(name, copy);
          what = "delete from " + name;
        }
        auto replay = pre->Search(probe, 5, 20);
        bool frozen = replay.size() == pre_results.size();
        for (std::size_t i = 0; frozen && i < replay.size(); ++i) {
          frozen = replay[i].url == pre_results[i].url &&
                   replay[i].fragments == pre_results[i].fragments &&
                   replay[i].score == pre_results[i].score;
        }
        if (!frozen) {
          fail("after " + what + " (op " + std::to_string(op) +
               "): the pre-update snapshot's answer for '" + Join(probe) +
               "' changed — published snapshots must be immutable");
          return;
        }
        if (updatable.snapshot()->generation() <= pre->generation()) {
          fail("after " + what + " (op " + std::to_string(op) +
               "): published generation did not increase (" +
               std::to_string(updatable.snapshot()->generation()) + " vs " +
               std::to_string(pre->generation()) + ")");
          return;
        }

        Crawler rebuilt(updatable.database(), inst.app.query);
        if (Fingerprint(updatable.build().catalog, updatable.build().index) !=
            Fingerprint(rebuilt.BuildIndex())) {
          fail("after " + what + " (op " + std::to_string(op) +
               "): incremental index differs from a full rebuild");
          return;
        }
      }
      // The updated snapshot must also *search* like a fresh build.
      core::BuildOptions build_options;
      build_options.algorithm = core::CrawlAlgorithm::kReference;
      DashEngine updated =
          DashEngine::FromParts(inst.app, updatable.CopyBuild());
      DashEngine fresh =
          DashEngine::Build(updatable.database(), inst.app, build_options);
      for (int probe = 0; probe < 2; ++probe) {
        std::vector<std::string> keywords = SampleKeywords(rng);
        auto a = updated.Search(keywords, 5, 20);
        auto b = fresh.Search(keywords, 5, 20);
        bool equal = a.size() == b.size();
        for (std::size_t i = 0; equal && i < a.size(); ++i) {
          equal = a[i].url == b[i].url && a[i].fragments == b[i].fragments &&
                  Near(a[i].score, b[i].score);
        }
        if (!equal) {
          fail("updated snapshot search for '" + Join(keywords) +
               "' differs from a fresh build");
        }
      }
    });
  }

  // ---- Invariant: segmented serving under sustained mixed writes. ----
  // Drives an UpdatableIndex through an interleaved insert/delete/search
  // workload long enough to accumulate multiple delta segments and
  // compactions, checking after every op that
  //   (a) the live multi-segment snapshot answers exactly like a fresh
  //       rebuild of the current database (so tombstone-then-search ==
  //       search-without-doc, and shadowing resolves to the newest
  //       definition),
  //   (b) with check_sharded, every ShardedEngine view of that snapshot
  //       (the multi-segment sharding path) answers exactly like it, and
  //       its per-shard term statistics add up to the rebuilt index's, and
  //   (c) merge(A, B) == rebuild(A ∪ B): folding the two newest segments
  //       with MergeSegments yields a snapshot with an identical live
  //       fingerprint and identical answers — compaction can never change
  //       what readers see, only when it happens.
  if (options.check_mixed_writes) {
    guard("mixed-writes", [&] {
      core::UpdatableIndex updatable(inst.db, inst.app);
      std::vector<std::string> tables = inst.db.TableNames();
      core::BuildOptions build_options;
      build_options.algorithm = core::CrawlAlgorithm::kReference;
      for (int op = 0; op < options.mixed_write_ops; ++op) {
        const std::string& name = tables[rng.Below(tables.size())];
        const db::Table& table = updatable.database().table(name);
        bool insert = table.row_count() == 0 || rng.NextDouble() < 0.55;
        std::string what;
        if (insert) {
          updatable.Insert(
              name, SynthesizeRow(inst, updatable.database(), name, rng));
          what = "insert into " + name;
        } else {
          db::Row victim = table.rows()[rng.Below(table.row_count())];
          updatable.Delete(name, victim);
          what = "delete from " + name;
        }
        std::string ctx = "mixed op " + std::to_string(op) + " (" + what +
                          ", " + std::to_string(updatable.segment_count()) +
                          " segments)";

        core::SnapshotPtr snap = updatable.snapshot();
        std::vector<std::string> keywords = SampleKeywords(rng);
        auto live = snap->Search(keywords, 5, 20);

        // (a) Segmented gather == fresh rebuild of the current state.
        DashEngine fresh =
            DashEngine::Build(updatable.database(), inst.app, build_options);
        auto want = fresh.Search(keywords, 5, 20);
        bool equal = live.size() == want.size();
        for (std::size_t i = 0; equal && i < live.size(); ++i) {
          equal = live[i].url == want[i].url &&
                  live[i].fragments == want[i].fragments &&
                  Near(live[i].score, want[i].score);
        }
        if (!equal) {
          fail(ctx + ": segmented search for '" + Join(keywords) +
               "' differs from a fresh rebuild");
          return;
        }

        // Lazily seeded walk over the gathered segments == the eager
        // reference walk, on the snapshot and on its slices.
        std::string diff = CompareWithReferenceWalk(*snap, keywords, 5, 20);
        if (!diff.empty()) {
          fail(ctx + ": " + diff);
          return;
        }

        // (b) Sharding the live (possibly multi-segment) snapshot keeps
        // the answer: exhaustive-k sharded search renders byte-identically
        // to the segmented search (the sharded invariant's rule — no
        // truncation boundary, so any s), and merging the per-shard legs
        // reproduces the sharded search, as a router's gather would.
        if (options.check_sharded) {
          const int k_full = static_cast<int>(snap->catalog().size()) + 1;
          const std::string expect = core::SearchService::RenderResults(
              snap->Search(keywords, k_full, 20));
          for (int shards : options.shard_counts) {
            core::ShardedEngine sharded_view(snap, shards);
            const std::string got = core::SearchService::RenderResults(
                sharded_view.Search(keywords, k_full, 20));
            std::string mode = std::to_string(shards) + "-shard view";
            if (got != expect) {
              fail(ctx + ": " + mode + " exhaustive search for '" +
                   Join(keywords) + "' differs from the segmented search");
              return;
            }
            std::vector<std::vector<SearchResult>> legs;
            for (std::size_t s = 0; s < sharded_view.shard_count(); ++s) {
              legs.push_back(
                  sharded_view.SearchShard(s, keywords, k_full, 20));
            }
            if (core::SearchService::RenderResults(
                    core::ShardedEngine::MergeShardResults(std::move(legs),
                                                           k_full)) != got) {
              fail(ctx + ": " + mode + " merged shard legs for '" +
                   Join(keywords) + "' differ from its Search");
              return;
            }
            // The /shardstats input over the same slices: per query token,
            // the shards' dfs sum to the rebuilt index's df and their
            // largest max_occurrences is the rebuilt index's maximum.
            for (const std::string& token : QueryTerms(keywords)) {
              std::uint64_t df = 0;
              std::uint32_t max_occurrences = 0;
              for (std::size_t s = 0; s < sharded_view.shard_count(); ++s) {
                core::ShardTermStats stats = sharded_view.TermStats(token, s);
                df += stats.df;
                max_occurrences =
                    std::max(max_occurrences, stats.max_occurrences);
              }
              std::uint32_t want_max = 0;
              for (const core::Posting& p : fresh.index().Lookup(token)) {
                want_max = std::max(want_max, p.occurrences);
              }
              if (df != fresh.index().Df(token) ||
                  max_occurrences != want_max) {
                fail(ctx + ": " + mode + " shard stats for '" + token +
                     "' (df " + std::to_string(df) + ", max " +
                     std::to_string(max_occurrences) +
                     ") differ from the rebuilt index (df " +
                     std::to_string(fresh.index().Df(token)) + ", max " +
                     std::to_string(want_max) + ")");
                return;
              }
            }
          }
        }

        // (c) Folding the newest pair must be invisible to readers.
        if (snap->segment_count() >= 2) {
          std::vector<core::SegmentPtr> folded(snap->segments());
          core::SegmentPtr merged = core::MergeSegments(
              *folded[folded.size() - 2], *folded.back(),
              /*drop_tombstones=*/folded.size() == 2);
          folded.pop_back();
          folded.back() = std::move(merged);
          core::SnapshotPtr alt =
              core::IndexSnapshot::CreateSegmented(inst.app, folded);
          if (Fingerprint(snap->MergedBuild()) !=
              Fingerprint(alt->MergedBuild())) {
            fail(ctx + ": merging the two newest segments changed the live "
                       "fingerprint");
            return;
          }
          auto merged_results = alt->Search(keywords, 5, 20);
          equal = merged_results.size() == live.size();
          for (std::size_t i = 0; equal && i < live.size(); ++i) {
            equal = merged_results[i].url == live[i].url &&
                    merged_results[i].fragments == live[i].fragments &&
                    merged_results[i].score == live[i].score;
          }
          if (!equal) {
            fail(ctx + ": merging the two newest segments changed the "
                       "answer for '" + Join(keywords) + "'");
            return;
          }
        }
      }
      // Full-state closure: the final segmented state fingerprints equal
      // to a from-scratch rebuild (merge ≡ rebuild over the whole run).
      Crawler rebuilt(updatable.database(), inst.app.query);
      if (Fingerprint(updatable.build().catalog, updatable.build().index) !=
          Fingerprint(rebuilt.BuildIndex())) {
        fail("after mixed-writes run: incremental segmented index differs "
             "from a full rebuild");
      }
    });
  }

  // ---- Invariant: the HTTP serving tier == the engine, byte for byte. ----
  // A SearchServer over the engine's own snapshot must answer every query
  // with exactly RenderResults of the direct engine answer — same bytes,
  // same generation header. This closes the loop across the whole serving
  // stack: socket transport, wire parsing, query-param decoding, and the
  // service's engine binding.
  if (options.check_server) {
    guard("server-vs-engine", [&] {
      core::ServeOptions serve_options;
      serve_options.num_workers = 2;
      core::SearchServer server(engine->snapshot(), serve_options);
      try {
        server.Start();
      } catch (const std::exception&) {
        return;  // no loopback networking here; the invariant is untestable
      }
      static const int kChoices[] = {1, 3, 10, 25};
      static const std::uint64_t kSizes[] = {0, 5, 80, 100000};
      for (int q = 0; q < options.server_queries; ++q) {
        std::vector<std::string> keywords = SampleKeywords(rng);
        int k = kChoices[rng.Below(std::size(kChoices))];
        std::uint64_t s = kSizes[rng.Below(std::size(kSizes))];
        std::string target = "/search";
        char sep = '?';
        for (const std::string& kw : keywords) {
          target += sep;
          sep = '&';
          target += "q=" + util::UrlEncode(kw);
        }
        target += "&k=" + std::to_string(k) + "&s=" + std::to_string(s);
        std::string ctx = "served query '" + Join(keywords) +
                          "' k=" + std::to_string(k) +
                          " s=" + std::to_string(s);
        auto response = webapp::FetchOverLoopback(server.port(), target);
        if (!response.has_value()) {
          fail(ctx + ": no response over loopback");
          continue;
        }
        if (response->status != 200) {
          fail(ctx + ": status " + std::to_string(response->status) +
               " != 200");
          continue;
        }
        std::string expected = core::SearchService::RenderResults(
            engine->Search(keywords, k, s));
        if (response->body != expected) {
          fail(ctx + ": served body differs from the direct engine " +
               "rendering (" + std::to_string(response->body.size()) +
               " vs " + std::to_string(expected.size()) + " bytes)");
        }
        auto generation = response->headers.find("X-Dash-Generation");
        std::string want_generation =
            std::to_string(engine->snapshot()->generation());
        if (generation == response->headers.end() ||
            generation->second != want_generation) {
          fail(ctx + ": X-Dash-Generation header missing or != " +
               want_generation);
        }
      }
      server.Stop();
    });
  }

  // ---- Invariant: the replicated-shard cluster degrades exactly. ----
  // Zero failures: a router over N in-process shard nodes must answer
  // byte-identically to the single-process ShardedEngine over the same
  // snapshot, with full coverage and zero generation skew. Each node is a
  // shard-node SearchService, so every leg runs the real /search handler
  // and the router's reply decoder: the identity covers the wire encoding,
  // including the empty replies of shards that hold no query token.
  if (options.check_cluster) {
    static const int kChoices[] = {1, 3, 10, 25};
    static const std::uint64_t kSizes[] = {0, 5, 80, 100000};
    auto routed_request = [](const std::vector<std::string>& keywords, int k,
                             std::uint64_t s) {
      std::string target = "/search";
      char sep = '?';
      for (const std::string& kw : keywords) {
        target += sep;
        sep = '&';
        target += "q=" + util::UrlEncode(kw);
      }
      target += "&k=" + std::to_string(k) + "&s=" + std::to_string(s);
      return webapp::ParseUrl(target);
    };
    guard("cluster-vs-engine", [&] {
      ClusterOptions cluster_options;
      cluster_options.shards = options.cluster_shards;
      cluster_options.replicas = 1 + static_cast<int>(rng.Below(2));
      cluster_options.chaos_seed = rng.Next();
      TestCluster cluster(engine->snapshot(), cluster_options);
      const std::string full_coverage =
          std::to_string(cluster_options.shards) + "/" +
          std::to_string(cluster_options.shards);
      const std::string want_generation =
          std::to_string(engine->snapshot()->generation());
      for (int q = 0; q < options.cluster_queries; ++q) {
        std::vector<std::string> keywords = SampleKeywords(rng);
        int k = kChoices[rng.Below(std::size(kChoices))];
        std::uint64_t s = kSizes[rng.Below(std::size(kSizes))];
        std::string ctx = "routed query '" + Join(keywords) +
                          "' k=" + std::to_string(k) +
                          " s=" + std::to_string(s);
        webapp::HttpResponse response = cluster.service().Handle(
            routed_request(keywords, k, s), std::chrono::steady_clock::now());
        if (response.status != 200) {
          fail(ctx + ": status " + std::to_string(response.status) +
               " != 200 with zero failures");
          continue;
        }
        std::string expected = core::SearchService::RenderResults(
            cluster.reference().Search(keywords, k, s));
        if (response.body != expected) {
          fail(ctx + ": routed body differs from the single-process " +
               "ShardedEngine rendering (" +
               std::to_string(response.body.size()) + " vs " +
               std::to_string(expected.size()) + " bytes)");
        }
        auto coverage = response.headers.find("X-Dash-Shards-Answered");
        if (coverage == response.headers.end() ||
            coverage->second != full_coverage) {
          fail(ctx + ": X-Dash-Shards-Answered missing or != " +
               full_coverage);
        }
        auto generation_min = response.headers.find("X-Dash-Generation-Min");
        auto generation_max = response.headers.find("X-Dash-Generation-Max");
        if (generation_min == response.headers.end() ||
            generation_max == response.headers.end() ||
            generation_min->second != want_generation ||
            generation_max->second != want_generation) {
          fail(ctx + ": generation min/max headers missing or != " +
               want_generation + " (in-sync replicas must not skew)");
        }
      }
    });
    // Bounded degradation: with f of the shards' only replicas dead, the
    // router must answer with exactly the merge of the f-complement's
    // local top-k lists — never an error, never a result a dead shard
    // owned, and the coverage header must say (t-f)/t.
    guard("cluster-degradation", [&] {
      const int shards = options.cluster_shards;
      const int f =
          1 + static_cast<int>(rng.Below(static_cast<std::uint64_t>(
                  shards - 1)));
      ClusterOptions cluster_options;
      cluster_options.shards = shards;
      cluster_options.replicas = 1;
      cluster_options.chaos.dead_replicas = f;
      cluster_options.chaos_seed = rng.Next();
      TestCluster cluster(engine->snapshot(), cluster_options);
      if (cluster.plan().DeadShardCount() != f) {
        fail("chaos plan killed " +
             std::to_string(cluster.plan().DeadShardCount()) +
             " shards, wanted " + std::to_string(f));
        return;
      }
      const std::string coverage_want =
          std::to_string(shards - f) + "/" + std::to_string(shards);
      for (int q = 0; q < options.cluster_queries; ++q) {
        std::vector<std::string> keywords = SampleKeywords(rng);
        int k = kChoices[rng.Below(std::size(kChoices))];
        std::uint64_t s = kSizes[rng.Below(std::size(kSizes))];
        std::string ctx = "degraded query '" + Join(keywords) +
                          "' k=" + std::to_string(k) +
                          " s=" + std::to_string(s) + " f=" +
                          std::to_string(f);
        webapp::HttpResponse response = cluster.service().Handle(
            routed_request(keywords, k, s), std::chrono::steady_clock::now());
        if (response.status != 200) {
          fail(ctx + ": status " + std::to_string(response.status) +
               " != 200 (degradation must not be an error)");
          continue;
        }
        std::vector<std::vector<SearchResult>> survivors;
        for (int shard = 0; shard < shards; ++shard) {
          if (cluster.plan().at(shard, 0).dead) continue;
          survivors.push_back(cluster.reference().SearchShard(
              static_cast<std::size_t>(shard), keywords, k, s));
        }
        std::string expected = core::SearchService::RenderResults(
            core::ShardedEngine::MergeShardResults(std::move(survivors),
                                                   k));
        if (response.body != expected) {
          fail(ctx + ": degraded body differs from the exact merge of " +
               "the surviving shards");
        }
        auto coverage = response.headers.find("X-Dash-Shards-Answered");
        if (coverage == response.headers.end() ||
            coverage->second != coverage_want) {
          fail(ctx + ": X-Dash-Shards-Answered missing or != " +
               coverage_want);
        }
        if (!response.headers.contains("X-Dash-Degraded")) {
          fail(ctx + ": X-Dash-Degraded header missing");
        }
      }
    });
  }

  return report;
}

}  // namespace dash::testing
