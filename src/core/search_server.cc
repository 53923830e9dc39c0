#include "core/search_server.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "util/string_util.h"
#include "util/tokenizer.h"

namespace dash::core {

namespace {

// %.17g round-trips every double exactly and is locale-free, so the
// rendering is byte-stable across runs, shards, and cache hits — the
// property the server≡engine oracle depends on.
std::string FormatScore(double score) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}

// Reply-field escaping (RenderResults). Percent-encodes, as "%xx" in
// lowercase hex, exactly the bytes that would break the line format: '%'
// itself, the field and line separators (TAB, CR, LF) anywhere, plus the
// caller's `reserved` separators — ";=" in a parameter name, ";" in a
// value. Every other byte passes through, so a field without those bytes
// renders as itself.
void AppendEscaped(std::string* out, std::string_view text,
                   std::string_view reserved) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : text) {
    if (c == '%' || c == '\t' || c == '\r' || c == '\n' ||
        reserved.find(c) != std::string_view::npos) {
      auto byte = static_cast<unsigned char>(c);
      *out += '%';
      *out += kHex[byte >> 4];
      *out += kHex[byte & 15];
    } else {
      *out += c;
    }
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Inverse of AppendEscaped; false on a '%' not followed by two hex digits.
bool Unescape(std::string_view text, std::string* out) {
  out->clear();
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      *out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) return false;
    int hi = HexDigit(text[i + 1]);
    int lo = HexDigit(text[i + 2]);
    if (hi < 0 || lo < 0) return false;
    *out += static_cast<char>(hi << 4 | lo);
    i += 2;
  }
  return true;
}

// Parses a decimal integer query parameter into `*out`; false on garbage
// or a value outside [min, max].
bool ParseBoundedInt(const std::string& text, std::int64_t min,
                     std::int64_t max, std::int64_t* out) {
  std::int64_t value = 0;
  if (!util::ParseInt64(text, &value)) return false;
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

}  // namespace

webapp::HttpResponse TextResponse(int status, std::string body) {
  webapp::HttpResponse response;
  response.status = status;
  response.headers["Content-Type"] = "text/plain; charset=utf-8";
  response.body = std::move(body);
  return response;
}

const char* ParseSearchQuery(const webapp::HttpRequest& request,
                             int default_k, std::uint64_t default_s,
                             SearchQuery* query) {
  std::int64_t k = default_k;
  auto s = static_cast<std::int64_t>(default_s);
  for (auto& [field, value] :
       webapp::ParseQueryParams(request.EffectiveQueryString())) {
    if (field == "q") {
      query->keywords.push_back(std::move(value));
    } else if (field == "k") {
      if (!ParseBoundedInt(value, 1, 100000, &k)) return "bad k parameter\n";
    } else if (field == "s") {
      if (!ParseBoundedInt(value, 0, std::int64_t{1} << 62, &s)) {
        return "bad s parameter\n";
      }
    }
  }
  if (query->keywords.empty()) return "missing q parameter\n";
  query->k = static_cast<int>(k);
  query->min_page_words = static_cast<std::uint64_t>(s);
  return nullptr;
}

SearchService::SearchService(const SnapshotPublisher& publisher,
                             const ServeOptions& options)
    : publisher_(&publisher),
      options_(options),
      cache_(options.cache_capacity > 0
                 ? std::make_unique<ResultCache>(options.cache_capacity)
                 : nullptr) {}

std::string SearchService::RenderResults(
    const std::vector<SearchResult>& results) {
  std::string out = "results " + std::to_string(results.size()) + "\n";
  for (const SearchResult& r : results) {
    out += "R\t";
    out += FormatScore(r.score);
    out += '\t';
    out += std::to_string(r.size_words);
    out += '\t';
    AppendEscaped(&out, r.url, "");
    out += '\t';
    for (std::size_t i = 0; i < r.fragments.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(r.fragments[i]);
    }
    out += '\t';
    bool first = true;
    for (const auto& [name, value] : r.params) {
      if (!first) out += ';';
      first = false;
      AppendEscaped(&out, name, ";=");
      out += '=';
      AppendEscaped(&out, value, ";");
    }
    out += '\n';
  }
  return out;
}

std::optional<std::vector<SearchResult>> SearchService::ParseRenderedResults(
    const std::string& body) {
  std::size_t pos = body.find('\n');
  if (pos == std::string::npos) return std::nullopt;
  std::string_view header(body.data(), pos);
  constexpr std::string_view kPrefix = "results ";
  if (header.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  std::int64_t count = 0;
  if (!util::ParseInt64(header.substr(kPrefix.size()), &count) || count < 0) {
    return std::nullopt;
  }
  // The count comes off the wire: a count beyond the lines present is
  // malformed, and rejecting it before the reserve means a hostile
  // header cannot size the allocation.
  const auto lines = static_cast<std::int64_t>(
      std::count(body.begin() + static_cast<std::ptrdiff_t>(pos + 1),
                 body.end(), '\n'));
  if (count > lines) return std::nullopt;
  std::vector<SearchResult> results;
  results.reserve(static_cast<std::size_t>(count));
  std::size_t cursor = pos + 1;
  for (std::int64_t i = 0; i < count; ++i) {
    std::size_t eol = body.find('\n', cursor);
    if (eol == std::string::npos) return std::nullopt;
    std::string_view line(body.data() + cursor, eol - cursor);
    cursor = eol + 1;
    // Exactly six tab-separated fields: tag, score, words, url, fragment
    // handles, parameters. RenderResults escapes every tab, newline and
    // separator inside the url and parameters, so a flat split followed by
    // unescaping each piece is the exact inverse.
    std::array<std::string_view, 6> f;
    std::size_t field = 0;
    std::size_t start = 0;
    for (std::size_t j = 0; j <= line.size(); ++j) {
      if (j == line.size() || line[j] == '\t') {
        if (field >= f.size()) return std::nullopt;
        f[field++] = line.substr(start, j - start);
        start = j + 1;
      }
    }
    if (field != f.size() || f[0] != "R") return std::nullopt;
    SearchResult r;
    // RenderResults never writes a non-finite score, and a NaN would break
    // the strict weak order the router's merge sorts by.
    if (!util::ParseDouble(f[1], &r.score) || !std::isfinite(r.score)) {
      return std::nullopt;
    }
    std::int64_t words = 0;
    if (!util::ParseInt64(f[2], &words) || words < 0) return std::nullopt;
    r.size_words = static_cast<std::uint64_t>(words);
    if (!Unescape(f[3], &r.url)) return std::nullopt;
    if (!f[4].empty()) {
      std::string_view frags = f[4];
      std::size_t s0 = 0;
      for (std::size_t j = 0; j <= frags.size(); ++j) {
        if (j == frags.size() || frags[j] == ',') {
          std::int64_t handle = 0;
          if (!util::ParseInt64(frags.substr(s0, j - s0), &handle) ||
              handle < 0 || handle > std::int64_t{0xFFFFFFFF}) {
            return std::nullopt;
          }
          r.fragments.push_back(static_cast<FragmentHandle>(handle));
          s0 = j + 1;
        }
      }
    }
    if (!f[5].empty()) {
      std::string_view params = f[5];
      std::size_t s0 = 0;
      for (std::size_t j = 0; j <= params.size(); ++j) {
        if (j == params.size() || params[j] == ';') {
          std::string_view pair = params.substr(s0, j - s0);
          std::size_t eq = pair.find('=');
          if (eq == std::string_view::npos) return std::nullopt;
          std::string name, value;
          if (!Unescape(pair.substr(0, eq), &name) ||
              !Unescape(pair.substr(eq + 1), &value)) {
            return std::nullopt;
          }
          r.params.emplace(std::move(name), std::move(value));
          s0 = j + 1;
        }
      }
    }
    results.push_back(std::move(r));
  }
  if (cursor != body.size()) return std::nullopt;
  return results;
}

webapp::HttpResponse SearchService::Handle(
    const webapp::HttpRequest& request,
    std::chrono::steady_clock::time_point admitted) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  webapp::HttpResponse response;
  if (request.path == "/search") {
    response = HandleSearch(request, admitted);
  } else if (request.path == "/stats") {
    response = HandleStats();
  } else if (request.path == "/shardstats") {
    response = HandleShardStats(request);
  } else if (request.path == "/healthz") {
    response = TextResponse(200, "ok\n");
  } else if (request.path.empty() || request.path == "/") {
    response = TextResponse(
        200, "dash search server: /search?q=<kw>&k=<n>&s=<n>, /stats\n");
  } else {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    response = TextResponse(404, "unknown path\n");
  }
  if (response.status == 200) ok_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

webapp::HttpResponse SearchService::HandleSearch(
    const webapp::HttpRequest& request,
    std::chrono::steady_clock::time_point admitted) {
  SnapshotPtr snapshot = publisher_->Current();
  if (snapshot == nullptr) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    webapp::HttpResponse response =
        TextResponse(503, "no snapshot published\n");
    response.headers["Retry-After"] =
        std::to_string(options_.retry_after_seconds);
    return response;
  }

  SearchQuery query;
  if (const char* error = ParseSearchQuery(request, options_.default_k,
                                           options_.default_s, &query)) {
    bad_request_.fetch_add(1, std::memory_order_relaxed);
    return TextResponse(400, error);
  }

  SearchDeadline deadline_storage;
  SearchDeadline* deadline = nullptr;
  if (options_.deadline_ms > 0) {
    deadline_storage.at =
        admitted + std::chrono::milliseconds(options_.deadline_ms);
    deadline = &deadline_storage;
  }

  std::vector<SearchResult> results;
  bool from_cache = false;
  if (cache_ != nullptr) {
    if (auto hit = cache_->Lookup(query.keywords, query.k,
                                  query.min_page_words,
                                  snapshot->generation())) {
      results = std::move(*hit);
      from_cache = true;
    }
  }
  if (!from_cache) {
    results = ExecuteSearch(snapshot, query.keywords, query.k,
                            query.min_page_words, deadline);
  }

  bool expired = deadline != nullptr &&
                 deadline->expired.load(std::memory_order_relaxed);
  webapp::HttpResponse response =
      TextResponse(expired ? 504 : 200, RenderResults(results));
  response.headers["X-Dash-Generation"] =
      std::to_string(snapshot->generation());
  if (expired) {
    gateway_timeout_.fetch_add(1, std::memory_order_relaxed);
    response.headers["X-Dash-Partial"] = "1";
  }
  latency_.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - admitted)
          .count()));
  return response;
}

// The cache-miss slow path. DASH_COLD_PATH: HandleSearch (hot) may call
// this, and everything here — the debug delay, the engine walk (sharded
// or not), the cache fill — is sanctioned slow-path work that
// dash_analyze's purity walk deliberately does not descend into.
std::vector<SearchResult> SearchService::ExecuteSearch(
    const SnapshotPtr& snapshot, const std::vector<std::string>& keywords,
    int k, std::uint64_t min_page_words, SearchDeadline* deadline) {
  if (options_.debug_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.debug_delay_ms));
  }
  searches_.fetch_add(1, std::memory_order_relaxed);
  // First miss after a republication: sweep the cache of entries the new
  // generation superseded (lazy Lookup eviction only reclaims repeated
  // queries; under write traffic the rest would crowd out live entries).
  // CAS on the high-water generation so exactly one racing miss sweeps.
  if (cache_ != nullptr) {
    std::uint64_t generation = snapshot->generation();
    std::uint64_t seen = purged_generation_.load(std::memory_order_relaxed);
    while (generation > seen) {
      if (purged_generation_.compare_exchange_weak(
              seen, generation, std::memory_order_relaxed)) {
        cache_->PurgeSuperseded(generation);
        break;
      }
    }
  }
  std::vector<SearchResult> results;
  if (options_.shards > 0 && options_.shard_index >= 0) {
    // Shard-node mode: answer only this node's slice — one scatter leg of
    // the router's fan-out, on the calling thread (the router owns the
    // cross-shard parallelism). The cache stays correct because a node's
    // shard index is fixed for its lifetime.
    results = ShardedEngine(snapshot, options_.shards)
                  .SearchShard(static_cast<std::size_t>(options_.shard_index),
                               keywords, k, min_page_words, deadline);
  } else if (options_.shards > 0) {
    results = ShardedEngine(snapshot, options_.shards)
                  .Search(keywords, k, min_page_words, deadline);
  } else {
    results = snapshot->Search(keywords, k, min_page_words, /*max_seeds=*/0,
                               deadline);
  }
  // Never cache a deadline-truncated list: it is valid for this request
  // but not the query's answer.
  bool partial = deadline != nullptr &&
                 deadline->expired.load(std::memory_order_relaxed);
  if (cache_ != nullptr && !partial) {
    cache_->Insert(keywords, k, min_page_words, snapshot->generation(),
                   results);
  }
  return results;
}

// Shard-node statistics probe. Not a hot root: the router probes it once
// per leg, before the leg's /search (SearchRouter::RunLeg).
webapp::HttpResponse SearchService::HandleShardStats(
    const webapp::HttpRequest& request) {
  if (options_.shards <= 0 || options_.shard_index < 0) {
    bad_request_.fetch_add(1, std::memory_order_relaxed);
    return TextResponse(400, "not a shard node\n");
  }
  SnapshotPtr snapshot = publisher_->Current();
  if (snapshot == nullptr) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    webapp::HttpResponse response =
        TextResponse(503, "no snapshot published\n");
    response.headers["Retry-After"] =
        std::to_string(options_.retry_after_seconds);
    return response;
  }
  // q= values are normalized exactly as /search's engine path normalizes
  // them, so the reported terms line up with what a query would seed on.
  std::vector<std::string> tokens;
  for (auto& [field, value] :
       webapp::ParseQueryParams(request.EffectiveQueryString())) {
    if (field == "q") {
      for (std::string& token : util::Tokenize(value)) {
        tokens.push_back(std::move(token));
      }
    }
  }
  if (tokens.empty()) {
    bad_request_.fetch_add(1, std::memory_order_relaxed);
    return TextResponse(400, "missing q parameter\n");
  }
  const ShardedEngine view(snapshot, options_.shards);
  const auto shard = static_cast<std::size_t>(options_.shard_index);
  std::string body = "terms " + std::to_string(tokens.size()) + "\n";
  for (std::string& token : tokens) {
    ShardTermStats stats = view.TermStats(std::move(token), shard);
    body += "T\t";
    body += stats.token;
    body += '\t';
    body += std::to_string(stats.df);
    body += '\t';
    body += std::to_string(stats.max_occurrences);
    body += '\n';
  }
  webapp::HttpResponse response = TextResponse(200, std::move(body));
  response.headers["X-Dash-Generation"] =
      std::to_string(snapshot->generation());
  return response;
}

webapp::HttpResponse SearchService::HandleStats() {
  ServeCounters c = counters();
  std::function<webapp::HttpServer::Stats()> transport;
  std::function<std::uint64_t()> compactions;
  {
    util::MutexLock lock(stats_mutex_);
    transport = transport_stats_;
    compactions = compactions_;
  }
  std::string json = "{\n";
  auto field = [&json](const char* name, std::uint64_t value, bool last = false) {
    json += "  \"";
    json += name;
    json += "\": ";
    json += std::to_string(value);
    json += last ? "\n" : ",\n";
  };
  field("generation", c.generation);
  if (transport != nullptr) {
    // Called outside stats_mutex_: the provider reaches into HttpServer
    // (which takes its own locks) and must not nest under ours.
    webapp::HttpServer::Stats t = transport();
    field("queue_depth", t.queue_depth);
    field("queue_capacity", t.queue_capacity);
    field("accepted", t.accepted);
    field("shed", t.shed);
    field("handled", t.handled);
    field("parse_errors", t.parse_errors);
  }
  field("requests_total", c.requests_total);
  field("ok", c.ok);
  field("bad_request", c.bad_request);
  field("not_found", c.not_found);
  field("unavailable", c.unavailable);
  field("gateway_timeout", c.gateway_timeout);
  field("searches", c.searches);
  json += std::string("  \"cache_enabled\": ") +
          (cache_ != nullptr ? "true" : "false") + ",\n";
  field("cache_capacity", options_.cache_capacity);
  field("cache_hits", c.cache_hits);
  field("cache_misses", c.cache_misses);
  field("cache_evicted_superseded", c.cache_evicted_superseded);
  // Index-shape counters: live segments in the served snapshot and, when
  // an UpdatableIndex (or any compacting builder) wired its provider, how
  // many compactions produced them.
  SnapshotPtr snapshot = publisher_->Current();
  field("segments",
        snapshot != nullptr
            ? static_cast<std::uint64_t>(snapshot->segment_count())
            : 0);
  field("compactions", compactions != nullptr ? compactions() : 0);
  field("latency_count", c.latency_count);
  field("latency_p50_us", c.latency_p50_us);
  field("latency_p99_us", c.latency_p99_us);
  field("latency_p999_us", c.latency_p999_us);
  field("latency_max_us", c.latency_max_us);
  field("workers", static_cast<std::uint64_t>(options_.num_workers));
  field("shards", static_cast<std::uint64_t>(options_.shards));
  json += "  \"shard_index\": " + std::to_string(options_.shard_index) + ",\n";
  field("deadline_ms", static_cast<std::uint64_t>(options_.deadline_ms), true);
  json += "}\n";
  webapp::HttpResponse response = TextResponse(200, std::move(json));
  response.headers["Content-Type"] = "application/json";
  return response;
}

ServeCounters SearchService::counters() const {
  ServeCounters c;
  c.generation = publisher_->CurrentGeneration();
  c.requests_total = requests_total_.load(std::memory_order_relaxed);
  c.ok = ok_.load(std::memory_order_relaxed);
  c.bad_request = bad_request_.load(std::memory_order_relaxed);
  c.not_found = not_found_.load(std::memory_order_relaxed);
  c.unavailable = unavailable_.load(std::memory_order_relaxed);
  c.gateway_timeout = gateway_timeout_.load(std::memory_order_relaxed);
  c.searches = searches_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    ResultCache::Stats s = cache_->stats();
    c.cache_hits = s.hits;
    c.cache_misses = s.misses;
    c.cache_evicted_superseded = s.evicted_superseded;
  }
  c.latency_count = latency_.count();
  c.latency_p50_us = latency_.Percentile(0.50);
  c.latency_p99_us = latency_.Percentile(0.99);
  c.latency_p999_us = latency_.Percentile(0.999);
  c.latency_max_us = latency_.max();
  return c;
}

SearchServer::SearchServer(const SnapshotPublisher& publisher,
                           ServeOptions options) {
  Init(publisher, options);
}

SearchServer::SearchServer(SnapshotPtr snapshot, ServeOptions options) {
  owned_publisher_ = std::make_unique<SnapshotPublisher>(std::move(snapshot));
  Init(*owned_publisher_, options);
}

SearchServer::~SearchServer() { Stop(); }

void SearchServer::Init(const SnapshotPublisher& publisher,
                        const ServeOptions& options) {
  service_ = std::make_unique<SearchService>(publisher, options);
  webapp::HttpServer::Options http_options;
  http_options.port = options.port;
  http_options.num_workers = options.num_workers;
  http_options.queue_capacity = options.queue_capacity;
  http_options.retry_after_seconds = options.retry_after_seconds;
  http_ = std::make_unique<webapp::HttpServer>(
      [service = service_.get()](const webapp::HttpRequest& request,
                                 std::chrono::steady_clock::time_point
                                     admitted) {
        return service->Handle(request, admitted);
      },
      http_options);
  service_->set_transport_stats(
      [http = http_.get()] { return http->stats(); });
}

void SearchServer::Start() { http_->Start(); }

void SearchServer::Stop() { http_->Stop(); }

}  // namespace dash::core
