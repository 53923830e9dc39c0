// In-memory span recorder for the traced run.
//
// The benchmark wraps a span around every call it makes into one of the
// engine's layers: name, start, end, parent span and request id. Spans
// are kept in memory and written out once, after the run. A span's self
// time is its duration minus the part of its interval that its direct
// children cover (the union of the children, so overlapping children are
// not subtracted twice).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list; -1 = root
  std::uint64_t request = 0;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Single-threaded recorder (the traced passes issue one request at a
// time, so spans never need a lock).
class Tracer {
 public:
  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  // One JSON object per line: {"name","start_ns","end_ns","parent","request"}.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// RAII span; `id()` is the parent handle for nested spans.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent,
             std::uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

// Length of the union of [start, end) intervals.
inline std::int64_t UnionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// Self time of every span, in nanoseconds: duration minus the union of its
// direct children's intervals, each clipped to the parent's interval.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    std::int64_t a = std::max(s.start_ns, p.start_ns);
    std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t duration = std::max<std::int64_t>(spans[i].end_ns - spans[i].start_ns, 0);
    self[i] = duration - UnionLength(std::move(children[i]));
  }
  return self;
}

}  // namespace perfbench
