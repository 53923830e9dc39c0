// The benchmark's output: human-readable "# " lines while it runs, then
// one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // A context line (printed immediately, never part of the JSON).
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    std::va_list args;
    va_start(args, format);
    std::fputs("# ", stdout);
    std::vprintf(format, args);
    std::fputc('\n', stdout);
    va_end(args);
    std::fflush(stdout);
  }

  // Counts operations; a failure is a refused or erroneous operation or a
  // wrong answer.
  void Attempted(std::uint64_t n) { attempted_ += n; }
  void Failed(std::uint64_t n) { failed_ += n; }
  // A run-level check that did not hold (invalid open loop, counters that
  // did not repeat): the run is reported as incorrect.
  void Invalid(const std::string& why) {
    Note("INVALID: %s", why.c_str());
    invalid_ = true;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void PrintResult() const {
    std::string out = "{\"correct\": ";
    out += (!invalid_ && failed_ == 0) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_ > 0 ? attempted_ : 1);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool invalid_ = false;
};

}  // namespace perfbench
