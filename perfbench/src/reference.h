// The host-speed gauge: a small fixed unit of CPU work that runs no Dash
// code, timed over and over on a background thread while a timed phase
// runs.
//
// On a shared virtual machine the CPU time an operation takes follows the
// host's load: a busy sibling hyperthread and the clock speed slow every
// instruction. The reference unit feels the same slow-down at the same
// moments, so the benchmark divides its CPU time per operation by the
// unit's slowdown and reports it at the unit's reference speed
// (kReferenceUnitCpuS). Dash changes cannot move the unit, since it shares
// no code with the engine.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "util/random.h"

namespace perfbench {

// The mean CPU time of one reference unit on the machine recorded in
// perfbench/calibration.json. Only ratios against it matter.
inline constexpr double kReferenceUnitCpuS = 0.002;

// CPU time of the calling thread so far.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Every `period`, runs one reference unit and records its CPU time: 2000
// passes over a 32 KiB array into four accumulators, loads, multiplies,
// adds and xors that keep the core's execution units busy. Work of this
// kind, which a busy sibling hyperthread and the clock speed slow as much
// as they slow the workloads, tracked them best: a sort, table probes and
// a dependent multiply chain slowed only about half as much (in log
// terms), and dependent walks through tables larger than the caches less
// still.
class HostSpeedSampler {
 public:
  explicit HostSpeedSampler(
      std::chrono::milliseconds period = std::chrono::milliseconds(50))
      : period_(period), thread_([this] { Run(); }) {}
  ~HostSpeedSampler() { Stop(); }
  HostSpeedSampler(const HostSpeedSampler&) = delete;
  HostSpeedSampler& operator=(const HostSpeedSampler&) = delete;

  // Stops the thread; the accessors below are valid after this.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::size_t units() const { return units_.size(); }
  // How much slower than the reference the host ran: the mean unit's CPU
  // time over kReferenceUnitCpuS. The mean, not the median, because the
  // operations' CPU time is a sum, slow spells included.
  double slowdown() const {
    return std::accumulate(units_.begin(), units_.end(), 0.0) /
           static_cast<double>(units_.size()) / kReferenceUnitCpuS;
  }
  // The sampler thread's own CPU time, to take out of process totals.
  double cpu_s() const { return cpu_s_; }

 private:
  static constexpr std::size_t kWords = 4096;  // 32 KiB
  static constexpr std::uint64_t kPasses = 2000;

  void Run() {
    const double start = ThreadCpuSeconds();
    dash::util::SplitMix64 rng(7);
    std::vector<std::uint64_t> words(kWords);
    for (std::uint64_t& word : words) word = rng.Next();
    std::uint64_t sum = 0;
    do {  // at least one unit, however short the phase
      const double unit_start = ThreadCpuSeconds();
      std::uint64_t acc[4] = {sum, 0, 0, 0};
      for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < kWords; i += 4) {
          acc[0] += words[i] * 3;
          acc[1] += words[i + 1] ^ acc[0];
          acc[2] += words[i + 2] + pass;
          acc[3] += words[i + 3] * 5;
        }
      }
      sum = acc[0] + acc[1] + acc[2] + acc[3];
      units_.push_back(ThreadCpuSeconds() - unit_start);
      std::this_thread::sleep_for(period_);
    } while (!stop_.load(std::memory_order_relaxed));
    checksum_ = sum;  // keeps the work from being optimised away
    cpu_s_ = ThreadCpuSeconds() - start;
  }

  const std::chrono::milliseconds period_;
  std::atomic<bool> stop_{false};
  std::vector<double> units_;
  std::uint64_t checksum_ = 0;
  double cpu_s_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace perfbench
