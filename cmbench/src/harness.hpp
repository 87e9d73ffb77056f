// Shared measurement helpers of the end-to-end benchmark: one time base,
// sample sets with percentiles, the generator's ack window, and RSS.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace cmbench {

// Nanoseconds on CLOCK_MONOTONIC. steady_clock reads that clock on Linux,
// so timestamps taken in the receiver child process line up with the
// sender's: spans of one message can cross the process boundary.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// A set of observations with exact (sorted) quantiles.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  bool empty() const { return v_.empty(); }

  // Linear interpolation between closest ranks; 0 when empty.
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double mean() const {
    if (v_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : v_) sum += v;
    return sum / static_cast<double>(v_.size());
  }

 private:
  // Sorted lazily by the first quantile query.
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

// Tracks which generated messages are decided, following the ack-window
// idiom of UCSB's acknowledged_counter_generator: sequence numbers are
// acknowledged in any order and `limit()` is the highest number below
// which every message has been acknowledged. The oldest undecided message
// is limit() + 1. A message more than kWindow ahead of the oldest
// undecided one overflows the window, which the paced generator treats as
// a backlog that has grown without bound.
class AckWindow {
 public:
  static constexpr std::size_t kWindow = std::size_t{1} << 16;

  // Sequence numbers start at 0.
  void acknowledge(std::uint64_t seq) {
    auto slot = static_cast<std::size_t>(seq & (kWindow - 1));
    if (seq >= limit_ + 1 + kWindow || acked_[slot]) {
      throw std::runtime_error("ack window overflow");
    }
    acked_[slot] = true;
    std::uint64_t i = limit_ + 1;
    for (; i < limit_ + 1 + kWindow; ++i) {
      slot = static_cast<std::size_t>(i & (kWindow - 1));
      if (!acked_[slot]) break;
      acked_[slot] = false;
    }
    limit_ = i - 1;
  }
  // Count of acknowledged prefix messages (limit + 1).
  std::uint64_t prefix() const { return limit_ + 1; }

 private:
  std::vector<bool> acked_ = std::vector<bool>(kWindow, false);
  std::uint64_t limit_ = static_cast<std::uint64_t>(-1);
};

// A counter's value in a metrics snapshot (0 when never registered).
inline std::uint64_t obs_counter(
    const cmx::obs::MetricsRegistry::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

// Restarts this process's peak RSS (VmHWM) from its current RSS.
inline void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Peak resident set size of this process (VmHWM), in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace cmbench
