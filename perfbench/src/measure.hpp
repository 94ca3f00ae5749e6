#pragma once

// Measurement helpers shared by every stage of the benchmark: per-phase
// sample sets (percentiles are always computed from the benchmark's own
// samples, never from the program's rolling windows), the metric table a
// run reports, and host diagnostics that make a disturbed run visible.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// One phase's samples. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }

  [[nodiscard]] double pct(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  [[nodiscard]] double median() const { return pct(0.5); }

 private:
  std::vector<double> v_;
};

/// A reported metric: its value, unit, and the sample count behind it
/// (0 for single measurements and counters). `absent` carries the reason a
/// metric has no samples on this run.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string absent;
};

/// The metrics one run reports, in insertion order for the readable table.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    if (metrics_.count(name) == 0) order_.push_back(name);
    Metric& m = metrics_[name];
    m.value = value;
    m.unit = unit;
    m.samples = samples;
    m.absent.clear();
  }
  /// Median of `s` in `unit`; absent with `why` when `s` is empty.
  void set_median(const std::string& name, const Samples& s,
                  const std::string& unit, const std::string& why) {
    set_pct(name, s, 0.5, unit, why);
  }
  void set_pct(const std::string& name, const Samples& s, double q,
               const std::string& unit, const std::string& why) {
    if (s.empty()) {
      set_absent(name, unit, why);
    } else {
      set(name, s.pct(q), unit, s.size());
    }
  }
  void set_absent(const std::string& name, const std::string& unit,
                  const std::string& why) {
    set(name, 0.0, unit, 0);
    metrics_[name].absent = why.empty() ? "no samples" : why;
  }
  [[nodiscard]] const Metric& get(const std::string& name) const {
    return metrics_.at(name);
  }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
};

/// Aggregate CPU jiffies from /proc/stat; steal share is the diagnostic for
/// a neighbour taking the host's cores during a run.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

inline CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  unsigned long long field = 0;
  for (int i = 0; i < 10 && (in >> field); ++i) {
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice.
    // guest time is already counted in user, so it is not summed again.
    if (i < 8) t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

inline double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  const auto total = static_cast<double>(b.total - a.total);
  if (total <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) / total;
}

/// User + system CPU seconds of this process so far.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
  return os.str();
}

}  // namespace perfbench
