// Shared plumbing of the benchmark binary: sample sets with nearest-rank
// percentiles, the metric report that becomes the result JSON, and the
// in-memory span log of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ssb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A growing set of measurements; percentiles by nearest rank.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Value at quantile q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double max() const { return empty() ? 0.0 : quantile(1.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// CPU time consumed by every thread of this process so far, in seconds.
double process_cpu_seconds();

/// Everything one workload run reports: named metrics with units, the
/// correctness checks it made, and the attempted/failed work counts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
  void info(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const;
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  [[nodiscard]] double value(const std::string& name) const;
  /// Human-readable lines: metrics, then checks.
  [[nodiscard]] std::string text() const;
  /// One JSON object (single line).
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// ------------------------------------------------------------------ tracing
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer of the program (xmlio, core, sim, runtime, ops, gen).
// A span has a layer, a name, start/end times and the span that caused it;
// the log stays in memory and is written out once the run ends.

struct SpanRecord {
  const char* layer;
  const char* name;
  double start_s;  ///< seconds since the log was armed
  double end_s;
  int parent;      ///< index of the enclosing span, -1 for a root
};

class SpanLog {
 public:
  static SpanLog& instance();

  void arm();
  void disarm() { armed_.store(false); }
  [[nodiscard]] bool armed() const { return armed_.load(); }

  /// Opens a span whose parent is the calling thread's innermost open span
  /// (or `parent` when given); returns its index, -1 when disarmed.
  int open(const char* layer, const char* name, int parent = -2);
  void close(int index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Number of spans of `layer` (named `name`, when given).
  [[nodiscard]] std::size_t count(const std::string& layer, const char* name = nullptr) const;
  /// Self time per layer in seconds: each span's duration minus the part
  /// its child spans cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as a JSON array; throws std::runtime_error on I/O
  /// failure.
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  Clock::time_point origin_{};  ///< set by arm() before any span opens
  std::atomic<bool> armed_{false};
};

/// RAII span on the calling thread (no-op while the log is disarmed).
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, int parent = -2)
      : index_(SpanLog::instance().open(layer, name, parent)) {}
  ~ScopedSpan() { SpanLog::instance().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  int index_;
};

}  // namespace ssb
