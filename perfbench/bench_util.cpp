#include "bench_util.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ssb {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  // nearest rank: the smallest value with at least q*n samples <= it
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::text() const {
  std::ostringstream out;
  for (const auto& [key, value] : info_) out << "  " << key << ": " << value << "\n";
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    out << buf;
  }
  for (const Check& c : checks_) {
    out << "  check " << (c.ok ? "ok  " : "FAIL") << " " << c.name;
    if (!c.detail.empty()) out << " (" << c.detail << ")";
    out << "\n";
  }
  return out.str();
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  out << "}, \"checks\": [";
  first = true;
  for (const Check& c : checks_) {
    out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(c.name)
        << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(c.detail) << "\"}";
    first = false;
  }
  out << "], \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \"" << json_escape(value)
        << "\"";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------------ SpanLog

namespace {
thread_local std::vector<int> t_open_spans;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::arm() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  spans_.reserve(1 << 14);
  origin_ = Clock::now();
  armed_.store(true);
}

int SpanLog::open(const char* layer, const char* name, int parent) {
  if (!armed()) return -1;
  const double now = seconds_between(origin_, Clock::now());
  if (parent == -2) parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  int index;
  {
    std::lock_guard lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(SpanRecord{layer, name, now, now, parent});
  }
  t_open_spans.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  const double now = seconds_between(origin_, Clock::now());
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_s = now;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t SpanLog::count(const std::string& layer, const char* name) const {
  std::lock_guard lock(mutex_);
  const auto matches = [&](const SpanRecord& s) {
    return s.layer == layer && (name == nullptr || std::string(s.name) == name);
  };
  return static_cast<std::size_t>(std::count_if(spans_.begin(), spans_.end(), matches));
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double own = (all[i].end_s - all[i].start_s) - child_time[i];
    self[all[i].layer] += std::max(own, 0.0);
  }
  return self;
}

void SpanLog::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i ? ",\n " : "") << "{\"id\": " << i << ", \"layer\": \"" << s.layer
        << "\", \"name\": \"" << s.name << "\", \"start_s\": " << number(s.start_s)
        << ", \"end_s\": " << number(s.end_s) << ", \"parent\": " << s.parent << "}";
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

}  // namespace ssb
