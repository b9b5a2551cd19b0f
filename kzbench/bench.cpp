#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace kzbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1 << 20);
}

void Result::op(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 32) failures.emplace_back(what);
}

void Result::check(bool ok, const char* what) {
  if (ok) return;
  correct = false;
  if (failures.size() < 32) failures.push_back(std::string("check: ") + what);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string json_metrics(const std::vector<Result::Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << json_string(metrics[i].name)
       << ": {\"value\": " << v << ", \"unit\": "
       << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + json_string(items[i]);
  }
  return out + "]";
}

}  // namespace

std::string Result::to_json(const std::string& workload, std::uint64_t seed,
                            bool trace) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? "true" : "false")
     << ", \"build_type\": " << json_string(KZBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(KZBENCH_COMPILER)
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": " << json_metrics(metrics)
     << ", \"traced_e2e\": " << json_metrics(traced_e2e)
     << ", \"failures\": " << json_strings(failures)
     << ", \"notes\": " << json_strings(notes) << "}";
  return os.str();
}

int Trace::open(const char* name) {
  spans_.push_back(Span{name, Clock::now(), Clock::time_point{}});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

double Trace::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += seconds_between(s.start, s.end);
  }
  return sum;
}

}  // namespace kzbench
