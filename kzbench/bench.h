// Shared plumbing of the repo benchmark (README.md): clocks, order
// statistics, memory probes, the result record every workload fills, and
// the span recorder the traced run uses.
//
// Tracing here is *outside* the program: spans are opened by the
// benchmark's own code around its calls into a layer's public functions
// (text::lex, LiteralPrefilter::candidates_into, analyze_database, ...).
// Nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kzbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Order statistics over a copy (callers keep their sample order).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);  // p in [0, 100]

// The process's peak resident set size, in MB (2^20 bytes).
double peak_rss_mb();
// Heap bytes in use (all malloc arenas plus mmap'd chunks), in MB. The
// difference across building a structure that stays alive is what that
// structure occupies — exact, unlike an RSS difference, which depends on
// what the allocator happened to re-use (and trimming the heap to make it
// honest slows every later allocation).
double heap_in_use_mb();

// What one run reports: the operation ledger, the failed checks (printed
// to stderr, one line each) and named metrics in insertion order.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        // end-to-end (or per-layer when traced)
  std::vector<Metric> traced_e2e;     // end-to-end numbers of a traced run
  std::vector<std::string> failures;  // why operations failed
  std::vector<std::string> notes;     // context lines for stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // An operation that was attempted; `ok` false counts it as failed.
  void op(bool ok, const char* what);
  // A correctness check on the program's output (not an operation of its
  // own): a mismatch makes the run incorrect.
  void check(bool ok, const char* what);

  std::string to_json(const std::string& workload, std::uint64_t seed,
                      bool trace) const;
};

// In-memory span recorder: name, start, end. The spans wrap the
// benchmark's own calls into one layer each, so they do not nest. They are
// kept in memory and summed per name at the end of the run.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const char* name);
  void close(int id);
  // Sum of the durations of every span called `name`, in seconds.
  double total(const std::string& name) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span: records only when the trace is enabled.
class Scoped {
 public:
  Scoped(Trace& trace, const char* name)
      : trace_(trace), id_(trace.enabled() ? trace.open(name) : -1) {}
  ~Scoped() {
    if (id_ >= 0) trace_.close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace& trace_;
  int id_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Result run_month(const Options& opt);
Result run_fleet(const Options& opt, bool hits);

}  // namespace kzbench
