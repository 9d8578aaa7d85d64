// Shared pieces of the census-to-consumer benchmark: options, the result
// every workload fills, the outside-in span recorder and small statistics.
//
// The benchmark drives the LACeS layers only through their public
// functions. Spans are recorded here, around those calls, never inside the
// program, so an untraced run measures exactly what a user of the library
// would see.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pathbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory inside the checkout (archives, per-seed counts).
  std::string work_dir;
  /// Worker threads the process may use in total (nproc).
  unsigned cores = 1;
};

/// What one workload run reports. `metrics` holds every value by its
/// BENCHMARK.json name; `counts` holds the exact counts that must repeat
/// across runs of one seed; `failures` keeps the first reasons for failed
/// operations and checks.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one operation; a failed one is recorded with its reason.
  void op(bool ok, const std::string& what = {}) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 32) failures.push_back(what);
  }
  /// Counts one correctness check as an operation.
  void check(bool ok, const std::string& what) { op(ok, "check: " + what); }
};

/// Interpolated percentile (p in [0,100]) of an unsorted sample; 0 for an
/// empty one.
double pct(std::vector<double> xs, double p);
inline double p50(const std::vector<double>& xs) { return pct(xs, 50.0); }

/// Outside-in span recorder. Off (the default) it costs one atomic load
/// per span; on, each span stores name, start, end and parent in memory,
/// and the summary is computed when the run ends.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void clear();

  /// Per span name: count, median duration, median and summed self time
  /// (duration minus the part its direct child spans cover), in ms.
  struct Summary {
    std::size_t count = 0;
    double total_p50_ms = 0.0;
    double self_p50_ms = 0.0;
    double self_sum_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;

  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int index_ = -1;
  };

 private:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span, a no-op while tracing is off.
using Span = Tracer::Scope;

}  // namespace pathbench
