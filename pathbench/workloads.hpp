// The three workloads. Each builds its inputs from the seed, measures for
// the requested seconds, runs its correctness checks and returns every
// metric it measured; main.cpp prints them.
//
// Every workload reports the same metric names:
//   setup_s           median of three complete set-ups
//   path_ms.p50/tail  what the consumer waits on (census: a day until every
//                     subscriber holds it; publish: a day until one
//                     subscriber holds it; query: a first-touch request)
//   step_ms.p50/tail  the step inside it (census and publish: the
//                     ArchiveWriter::append call; query: a repeat request)
// README.md has the per-workload table with each tail's percentile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pathbench {

Result run_census(const Options& options);
Result run_publish(const Options& options);
Result run_query(const Options& options);

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;

/// Runs `setup` kSetups times and returns the median wall time in seconds.
/// Each call must rebuild the workload's state from scratch.
template <class F>
double median_setup_s(F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_since(t0) / 1e3);
  }
  return p50(s);
}

/// One measuring window. An untraced run has one; a traced run has an
/// untraced half and then a traced half, whose difference is the tracing
/// overhead.
struct Phase {
  bool traced = false;
  double seconds = 0.0;
};
std::vector<Phase> phases_of(const Options& options);

/// Switches the tracer for a phase (clearing it when it turns on).
void enter_phase(const Phase& phase);

/// trace.overhead_pct: traced median over untraced median, minus one.
void report_overhead(double untraced_p50, double traced_p50, Result& result);

/// The first 60 bits of a hex digest, as an exact count.
std::uint64_t digest_bits(const std::string& hex);

}  // namespace pathbench
