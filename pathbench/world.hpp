// The census side of the benchmark: a seeded simulated Internet and the
// paper's daily pipeline over it, driven only through
// census::Pipeline::run_day.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "census/census.hpp"
#include "census/pipeline.hpp"
#include "common.hpp"
#include "common/scenario.hpp"

namespace pathbench {

/// benchkit scale 32: Leguay-style prefix aggregation keeps a day near 2 s
/// without changing the shape of the census.
constexpr std::size_t kWorldScale = 32;

/// Wall time and simulator work of one run_day call.
struct DayRun {
  std::uint32_t day = 0;
  double run_ms = 0.0;
  std::uint64_t packets = 0;
};

/// Routing-cache counters from the obs registry (cumulative).
struct RoutingCounters {
  double delay_hits = 0, delay_misses = 0;
  double catchment_hits = 0, catchment_misses = 0;
  static RoutingCounters read();
};

class CensusWorld {
 public:
  /// World generation and pipeline construction for `seed`; the daily
  /// configuration is ICMP, TCP and DNS over IPv4 and IPv6.
  explicit CensusWorld(std::uint64_t seed);

  /// One census day through Pipeline::run_day, wrapped in a span.
  laces::census::DailyCensus run_day(std::uint32_t day);

  const std::vector<DayRun>& runs() const { return runs_; }

 private:
  laces::benchkit::Scenario scenario_;
  std::unique_ptr<laces::census::Pipeline> pipeline_;
  std::vector<DayRun> runs_;
};

/// census.* / sim.* / topo.* per-layer metrics from `runs` (every day the
/// workload simulated, day 1 first), `first` (day 1's census, whose exact
/// counts repeat per seed) and the routing counters around the days.
void report_census_layers(const std::vector<DayRun>& runs,
                          const laces::census::DailyCensus& first,
                          const RoutingCounters& before,
                          const RoutingCounters& after, Result& result);

/// Hash of a publication CSV, for byte-identity checks that must not keep
/// every day's bytes in memory.
std::uint64_t csv_hash(std::string_view csv);

}  // namespace pathbench
