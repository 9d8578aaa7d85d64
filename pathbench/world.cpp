#include "world.hpp"

#include <functional>
#include <string_view>

#include "obs/metrics.hpp"

namespace pathbench {

RoutingCounters RoutingCounters::read() {
  const auto snap = laces::obs::Registry::global().snapshot();
  RoutingCounters c;
  c.delay_hits = snap.value("laces_routing_delay_cache_hits_total");
  c.delay_misses = snap.value("laces_routing_delay_cache_misses_total");
  c.catchment_hits = snap.value("laces_routing_catchment_cache_hits_total");
  c.catchment_misses = snap.value("laces_routing_catchment_cache_misses_total");
  return c;
}

CensusWorld::CensusWorld(std::uint64_t seed) : scenario_(seed, kWorldScale) {
  laces::census::PipelineConfig config;
  config.icmp = config.tcp = config.dns = true;
  config.ipv4 = config.ipv6 = true;
  pipeline_ = std::make_unique<laces::census::Pipeline>(
      scenario_.network(), scenario_.production(), scenario_.ark163(),
      scenario_.ark118_v6(), config);
}

laces::census::DailyCensus CensusWorld::run_day(std::uint32_t day) {
  const std::uint64_t packets_before = scenario_.network().packets_sent();
  const auto t0 = Clock::now();
  laces::census::DailyCensus census;
  {
    Span span("census.run_day");
    census = pipeline_->run_day(day);
  }
  runs_.push_back({day, ms_since(t0),
                   scenario_.network().packets_sent() - packets_before});
  return census;
}

void report_census_layers(const std::vector<DayRun>& runs,
                          const laces::census::DailyCensus& first,
                          const RoutingCounters& before,
                          const RoutingCounters& after, Result& result) {
  // Day 1 warms the routing caches: timing uses the days after it (or day
  // 1 alone), exact counts use day 1, which every run simulates.
  std::vector<double> run_ms, packets_per_s;
  for (std::size_t i = runs.size() > 1 ? 1 : 0; i < runs.size(); ++i) {
    const DayRun& r = runs[i];
    run_ms.push_back(r.run_ms);
    packets_per_s.push_back(static_cast<double>(r.packets) / (r.run_ms / 1e3));
  }
  result.set("census.run_day_ms", p50(run_ms), "ms");
  result.set("sim.packets_per_s", p50(packets_per_s), "1/s");
  const auto packets = runs.empty() ? 0 : runs.front().packets;
  result.set("sim.packets_per_day", static_cast<double>(packets), "count");
  result.set("census.probes_anycast",
             static_cast<double>(first.anycast_probes_sent), "count");
  result.set("census.probes_gcd", static_cast<double>(first.gcd_probes_sent),
             "count");
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  result.set("topo.delay_hit_ratio",
             ratio(after.delay_hits - before.delay_hits,
                   after.delay_misses - before.delay_misses),
             "ratio");
  result.set("topo.catchment_hit_ratio",
             ratio(after.catchment_hits - before.catchment_hits,
                   after.catchment_misses - before.catchment_misses),
             "ratio");
  result.counts["sim.packets_day1"] = packets;
  result.counts["census.probes_anycast_day1"] = first.anycast_probes_sent;
  result.counts["census.probes_gcd_day1"] = first.gcd_probes_sent;
  result.counts["census.records_day1"] = first.records.size();
}

std::uint64_t csv_hash(std::string_view csv) {
  return std::hash<std::string_view>{}(csv);
}

}  // namespace pathbench
