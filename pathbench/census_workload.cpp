// census: consecutive census days in the paper's daily configuration, each
// committed through an ArchiveWriter with a mesh::Relay and one
// DeltaFollower subscriber attached — the whole day-to-consumer path.
// Simulation is nearly all of a day, so simulator changes show here and
// commit-path changes should read as no change.
#include <filesystem>
#include <memory>

#include "layers.hpp"
#include "publish_stack.hpp"
#include "world.hpp"
#include "workloads.hpp"

namespace pathbench {

Result run_census(const Options& options) {
  Result result;
  const auto dir = std::filesystem::path(options.work_dir) / "census";
  std::unique_ptr<PublishStack> stack;
  std::unique_ptr<CensusWorld> world;
  std::vector<laces::census::DailyCensus> sources;
  // Set-up ends with day 1 committed: it warms the routing caches and the
  // first-touch allocations, and is never measured.
  result.set("setup_s", median_setup_s([&] {
               stack.reset();
               world.reset();
               sources.clear();
               world = std::make_unique<CensusWorld>(options.seed);
               stack = std::make_unique<PublishStack>(dir, PublishConfig{});
               const auto t0 = Clock::now();
               sources.push_back(world->run_day(1));
               stack->append(sources.back(), t0);
             }), "s");
  result.op(true);
  const auto routing_before = RoutingCounters::read();

  std::uint32_t day = 2;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> phase_days;
  for (const Phase& phase : phases_of(options)) {
    enter_phase(phase);
    const std::uint32_t first = day;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(phase.seconds));
    do {
      const auto t0 = Clock::now();
      auto census = world->run_day(day);
      stack->append(census, t0);
      result.op(true);
      if (sources.size() < 2) sources.push_back(std::move(census));
      ++day;
    } while (Clock::now() < end);
    phase_days.emplace_back(first, day);
  }
  Tracer::global().set_enabled(false);
  const auto routing_after = RoutingCounters::read();

  const auto days = stack->finish(result);
  laces::store::ArchiveReader reader(stack->dir() / "archive");
  const auto& manifest = reader.manifest().entries;
  result.counts["store.digest_day1"] = digest_bits(manifest.at(0).digest_hex);
  result.counts["store.digest_day2"] = digest_bits(manifest.at(1).digest_hex);

  // Per phase: path = the day until every subscriber holds it, step = the
  // append the census thread waits for.
  std::vector<std::vector<double>> path(phase_days.size()),
      step(phase_days.size());
  for (const auto& d : days) {
    for (std::size_t p = 0; p < phase_days.size(); ++p) {
      if (d.day < phase_days[p].first || d.day >= phase_days[p].second) continue;
      double held = 0.0;
      for (double ms : d.deliver_ms) held = std::max(held, ms);
      path[p].push_back(held);
      step[p].push_back(d.commit_ms);
    }
  }
  result.set("path_ms.p50", p50(path[0]), "ms");
  result.set("path_ms.tail", pct(path[0], 100.0), "ms");
  result.set("step_ms.p50", p50(step[0]), "ms");
  result.set("step_ms.tail", pct(step[0], 100.0), "ms");
  std::vector<double> commits;
  for (const auto& d : days) {
    if (d.day > 1) commits.push_back(d.commit_ms);
  }
  result.set("census.commit_ms", p50(commits), "ms");

  report_census_layers(world->runs(), sources[0], routing_before,
                       routing_after, result);
  if (options.trace) {
    report_overhead(p50(path[0]), p50(path[1]), result);
    measure_standalone(sources, result);
    probe_layers(sources, options, {}, result);
  }
  return result;
}

}  // namespace pathbench
