// publish: consecutive days appended back to back through an ArchiveWriter
// with a mesh::Relay, no simulator in the loop. The days are real census
// days, simulated once during set-up and replayed in rotation under
// increasing day numbers. Subscribers: several counting local sinks, one
// full DeltaFollower consumer, and a follower on a second relay one peered
// hop away (mesh frames and HMAC). Store writes and mesh fan-out show here;
// read-path changes should read as no change.
//
// Days are appended in passes of kPassDays into a fresh archive, so the
// manifest grows over the same range in every pass whatever the speed.
#include <filesystem>
#include <memory>

#include "layers.hpp"
#include "publish_stack.hpp"
#include "world.hpp"
#include "workloads.hpp"

namespace pathbench {

namespace {

constexpr std::uint32_t kSourceDays = 2;
constexpr std::uint32_t kPassDays = 100;
constexpr std::size_t kLocalSinks = 4;

}  // namespace

Result run_publish(const Options& options) {
  Result result;
  std::unique_ptr<CensusWorld> world;
  std::vector<laces::census::DailyCensus> sources;
  RoutingCounters routing_before, routing_after;
  result.set("setup_s", median_setup_s([&] {
               sources.clear();
               world.reset();
               world = std::make_unique<CensusWorld>(options.seed);
               sources.push_back(world->run_day(1));
               routing_before = RoutingCounters::read();
               for (std::uint32_t d = 2; d <= kSourceDays; ++d) {
                 sources.push_back(world->run_day(d));
               }
               routing_after = RoutingCounters::read();
             }), "s");
  const auto source_of = [](std::uint32_t day) {
    return (day - 1) % kSourceDays;
  };

  std::vector<double> commit_p50(2), step, path;
  std::vector<DayDelivery> traced_days;
  for (const Phase& phase : phases_of(options)) {
    enter_phase(phase);
    std::vector<double> commits;
    auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(phase.seconds));
    std::uint32_t pass = 0;
    do {
      PublishStack stack(
          std::filesystem::path(options.work_dir) / "publish",
          {.local_sinks = kLocalSinks, .remote = true, .shadow = phase.traced});
      for (std::uint32_t day = 1; day <= kPassDays; ++day) {
        const auto census = relabel(sources[source_of(day)], day);
        stack.append(census, Clock::now());
        result.op(true);
        if (day > kSourceDays && Clock::now() >= end) break;
      }
      // The window measures appends: the checks in finish() extend it.
      const auto checks_start = Clock::now();
      auto days = stack.finish(result);
      end += Clock::now() - checks_start;
      // Day 1 of a feed is all upserts; samples start at day 2.
      for (std::size_t i = 1; i < days.size(); ++i) {
        commits.push_back(days[i].commit_ms);
        if (!phase.traced) {
          step.push_back(days[i].commit_ms);
          for (double ms : days[i].deliver_ms) path.push_back(ms);
        }
      }
      if (pass++ == 0) {
        count_first_days(days, kSourceDays + 1, "publish", result);
      }
      if (phase.traced) {
        traced_days.insert(traced_days.end(), days.begin(), days.end());
      }
    } while (Clock::now() < end);
    commit_p50[phase.traced ? 1 : 0] = p50(commits);
  }
  Tracer::global().set_enabled(false);

  result.set("path_ms.p50", p50(path), "ms");
  result.set("path_ms.tail", pct(path, 99.0), "ms");
  result.set("step_ms.p50", p50(step), "ms");
  result.set("step_ms.tail", pct(step, 95.0), "ms");
  result.set("census.commit_ms", commit_p50[0], "ms");

  report_census_layers(world->runs(), sources[0], routing_before,
                       routing_after, result);
  if (options.trace) {
    report_overhead(commit_p50[0], commit_p50[1], result);
    measure_standalone(sources, result);
    report_publish_layers(traced_days, result);
    probe_layers(sources, options, {.publish = false, .query = true}, result);
  }
  return result;
}

}  // namespace pathbench
