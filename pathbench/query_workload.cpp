// query: a seeded open-loop stream at one fixed offered rate against a
// serve::Server with default cache sizes, over a 16-day archive — twice
// the ArchiveReader's default 8-day segment cache. The mix is the
// interactive one; history prefixes are drawn Zipf over every published
// prefix. A first touch misses the response cache and decodes every day's
// segment; a repeat hits. The store layer here reads, it does not write,
// so a write-side change that costs reads shows up here.
#include <filesystem>
#include <memory>

#include "layers.hpp"
#include "query_load.hpp"
#include "store/archive.hpp"
#include "world.hpp"
#include "workloads.hpp"

namespace pathbench {

namespace {

constexpr std::uint32_t kSourceDays = 2;
constexpr std::uint32_t kArchiveDays = 16;
// Requests per second: 250 times the first-touch cap, so about 99.5% hit
// and a 20 s window holds ~37,000 warm samples. At 80/s, with a napping
// generator, a hit found its core cold and the median hit spread by
// nearly a third between runs (README.md, "The query generator").
constexpr double kOfferedRate = 2000.0;

}  // namespace

Result run_query(const Options& options) {
  Result result;
  namespace store = laces::store;
  namespace serve = laces::serve;
  const auto archive = std::filesystem::path(options.work_dir) / "query";
  std::unique_ptr<CensusWorld> world;
  std::vector<laces::census::DailyCensus> sources;
  RoutingCounters routing_before, routing_after;
  std::vector<double> commits;
  serve::ServerConfig config;  // default cache sizes
  config.threads = server_threads(options.cores);
  std::unique_ptr<store::ArchiveReader> reader;
  std::unique_ptr<serve::Server> server;
  // The generator (this thread, which also answers cache hits inline) gets
  // the last core to itself; the workers inherit the other cores. Left to
  // wander, the generator's median hit flipped between about 4 and 8 us
  // from run to run; pinned, it flipped less often (README.md, "The query
  // generator").
  const auto start_server = [&] {
    pin_thread(0, options.cores - 1);
    server = std::make_unique<serve::Server>(*reader, config);
    pin_thread(options.cores - 1, options.cores);
  };
  result.set("setup_s", median_setup_s([&] {
               server.reset();
               reader.reset();
               sources.clear();
               commits.clear();
               world.reset();
               world = std::make_unique<CensusWorld>(options.seed);
               sources.push_back(world->run_day(1));
               routing_before = RoutingCounters::read();
               for (std::uint32_t d = 2; d <= kSourceDays; ++d) {
                 sources.push_back(world->run_day(d));
               }
               routing_after = RoutingCounters::read();
               std::filesystem::remove_all(archive);
               store::ArchiveWriter writer(archive);
               for (std::uint32_t d = 1; d <= kArchiveDays; ++d) {
                 const auto census = relabel(sources[(d - 1) % kSourceDays], d);
                 const auto t0 = Clock::now();
                 writer.append(census);
                 commits.push_back(ms_since(t0));
               }
               reader = std::make_unique<store::ArchiveReader>(archive);
               start_server();
             }), "s");

  const auto prefixes = published_union(sources);

  std::vector<double> warm_p50(2);
  std::uint32_t phase_index = 0;
  for (const Phase& phase : phases_of(options)) {
    const auto schedule = make_schedule(options.seed, prefixes, kOfferedRate,
                                        phase.seconds, config.key);
    if (phase_index++ > 0) {
      // Each phase starts from cold caches, like the first.
      server.reset();
      reader = std::make_unique<store::ArchiveReader>(archive);
      start_server();
    }
    const auto before = ServeBaseline::take(*server, *reader);
    enter_phase(phase);
    const auto run = run_open_loop(*server, schedule);
    Tracer::global().set_enabled(false);
    check_replies(*server, before, schedule, run, archive, result);
    warm_p50[phase.traced ? 1 : 0] = p50(run.warm_ms);
    if (!phase.traced) {
      result.set("path_ms.p50", p50(run.cold_ms), "ms");
      result.set("path_ms.tail", pct(run.cold_ms, 90.0), "ms");
      result.set("step_ms.p50", p50(run.warm_ms), "ms");
      // p90, not p99: a hit takes a few microseconds, so its p99 is
      // whichever requests the host happened to preempt; at 80 requests/s
      // it swung 30x between runs of one seed.
      result.set("step_ms.tail", pct(run.warm_ms, 90.0), "ms");
      result.counts["query.requests"] = run.sent;
      result.counts["query.first_touches"] = run.first_touches;
      result.counts["serve.executed"] =
          server->requests_executed() - before.executed;
    }
    if (phase.traced || !options.trace) {
      report_serve_layers(*server, *reader, before, run, result);
    }
  }
  result.set("census.commit_ms", p50(commits), "ms");
  report_census_layers(world->runs(), sources[0], routing_before,
                       routing_after, result);
  if (options.trace) {
    report_overhead(warm_p50[0], warm_p50[1], result);
    measure_standalone(sources, result);
    probe_layers(sources, options, {.publish = true, .query = false}, result);
  }
  server.reset();
  reader.reset();
  std::filesystem::remove_all(archive);
  return result;
}

}  // namespace pathbench
