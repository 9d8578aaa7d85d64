#include "scenario/fuzzer.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "scenario/series.hpp"
#include "topo/network.hpp"
#include "util/sha256.hpp"

namespace laces::scenario {
namespace {

namespace fs = std::filesystem;

/// Wall-clock hang detector. A hung event loop cannot be unwound from
/// within the process, so on expiry the watchdog prints the reproduction
/// handle (seed + spec) and exits with the conventional timeout status.
class Watchdog {
 public:
  explicit Watchdog(double timeout_seconds)
      : budget_(timeout_seconds) {
    if (budget_ > 0.0) thread_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void arm(std::uint64_t seed, std::string spec) {
    if (!thread_.joinable()) return;
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    seed_ = seed;
    spec_ = std::move(spec);
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(budget_));
    cv_.notify_all();
  }

  void disarm() {
    if (!thread_.joinable()) return;
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock);
        continue;
      }
      if (cv_.wait_until(lock, deadline_) == std::cv_status::timeout &&
          armed_ && !stop_) {
        std::fprintf(stderr,
                     "fuzz-scenarios: HANG after %.0fs\n  seed: %llu\n"
                     "  spec: %s\n",
                     budget_, static_cast<unsigned long long>(seed_),
                     spec_.c_str());
        std::fflush(stderr);
        std::_Exit(124);
      }
    }
  }

  const double budget_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::uint64_t seed_ = 0;
  std::string spec_;
  std::thread thread_;
};

/// The degraded-day accounting invariants, checked per seed.
std::optional<std::string> check_accounting(const CensusResult& r,
                                            const Scenario& scenario,
                                            std::uint32_t total_days) {
  std::uint64_t degraded = 0;
  for (std::uint32_t day = 1; day <= total_days; ++day) {
    if (!r.day_degraded[day]) continue;
    ++degraded;
    if (!scenario.may_degrade(day)) {
      return "day " + std::to_string(day) +
             " degraded but the scenario has no fault or outage regime "
             "licensing it";
    }
  }
  if (r.anycast.degraded_days != degraded) {
    return "longitudinal counted " + std::to_string(r.anycast.degraded_days) +
           " degraded days, census stream shows " + std::to_string(degraded);
  }
  if (r.anycast.days + r.anycast.degraded_days != total_days) {
    return "healthy (" + std::to_string(r.anycast.days) + ") + degraded (" +
           std::to_string(r.anycast.degraded_days) +
           ") days != " + std::to_string(total_days) + " days run";
  }
  return std::nullopt;
}

}  // namespace

CensusResult run_census(const topo::World& world, const Scenario* scenario,
                        std::uint32_t total_days, double targets_per_second,
                        const fs::path* archive_dir, bool resume) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  EventQueue events;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = targets_per_second;
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);
  std::optional<ScenarioRunner> runner;
  if (scenario != nullptr) runner.emplace(*scenario, session);
  CensusSeries series(
      session, pipeline, runner ? &*runner : nullptr,
      SeriesArchive{archive_dir ? *archive_dir : fs::path(), resume, ""});

  CensusResult out;
  out.worker_count = session.worker_count();
  out.day_csv.resize(total_days + 1);
  out.day_degraded.resize(total_days + 1, false);
  while (series.next_day() <= total_days) {
    const auto day = series.run_day();
    out.day_csv[day.census.day] = census::render_census(day.census);
    out.day_degraded[day.census.day] = day.census.degraded;
    if (const auto err = series.longitudinal().check_invariants()) {
      out.violation = "day " + std::to_string(day.census.day) + ": " + *err;
      break;
    }
  }
  out.anycast = series.longitudinal().anycast_based_stability();
  out.gcd = series.longitudinal().gcd_stability();
  if (runner) {
    out.regimes_applied = runner->regimes_applied();
    out.worker_outages = runner->worker_outages();
  }
  return out;
}

std::string CensusResult::digest() const {
  std::string all;
  for (const auto& csv : day_csv) all += csv;
  return to_hex(Sha256::hash(all));
}

topo::WorldConfig FuzzOptions::default_fuzz_world_config() {
  // The test suite's tiny world: ~100 v4 prefixes, every deployment family
  // present, small enough that a 2-day census stays under a second.
  topo::WorldConfig cfg;
  cfg.seed = 3;
  cfg.as_graph.tier1_count = 8;
  cfg.as_graph.transit_count = 60;
  cfg.as_graph.stub_count = 300;
  cfg.v4_unicast = 60;
  cfg.v4_unresponsive = 10;
  cfg.v4_medium_anycast_orgs = 3;
  cfg.v4_regional_anycast = 2;
  cfg.v4_global_bgp_unicast = 5;
  cfg.v4_temporary_anycast = 2;
  cfg.v4_partial_anycast = 3;
  cfg.dns_root_like = 2;
  cfg.udp_only_anycast = 1;
  cfg.tcp_only_anycast = 1;
  cfg.v6_unicast = 30;
  cfg.v6_unresponsive = 5;
  cfg.v6_medium_anycast_orgs = 2;
  cfg.v6_regional_anycast = 1;
  cfg.v6_backing_anycast = 2;
  cfg.v6_filtering_transit_fraction = 0.10;
  return cfg;
}

FuzzSummary run_fuzz(const FuzzOptions& options) {
  const auto world = topo::World::generate(options.world);
  Watchdog watchdog(options.timeout_seconds);
  FuzzSummary summary;

  const auto fail = [&](std::uint64_t seed, const std::string& spec,
                        std::string what) {
    std::fprintf(stderr,
                 "fuzz-scenarios: FAIL\n  seed: %llu\n  spec: %s\n"
                 "  violation: %s\n",
                 static_cast<unsigned long long>(seed), spec.c_str(),
                 what.c_str());
    summary.failures.push_back(FuzzFailure{seed, spec, std::move(what)});
  };

  // Sweep preamble: the scenario-off identity. A run with an empty
  // scenario (runner constructed, hooks armed, nothing scheduled) must be
  // byte-identical to a plain run — the "scenario machinery is an exact
  // no-op when disabled" contract the golden-digest tests pin globally,
  // re-checked here against this sweep's world.
  watchdog.arm(0, "(scenario-off identity check)");
  const auto plain = run_census(world, nullptr, options.days,
                                options.targets_per_second, nullptr, false);
  const Scenario empty_scenario;
  const auto off = run_census(world, &empty_scenario, options.days,
                              options.targets_per_second, nullptr, false);
  watchdog.disarm();
  if (off.digest() != plain.digest()) {
    fail(0, "", "empty scenario changed the census digest: " + off.digest() +
                    " vs plain " + plain.digest());
  }

  GenerateOptions generate = options.generate;
  generate.sites = static_cast<int>(plain.worker_count);

  for (int i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed = options.start_seed + static_cast<std::uint64_t>(i);
    const Scenario scenario = Scenario::generate(seed, generate);
    const std::string spec = scenario.to_spec();
    watchdog.arm(seed, spec);

    const auto r1 = run_census(world, &scenario, options.days,
                               options.targets_per_second, nullptr, false);
    ++summary.ran;
    summary.regimes_applied += r1.regimes_applied;
    summary.degraded_days += r1.anycast.degraded_days;
    summary.worker_outages += r1.worker_outages;

    if (r1.violation) {
      fail(seed, spec, "longitudinal invariant: " + *r1.violation);
      watchdog.disarm();
      continue;
    }
    if (const auto err = check_accounting(r1, scenario, options.days)) {
      fail(seed, spec, "degraded-day accounting: " + *err);
      watchdog.disarm();
      continue;
    }
    if (scenario.empty() && r1.digest() != plain.digest()) {
      fail(seed, spec, "empty generated scenario changed the census digest");
      watchdog.disarm();
      continue;
    }

    if (options.resume_check_every > 0 && options.days >= 2 &&
        i % options.resume_check_every == 0) {
      ++summary.resume_checks;
      const std::string tag = "seed-" + std::to_string(seed);
      const auto golden_dir = options.work_dir / (tag + "-golden");
      const auto killed_dir = options.work_dir / (tag + "-killed");
      // A leftover archive would refuse a fresh series; the series makes
      // the directories.
      fs::remove_all(golden_dir);
      fs::remove_all(killed_dir);
      const auto golden =
          run_census(world, &scenario, options.days,
                     options.targets_per_second, &golden_dir, false);
      // Kill after the first day, resume the rest in a fresh "process".
      run_census(world, &scenario, 1, options.targets_per_second,
                 &killed_dir, false);
      const auto resumed =
          run_census(world, &scenario, options.days,
                     options.targets_per_second, &killed_dir, true);
      if (golden.digest() != r1.digest()) {
        fail(seed, spec, "archiving perturbed the census digest");
      } else if (resumed.day_csv.back() != golden.day_csv.back()) {
        fail(seed, spec, "resumed run diverged from uninterrupted run");
      } else if (const auto err = compare_archives(golden_dir, killed_dir,
                                                   options.days)) {
        fail(seed, spec, "resume byte-identity: " + *err);
      }
      fs::remove_all(golden_dir);
      fs::remove_all(killed_dir);
    }

    watchdog.disarm();
    if (options.verbose) {
      std::fprintf(stderr,
                   "fuzz-scenarios: seed %llu ok (%llu regimes, %llu degraded "
                   "days)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(r1.regimes_applied),
                   static_cast<unsigned long long>(r1.anycast.degraded_days));
    }
  }
  return summary;
}

}  // namespace laces::scenario
