// laces_scenario: grammar round trips, positioned parse errors, generator
// determinism, runner no-op identity when disabled, byte-identity across
// checkpoint/resume under an active scenario, and a miniature fuzzer
// sweep. Everything here rests on the same contract as the fault plans: a
// scenario is a pure function of (seed, spec).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "census/longitudinal.hpp"
#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::scenario {
namespace {

namespace fs = std::filesystem;

std::string parse_error(const char* spec) {
  try {
    Scenario::parse(spec, 1);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioGrammar, ParseFullGrammar) {
  const auto s = Scenario::parse(
      "drop@1s+2s:site=1,p=0.5;"
      "storm@2s:count=2,mag=1500ms,days=1-3;"
      "throttle@0s:p=0.2,site=all;"
      "skew@0s:proto=tcp+dns,site=0,days=2",
      9);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.faults.seed, 9u);
  ASSERT_EQ(s.faults.events.size(), 1u);
  EXPECT_EQ(s.faults.events[0].kind, fault::FaultKind::kDropFrames);
  ASSERT_EQ(s.regimes.size(), 3u);

  EXPECT_EQ(s.regimes[0].kind, RegimeKind::kStorm);
  EXPECT_EQ(s.regimes[0].count, 2);
  EXPECT_EQ(s.regimes[0].mag, SimDuration::millis(1500));
  EXPECT_EQ(s.regimes[0].day_first, 1u);
  EXPECT_EQ(s.regimes[0].day_last, 3u);

  EXPECT_EQ(s.regimes[1].kind, RegimeKind::kThrottle);
  EXPECT_DOUBLE_EQ(s.regimes[1].p, 0.2);
  EXPECT_EQ(s.regimes[1].site, fault::kAllSites);

  EXPECT_EQ(s.regimes[2].kind, RegimeKind::kSkew);
  EXPECT_EQ(s.regimes[2].proto_mask, 0x6);  // tcp | dns
  EXPECT_EQ(s.regimes[2].site, 0);
  EXPECT_EQ(s.regimes[2].day_first, 2u);
  EXPECT_EQ(s.regimes[2].day_last, 2u);
}

TEST(ScenarioGrammar, ParseErrorsCarryLineAndColumn) {
  EXPECT_EQ(parse_error("storm@2s:count=0,mag=1s"),
            "scenario spec:1:16: count must be >= 1");
  EXPECT_EQ(parse_error("bogus@1s"), "scenario spec:1:1: unknown kind 'bogus'");
  EXPECT_EQ(parse_error("skew@0s:proto=icmp+tcp+dns"),
            "scenario spec:1:1: skew must leave at least one protocol enabled");
  EXPECT_EQ(parse_error("skew@0s:site=0"),
            "scenario spec:1:1: skew needs proto=<icmp|tcp|dns[+...]>");
  EXPECT_EQ(parse_error("diurnal@1s:site=0"),
            "scenario spec:1:1: diurnal needs an explicit +duration window");
  EXPECT_EQ(parse_error("storm@2s:mag=1s,days=3-2"),
            "scenario spec:1:22: days range must be 1 <= A <= B");
  // Second-line errors point at the exact offending token.
  EXPECT_EQ(parse_error("churn@0s:frac=0.5;\nthrottle@0s:p=1.5"),
            "scenario spec:2:15: probability out of [0,1]");
  // Fault clauses inside a scenario spec report the scenario grammar name.
  EXPECT_EQ(parse_error("drop@1s:p=7"),
            "scenario spec:1:11: probability out of [0,1]");
}

TEST(ScenarioGrammar, GeneratedScenariosRoundTripExactly) {
  GenerateOptions opts;
  opts.sites = 5;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto s = Scenario::generate(seed, opts);
    EXPECT_FALSE(s.regimes.empty()) << "seed " << seed;
    const auto back = Scenario::parse(s.to_spec(), seed);
    EXPECT_EQ(s, back) << "seed " << seed << " spec " << s.to_spec();
  }
}

TEST(ScenarioGrammar, GenerateIsDeterministicAndDiverse) {
  GenerateOptions opts;
  opts.sites = 4;
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(Scenario::generate(seed, opts), Scenario::generate(seed, opts));
    if (!(Scenario::generate(seed, opts) == Scenario::generate(1, opts))) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScenarioGrammar, MayDegradeOnlyForFaultsAndOutageRegimes) {
  EXPECT_FALSE(Scenario::parse("throttle@0s:p=0.5", 1).may_degrade(1));
  EXPECT_FALSE(Scenario::parse("route-flip@1s+2s:frac=0.3", 1).may_degrade(1));
  EXPECT_FALSE(Scenario::parse("churn@0s:frac=0.1", 1).may_degrade(2));
  EXPECT_TRUE(Scenario::parse("storm@1s:mag=1s", 1).may_degrade(1));
  EXPECT_TRUE(Scenario::parse("diurnal@1s+2s:site=0", 1).may_degrade(3));
  EXPECT_TRUE(Scenario::parse("drop@1s+2s:p=0.5", 1).may_degrade(1));
  // Day scoping: a day-2-only storm cannot degrade day 1.
  const auto scoped = Scenario::parse("storm@1s:mag=1s,days=2", 1);
  EXPECT_FALSE(scoped.may_degrade(1));
  EXPECT_TRUE(scoped.may_degrade(2));
}

// --- Runner behavior on a real census stack ---

/// Exercises every regime kind on the same timeline; fault times are
/// absolute, regime times are per-day offsets.
constexpr const char* kFullSpec =
    "drop@2s+3s:site=1,p=0.4;"
    "storm@2s:count=2,mag=1s;"
    "diurnal@3s+2s:site=2;"
    "route-flip@1s+4s:frac=0.3;"
    "path-loss@500ms+5s:frac=0.2,p=0.5;"
    "churn@0s:frac=0.1;"
    "throttle@0s:p=0.2,site=1;"
    "skew@0s:proto=tcp,site=0";

struct SeriesResult {
  std::vector<std::string> day_csv;
  std::uint64_t regimes_applied = 0;
};

/// One simulated process, optionally under a scenario, optionally
/// archiving/resuming. Mirrors run_series in tests/test_store_resume.cpp
/// plus the ScenarioRunner day bracketing.
SeriesResult run_series(const Scenario* scenario, std::uint32_t total_days,
                        const fs::path* archive_dir = nullptr,
                        bool resume = false) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  const auto& world = laces::testing::shared_tiny_world();
  EventQueue events;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);
  std::optional<ScenarioRunner> runner;
  if (scenario != nullptr) runner.emplace(*scenario, session);

  census::LongitudinalStore longitudinal;
  std::uint32_t start_day = 1;
  SimTime resumed_clock = SimTime::epoch();
  if (resume) {
    store::ArchiveReader reader(*archive_dir);
    EXPECT_TRUE(reader.has_checkpoint());
    const store::Checkpoint cp = reader.load_checkpoint();
    events.schedule_at(SimTime(cp.sim_time_ns), [] {});
    events.run();
    pipeline.restore_state(cp.pipeline);
    for (std::size_t i = 0;
         i < cp.worker_rng.size() && i < session.worker_count(); ++i) {
      session.worker(i).restore_rng_state(cp.worker_rng[i]);
    }
    obs::Tracer::global().set_next_id(cp.next_span_id);
    longitudinal = census::LongitudinalStore::from_snapshot(cp.longitudinal);
    start_day = cp.last_day + 1;
    resumed_clock = SimTime(cp.sim_time_ns);
  }
  std::optional<store::ArchiveWriter> archive;
  if (archive_dir != nullptr) archive.emplace(*archive_dir);
  if (runner) runner->install(resumed_clock);

  SeriesResult out;
  out.day_csv.resize(total_days + 1);
  for (std::uint32_t day = start_day; day <= total_days; ++day) {
    if (runner) runner->begin_day(day);
    const auto daily = pipeline.run_day(day);
    if (runner) runner->end_day();
    out.day_csv[day] = census::render_census(daily);
    longitudinal.add(daily);
    EXPECT_EQ(longitudinal.check_invariants(), std::nullopt);
    if (archive) {
      archive->append(daily);
      store::Checkpoint cp;
      cp.last_day = daily.day;
      cp.sim_time_ns = events.now().ns();
      cp.next_span_id = obs::Tracer::global().next_id();
      cp.pipeline = pipeline.state();
      cp.longitudinal = longitudinal.snapshot();
      for (std::size_t i = 0; i < session.worker_count(); ++i) {
        cp.worker_rng.push_back(session.worker(i).rng_state());
      }
      archive->write_checkpoint(cp);
    }
  }
  if (runner) out.regimes_applied = runner->regimes_applied();
  return out;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laces_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(ScenarioRunner, EmptyScenarioIsAnExactNoop) {
  const auto plain = run_series(nullptr, 1);
  const Scenario empty;
  const auto off = run_series(&empty, 1);
  ASSERT_FALSE(plain.day_csv[1].empty());
  EXPECT_EQ(off.day_csv[1], plain.day_csv[1]);
  EXPECT_EQ(off.regimes_applied, 0u);
}

TEST(ScenarioRunner, ActiveScenarioChangesTheCensus) {
  const auto plain = run_series(nullptr, 1);
  const auto scenario = Scenario::parse(kFullSpec, 5);
  const auto under = run_series(&scenario, 1);
  EXPECT_GT(under.regimes_applied, 0u);
  EXPECT_NE(under.day_csv[1], plain.day_csv[1]);
}

TEST(ScenarioRunner, KilledAndResumedScenarioSeriesIsByteIdentical) {
  constexpr std::uint32_t kDays = 3;
  const auto scenario = Scenario::parse(kFullSpec, 5);
  const auto golden_dir = fresh_dir("scenario_resume_golden");
  const auto killed_dir = fresh_dir("scenario_resume_killed");

  const auto golden = run_series(&scenario, kDays, &golden_dir);
  run_series(&scenario, /*total_days=*/1, &killed_dir);
  const auto resumed =
      run_series(&scenario, kDays, &killed_dir, /*resume=*/true);

  for (std::uint32_t day = 2; day <= kDays; ++day) {
    EXPECT_EQ(resumed.day_csv[day], golden.day_csv[day]) << "day " << day;
    EXPECT_FALSE(golden.day_csv[day].empty());
  }
  EXPECT_EQ(slurp(golden_dir / store::kManifestFile),
            slurp(killed_dir / store::kManifestFile));
  EXPECT_EQ(slurp(golden_dir / store::kCheckpointFile),
            slurp(killed_dir / store::kCheckpointFile));
  for (std::uint32_t day = 1; day <= kDays; ++day) {
    const auto name = store::segment_file_name(day);
    EXPECT_EQ(slurp(golden_dir / name), slurp(killed_dir / name)) << name;
  }
}

TEST(ScenarioFuzzer, MiniSweepFindsNoViolations) {
  FuzzOptions opts;
  opts.start_seed = 1;
  opts.seeds = 2;
  opts.days = 2;
  opts.timeout_seconds = 0;  // gtest owns the timeout here
  opts.resume_check_every = 2;  // seed index 0 gets the resume check
  opts.work_dir = fresh_dir("scenario_fuzz_work");
  const auto summary = run_fuzz(opts);
  EXPECT_EQ(summary.ran, 2);
  EXPECT_EQ(summary.resume_checks, 1);
  for (const auto& f : summary.failures) {
    ADD_FAILURE() << "seed " << f.seed << " spec '" << f.spec << "': "
                  << f.what;
  }
  fs::remove_all(opts.work_dir);
}

}  // namespace
}  // namespace laces::scenario
