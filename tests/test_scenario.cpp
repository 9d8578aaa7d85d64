// laces_scenario: grammar round trips, positioned parse errors, generator
// determinism, runner no-op identity when disabled, byte-identity across
// checkpoint/resume under an active scenario, and a miniature fuzzer
// sweep. Everything here rests on the same contract as the fault plans: a
// scenario is a pure function of (seed, spec).
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/fuzzer.hpp"
#include "scenario/scenario.hpp"
#include "scenario/series.hpp"
#include "support.hpp"

namespace laces::scenario {
namespace {

namespace fs = std::filesystem;
using laces::testing::fresh_dir;

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

/// One simulated process, as the fuzzer runs it, on the test suite's tiny
/// world; every day must keep the longitudinal invariants.
CensusResult run_series(const Scenario* scenario, std::uint32_t total_days,
                        const fs::path* archive_dir = nullptr,
                        bool resume = false) {
  auto result = run_census(laces::testing::shared_tiny_world(), scenario,
                           total_days, 50000, archive_dir, resume);
  EXPECT_EQ(result.violation, std::nullopt);
  return result;
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
  EXPECT_EQ(compare_archives(golden_dir, killed_dir, kDays), std::nullopt);
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
