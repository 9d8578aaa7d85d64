// Checkpoint/resume byte-identity: an archived census series killed after
// day k and resumed in a fresh "process" must match the uninterrupted
// series exactly — per-day publication CSVs, every segment, the manifest
// and the final checkpoint — including when deterministic faults were
// injected (and healed) before the kill. Also pins the LongitudinalStore's
// incremental stability counters to the recompute reference path.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "scenario/series.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::store {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::slurp;

/// Stamped into every checkpoint the series below write.
constexpr const char* kRunIdentity = "tiny-world;rate=50000";

struct SeriesResult {
  /// render_census per day (index = day; unrun days stay empty).
  std::vector<std::string> day_csv;
  census::StabilityStats anycast;
  census::StabilityStats gcd;
};

/// One simulated "process": builds the whole measurement stack fresh and
/// runs an archived scenario::CensusSeries over it, optionally resuming
/// from the archive's checkpoint. The contract under test is that a fresh
/// process plus the checkpoint reproduces the uninterrupted timeline.
SeriesResult run_series(const fs::path& archive_dir, std::uint32_t total_days,
                        bool resume, const char* fault_spec = nullptr,
                        const char* run_identity = kRunIdentity) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  const auto world = topo::World::generate(laces::testing::tiny_world_config());
  EventQueue events;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(network, session, platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);

  std::optional<fault::FaultInjector> injector;
  if (fault_spec != nullptr) {
    injector.emplace(fault::FaultPlan::parse(fault_spec, 7));
    injector->install(session);
  }

  scenario::CensusSeries series(
      session, pipeline, nullptr,
      scenario::SeriesArchive{archive_dir, resume, run_identity});
  SeriesResult out;
  out.day_csv.resize(total_days + 1);
  while (series.next_day() <= total_days) {
    const auto day = series.run_day().census;
    out.day_csv[day.day] = census::render_census(day);
  }
  out.anycast = series.longitudinal().anycast_based_stability();
  out.gcd = series.longitudinal().gcd_stability();
  return out;
}

TEST(StoreResume, KilledAndResumedSeriesIsByteIdentical) {
  constexpr std::uint32_t kDays = 3;
  const auto golden_dir = fresh_dir("resume_golden");
  const auto killed_dir = fresh_dir("resume_killed");

  const auto golden = run_series(golden_dir, kDays, /*resume=*/false);

  // "Kill" after day 1 (everything is torn down when run_series returns —
  // exactly what a process death leaves behind: the archive directory) and
  // resume days 2..3 in a fresh stack.
  run_series(killed_dir, /*total_days=*/1, /*resume=*/false);
  const auto resumed = run_series(killed_dir, kDays, /*resume=*/true);

  for (std::uint32_t day = 2; day <= kDays; ++day) {
    EXPECT_EQ(resumed.day_csv[day], golden.day_csv[day]) << "day " << day;
    EXPECT_FALSE(golden.day_csv[day].empty());
  }
  EXPECT_EQ(resumed.anycast, golden.anycast);
  EXPECT_EQ(resumed.gcd, golden.gcd);
  EXPECT_EQ(scenario::compare_archives(golden_dir, killed_dir, kDays),
            std::nullopt);
}

TEST(StoreResume, ResumeAfterHealedFaultsMatchesUninterrupted) {
  // Frame faults confined to the first simulated seconds of day 1 — long
  // healed by the kill point after day 2 — so the resumed process (which
  // does NOT reinstall the injector: the plan's windows are in its past)
  // must still continue the series byte-identically.
  constexpr const char* kFaults =
      "drop@2s+3s:site=1,p=0.4;delay@6s+2s:site=all,p=0.5,mag=40ms";
  constexpr std::uint32_t kDays = 3;
  const auto golden_dir = fresh_dir("resume_fault_golden");
  const auto killed_dir = fresh_dir("resume_fault_killed");

  const auto golden = run_series(golden_dir, kDays, /*resume=*/false, kFaults);
  run_series(killed_dir, /*total_days=*/2, /*resume=*/false, kFaults);
  const auto resumed = run_series(killed_dir, kDays, /*resume=*/true);

  EXPECT_EQ(resumed.day_csv[3], golden.day_csv[3]);
  EXPECT_FALSE(golden.day_csv[3].empty());
  EXPECT_EQ(resumed.anycast, golden.anycast);
  EXPECT_EQ(resumed.gcd, golden.gcd);
  EXPECT_EQ(scenario::compare_archives(golden_dir, killed_dir, kDays),
            std::nullopt);
}

TEST(StoreResume, DegradedDayAccountingSurvivesResume) {
  // Worker 0 crashes 1s into day 1 and restarts 4s later: day 1 completes
  // degraded, later days are healthy. After a kill + resume, the degraded
  // day must stay degraded — stored, but excluded from every longitudinal
  // denominator — and the whole series must stay byte-identical.
  constexpr const char* kFaults = "crash-restart@1s+4s:site=0";
  constexpr std::uint32_t kDays = 3;
  const auto golden_dir = fresh_dir("resume_degraded_golden");
  const auto killed_dir = fresh_dir("resume_degraded_killed");

  const auto golden = run_series(golden_dir, kDays, /*resume=*/false, kFaults);
  ASSERT_EQ(golden.anycast.degraded_days, 1u);
  ASSERT_EQ(golden.anycast.days, kDays - 1);

  // Kill after the degraded day 1; the resumed process does not reinstall
  // the injector (the crash-restart healed before the checkpoint).
  run_series(killed_dir, /*total_days=*/1, /*resume=*/false, kFaults);
  const auto resumed = run_series(killed_dir, kDays, /*resume=*/true);

  EXPECT_EQ(resumed.anycast.degraded_days, 1u);
  EXPECT_EQ(resumed.anycast.days, kDays - 1);
  EXPECT_EQ(resumed.anycast, golden.anycast);
  EXPECT_EQ(resumed.gcd, golden.gcd);
  EXPECT_EQ(scenario::compare_archives(golden_dir, killed_dir, kDays),
            std::nullopt);
}

TEST(StoreResume, RefusedOpensLeaveTheArchiveUntouched) {
  // The three ways an archived series refuses to open: resuming under
  // another run identity, resuming without a checkpoint, and starting a
  // fresh series over archived days. Each throws before writing anything.
  const auto dir = fresh_dir("resume_guard");
  run_series(dir, /*total_days=*/1, /*resume=*/false);
  const auto pristine = fresh_dir("resume_guard_pristine");
  fs::copy(dir, pristine, fs::copy_options::recursive);
  const auto no_checkpoint = fresh_dir("resume_guard_no_checkpoint");
  fs::copy(dir, no_checkpoint, fs::copy_options::recursive);
  fs::remove(no_checkpoint / kCheckpointFile);

  EXPECT_THROW(run_series(dir, 2, /*resume=*/true, nullptr, "other-identity"),
               scenario::SeriesRefused);
  EXPECT_THROW(run_series(dir, 2, /*resume=*/false), scenario::SeriesRefused);
  EXPECT_THROW(run_series(no_checkpoint, 2, /*resume=*/true),
               scenario::SeriesRefused);

  EXPECT_EQ(scenario::compare_archives(dir, pristine, 1), std::nullopt);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), {}), 3);
  EXPECT_EQ(slurp(no_checkpoint / kManifestFile),
            slurp(pristine / kManifestFile));
  EXPECT_EQ(slurp(no_checkpoint / segment_file_name(1)),
            slurp(pristine / segment_file_name(1)));
  EXPECT_EQ(std::distance(fs::directory_iterator(no_checkpoint), {}), 2);
}

// --- LongitudinalStore: incremental counters vs. the recompute reference ---

net::Prefix p24(std::uint8_t c) {
  return net::Ipv4Prefix(net::Ipv4Address(10, 9, c, 0), 24);
}

census::DailyCensus synthetic_day(std::uint32_t day,
                                  const std::vector<std::uint8_t>& anycast,
                                  const std::vector<std::uint8_t>& gcd,
                                  bool degraded) {
  census::DailyCensus census;
  census.day = day;
  census.degraded = degraded;
  for (const auto c : anycast) {
    census::PrefixRecord rec;
    rec.prefix = p24(c);
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 5};
    census.records.emplace(rec.prefix, rec);
  }
  for (const auto c : gcd) {
    auto& rec = census.records[p24(c)];
    rec.prefix = p24(c);
    rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
    rec.gcd_site_count = 3;
  }
  return census;
}

TEST(LongitudinalIncremental, StabilityMatchesRecomputeEveryDay) {
  // Mixed pattern: prefix 0 every healthy day, 1 intermittent, 2 once,
  // 3 GCD-only; day 3 is degraded (stored, excluded from stability).
  struct Day {
    std::vector<std::uint8_t> anycast;
    std::vector<std::uint8_t> gcd;
    bool degraded;
  };
  const std::vector<Day> days = {
      {{0, 1, 2}, {0, 3}, false}, {{0}, {0}, false},
      {{1}, {}, true},  // degraded: must not break any streaks
      {{0, 1}, {0, 3}, false},    {{0}, {3}, false},
  };
  census::LongitudinalStore store;
  std::uint32_t day = 0;
  for (const auto& d : days) {
    store.add(synthetic_day(++day, d.anycast, d.gcd, d.degraded));
    EXPECT_EQ(store.anycast_based_stability(),
              store.recompute_anycast_based_stability())
        << "after day " << day;
    EXPECT_EQ(store.gcd_stability(), store.recompute_gcd_stability())
        << "after day " << day;
  }
  const auto anycast = store.anycast_based_stability();
  EXPECT_EQ(anycast.days, 4u);
  EXPECT_EQ(anycast.degraded_days, 1u);
  EXPECT_EQ(anycast.union_size, 3u);
  EXPECT_EQ(anycast.every_day, 1u);  // only prefix 0
  EXPECT_EQ(anycast.intermittent(), 2u);
  const auto gcd = store.gcd_stability();
  EXPECT_EQ(gcd.union_size, 2u);
  EXPECT_EQ(gcd.every_day, 0u);

  // Snapshot round-trip preserves both the counters and the statistics.
  const auto revived =
      census::LongitudinalStore::from_snapshot(store.snapshot());
  EXPECT_EQ(revived.snapshot(), store.snapshot());
  EXPECT_EQ(revived.anycast_based_stability(), anycast);
  EXPECT_EQ(revived.gcd_stability(), gcd);
  EXPECT_EQ(revived.intermittent_anycast_based(),
            store.intermittent_anycast_based());
}

}  // namespace
}  // namespace laces::store
