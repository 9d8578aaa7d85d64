// Seeded chaos suite for the hardened control plane.
//
// Generates dozens of random-but-deterministic fault plans (drops, dups,
// corruption, delays, partitions, worker crashes and restarts — on worker
// links and the CLI link) and layers each onto a full measurement. The
// invariants, for every plan:
//
//   1. the event loop drains (no orphaned timers, no live-lock),
//   2. the measurement reaches a terminal state (completed / degraded /
//      aborted — never hung),
//   3. no duplicate result records survive dedup,
//   4. lost workers are reflected in a non-completed status, and
//   5. the same plan replayed gives byte-identical results.
//
// A sixth check: installing an injector with an EMPTY plan changes nothing
// versus no injector at all (the hook itself is semantically free).
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "hitlist/hitlist.hpp"
#include "platform/platform.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace laces::fault {
namespace {

using laces::testing::duplicate_records;

constexpr std::uint64_t kPlans = 56;  // >= 50 per the robustness bar

struct ChaosRun {
  core::RunStatus status = core::RunStatus::kAborted;
  bool finished = false;
  bool aborted = false;
  std::uint16_t workers_lost = 0;
  std::uint64_t probes_sent = 0;
  std::size_t records = 0;
  std::size_t duplicates = 0;
  std::size_t pending_live = 0;
  std::uint64_t digest = 0;
};

std::uint64_t results_digest(const core::MeasurementResults& results) {
  StableHash h(0xc4a05);
  h.mix(static_cast<std::uint64_t>(results.status));
  h.mix(results.probes_sent);
  for (const auto& rec : results.records) {
    h.mix(net::hash_value(rec.target));
    h.mix(static_cast<std::uint64_t>(rec.rx_worker));
    h.mix(rec.tx_worker ? static_cast<std::uint64_t>(*rec.tx_worker) + 1 : 0);
    h.mix(static_cast<std::uint64_t>(rec.rx_time.ns()));
  }
  return h.value();
}

/// One full measurement under `plan` (or fault-free when null).
ChaosRun run_plan(const FaultPlan* plan) {
  EventQueue events;
  topo::NetworkConfig cfg;
  cfg.loss = 0.0;
  topo::SimNetwork network(laces::testing::shared_small_world(), events, cfg);
  network.set_day(1);
  const auto platform = platform::make_production_deployment(
      laces::testing::shared_small_world());
  core::Session session(network, platform);

  FaultInjector injector(plan ? *plan : FaultPlan{});
  if (plan) injector.install(session);

  core::MeasurementSpec spec;
  spec.id = 77;
  spec.targets_per_second = 2000;
  spec.worker_offset = SimDuration::millis(250);
  spec.deadline = SimDuration::seconds(60);
  const auto targets =
      hitlist::build_ping_hitlist(laces::testing::shared_small_world(),
                                  net::IpVersion::kV4)
          .head(150)
          .addresses();
  session.submit(spec, targets);
  events.run();

  ChaosRun out;
  out.finished = session.cli().finished();
  out.aborted = session.cli().aborted();
  const auto& results = session.cli().results();
  out.status = results.status;
  out.workers_lost = session.cli().workers_lost();
  out.probes_sent = results.probes_sent;
  out.records = results.records.size();
  out.duplicates = duplicate_records(results);
  out.pending_live = events.pending_live();
  out.digest = results_digest(results);
  return out;
}

GenerateOptions chaos_options() {
  GenerateOptions opts;
  opts.sites = 32;  // production deployment size
  opts.horizon = SimDuration::seconds(10);
  opts.min_events = 1;
  opts.max_events = 5;
  return opts;
}

TEST(ChaosSweep, EveryPlanTerminatesCleanly) {
  const auto opts = chaos_options();
  std::size_t degraded = 0, aborted = 0, completed = 0;
  for (std::uint64_t seed = 1; seed <= kPlans; ++seed) {
    const auto plan = FaultPlan::generate(seed, opts);
    const auto run = run_plan(&plan);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan:\n" +
                 plan.describe());

    // 1. The loop drained: run_plan returned and nothing live remains.
    EXPECT_EQ(run.pending_live, 0u);
    // 2. Terminal state reached.
    EXPECT_TRUE(run.finished || run.aborted);
    // 3. No duplicate records, whatever was replayed or re-sent.
    EXPECT_EQ(run.duplicates, 0u);
    // 4. Lost workers never masquerade as a clean completion.
    if (run.finished && run.workers_lost > 0) {
      EXPECT_NE(run.status, core::RunStatus::kCompleted);
    }

    degraded += run.finished && run.status == core::RunStatus::kDegraded;
    aborted += run.aborted;
    completed += run.finished && run.status == core::RunStatus::kCompleted;
  }
  // The sweep actually exercised the interesting paths: some plans must
  // have degraded or aborted runs, and some must still complete cleanly.
  EXPECT_GT(degraded + aborted, 0u);
  EXPECT_GT(completed, 0u);
}

TEST(ChaosSweep, SamePlanReplaysByteIdentically) {
  const auto opts = chaos_options();
  for (const std::uint64_t seed : {3u, 11u, 19u, 27u, 40u}) {
    const auto plan = FaultPlan::generate(seed, opts);
    const auto first = run_plan(&plan);
    const auto second = run_plan(&plan);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.status, second.status);
    EXPECT_EQ(first.probes_sent, second.probes_sent);
    EXPECT_EQ(first.records, second.records);
    EXPECT_EQ(first.workers_lost, second.workers_lost);
  }
}

TEST(ChaosSweep, EmptyPlanIsIdenticalToNoInjector) {
  const auto bare = run_plan(nullptr);
  FaultPlan empty;
  empty.seed = 9;
  const auto hooked = run_plan(&empty);
  EXPECT_EQ(bare.digest, hooked.digest);
  EXPECT_EQ(bare.status, core::RunStatus::kCompleted);
  EXPECT_EQ(hooked.status, core::RunStatus::kCompleted);
  EXPECT_EQ(bare.workers_lost, 0u);
  EXPECT_EQ(bare.duplicates, 0u);
}

TEST(ChaosSweep, InjectorCountsWhatItInjects) {
  FaultPlan plan;
  plan.seed = 5;
  FaultEvent drop;
  drop.kind = FaultKind::kDropFrames;
  drop.at = SimTime::epoch() + SimDuration::seconds(1);
  drop.duration = SimDuration::seconds(4);
  drop.site = kAllSites;
  drop.probability = 0.5;
  plan.events.push_back(drop);

  EventQueue events;
  topo::NetworkConfig cfg;
  cfg.loss = 0.0;
  topo::SimNetwork network(laces::testing::shared_small_world(), events, cfg);
  network.set_day(1);
  const auto platform = platform::make_production_deployment(
      laces::testing::shared_small_world());
  core::Session session(network, platform);
  FaultInjector injector(plan);
  injector.install(session);

  core::MeasurementSpec spec;
  spec.id = 78;
  spec.targets_per_second = 2000;
  spec.worker_offset = SimDuration::millis(250);
  spec.deadline = SimDuration::seconds(60);
  const auto targets =
      hitlist::build_ping_hitlist(laces::testing::shared_small_world(),
                                  net::IpVersion::kV4)
          .head(100)
          .addresses();
  session.submit(spec, targets);
  events.run();

  EXPECT_TRUE(session.cli().terminated());
  EXPECT_GT(injector.injected(FaultKind::kDropFrames), 0u);
  EXPECT_EQ(injector.injected(FaultKind::kCorruptFrames), 0u);
}

}  // namespace
}  // namespace laces::fault
