// Soak: a 3-relay chain under a live publisher and a storm-driven
// disconnect/reconnect chaos thread — the CI mesh-soak job runs this
// under TSan. The storm membership and timing come from the scenario
// DSL's kStorm regime via scenario::expand_storm, the same expansion
// that drives census worker outages, so the soak and the simulator
// agree on what a "storm" means. After the dust settles the tail
// subscriber must hold every published day byte-identically — no
// duplicate, no lost chunk, whatever the interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mesh/relay.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::mesh {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::v4;

census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    if ((day + i) % 3 == 0) continue;  // churn: upserts and removals
    census::PrefixRecord rec;
    rec.prefix = v4(10, static_cast<std::uint8_t>(i / 256),
                    static_cast<std::uint8_t>(i % 256));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 5};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

// Sim-time storm offsets compressed to wall time: 1 sim second = 100 ms,
// so a full outage cycle stays well inside the publisher's run.
std::chrono::nanoseconds wall(SimDuration d) {
  return std::chrono::nanoseconds(d.ns() / 10);
}

TEST(MeshSoak, ChainSurvivesDisconnectStormWithoutDuplicateOrLostDeltas) {
  constexpr std::uint32_t kDays = 12;
  const auto dir = fresh_dir("mesh_soak");
  store::ArchiveWriter writer(dir);

  auto config = [](std::uint64_t node_id) {
    RelayConfig c;
    c.node_id = node_id;
    c.name = "relay-" + std::to_string(node_id);
    c.max_rows_per_chunk = 4;  // many chunks per day: more interleavings
    return c;
  };
  Relay origin(config(1), nullptr, dir);
  Relay r2(config(2));
  Relay r3(config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, r2).ok);
  ASSERT_TRUE(connect(r2, r3).ok);
  CensusFollower follower(r3);

  // The storm plan: same DSL regime + expansion the census runner uses.
  // Two "peers" = the chain's two links.
  const auto scenario =
      scenario::Scenario::parse("storm@0s:count=2,mag=40ms", 17);
  ASSERT_EQ(scenario.regimes.size(), 1u);
  const auto outages =
      scenario::expand_storm(scenario.regimes.front(), /*regime_salt=*/5,
                             /*peers=*/2);
  ASSERT_EQ(outages.size(), 2u);

  std::atomic<bool> done{false};
  std::atomic<int> failed_reconnects{0};

  std::thread publisher([&writer, &done] {
    for (std::uint32_t day = 1; day <= kDays; ++day) {
      writer.append(make_day(day, 6 + day % 3));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true);
  });

  // One outage at a time (the chain heals between hits), cycling the
  // storm plan until the publisher finishes — every cycle ends with both
  // links up.
  std::thread chaos([&] {
    while (!done.load()) {
      for (const auto& outage : outages) {
        Relay& a = outage.peer == 0 ? origin : r2;
        Relay& b = outage.peer == 0 ? r2 : r3;
        std::this_thread::sleep_for(wall(outage.down_after));
        disconnect(a, b);
        std::this_thread::sleep_for(
            wall(SimDuration(outage.up_after.ns() - outage.down_after.ns())));
        if (!connect(a, b).ok) failed_reconnects.fetch_add(1);
      }
    }
  });

  publisher.join();
  chaos.join();
  EXPECT_EQ(failed_reconnects.load(), 0);

  // Defensive final heal (no-ops when the links are already up), then the
  // verdict: the tail subscriber reconstructed every day exactly.
  ASSERT_TRUE(connect(origin, r2).ok);
  ASSERT_TRUE(connect(r2, r3).ok);
  ASSERT_EQ(follower.days(), kDays);
  store::ArchiveReader reader(dir);
  for (std::uint32_t day = 1; day <= kDays; ++day) {
    ASSERT_TRUE(follower.has_day(day)) << "day " << day;
    std::ostringstream golden;
    reader.export_csv(day, golden);
    EXPECT_EQ(follower.day_csv(day), golden.str()) << "day " << day;
  }
  EXPECT_EQ(follower.cursor().day, kDays);
  EXPECT_EQ(r3.stats().duplicate_deltas, 0u);
  EXPECT_EQ(r2.stats().duplicate_deltas, 0u);
}

}  // namespace
}  // namespace laces::mesh
