// Pub/sub plane: the ISSUE's end-to-end contract. A subscriber that
// joins at day 0 and applies every delta chunk reconstructs any
// completed day byte-identically to the offline archive export — and to
// the served JSON — including across a mid-series disconnect/reconnect
// with cursor resume, with the publisher running the real census
// pipeline. Plus: priority classes flush high-priority first,
// family/prefix filters scope the feed without breaking cursor
// continuity, stale cursors fall back to the archive at the origin and
// are refused with a typed SubAck at a pure relay, and day commits roll
// the co-located server's negative response cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "mesh/relay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::mesh {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::v4;
using laces::testing::v6;

/// Synthetic census with both families and day-varying membership, so
/// consecutive deltas carry upserts *and* removals.
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 6) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    if ((day + i) % 3 == 0) continue;  // intermittent prefixes
    census::PrefixRecord rec;
    rec.prefix = i % 2 == 0 ? v4(10, 0, static_cast<std::uint8_t>(i))
                            : v6(0x20010db800000000ull + i);
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 4};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

std::string archived_csv(store::ArchiveReader& reader, std::uint32_t day) {
  std::ostringstream out;
  reader.export_csv(day, out);
  return out.str();
}

RelayConfig relay_config(std::uint64_t node_id) {
  RelayConfig config;
  config.node_id = node_id;
  config.name = "relay-" + std::to_string(node_id);
  return config;
}

// --- the acceptance-criteria test: real pipeline, 2-hop chain,
// disconnect/reconnect mid-series, byte-identity per day ---

TEST(MeshPubSub, SubscriberReconstructsEveryDayByteIdentically) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  const auto dir = fresh_dir("mesh_pubsub_e2e");
  store::ArchiveWriter writer(dir);

  // Chain: origin -> b -> c; declared after the writer so they detach
  // before it dies.
  Relay origin(relay_config(1), nullptr, dir);
  Relay b(relay_config(2));
  Relay c(relay_config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  ASSERT_TRUE(connect(b, c).ok);

  // Day-0 subscriber at the tail.
  CensusFollower follower(c);

  // The real census pipeline is the publisher.
  const auto& world = laces::testing::shared_tiny_world();
  EventQueue events;
  // The session and pipeline point the global tracer at `events`; unhook
  // it before `events` dies so later tests' spans do not read a dead clock.
  struct ClockReset {
    ~ClockReset() { obs::Tracer::global().set_clock(nullptr); }
  } clock_reset;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);

  for (std::uint32_t day = 1; day <= 3; ++day) {
    writer.append(pipeline.run_day(day));
    if (day == 1) disconnect(b, c);       // c misses day 2 live...
    if (day == 2) {
      const auto resumed = connect(b, c);  // ...and resumes from its cursor
      ASSERT_TRUE(resumed.ok) << resumed.message;
    }
  }

  store::ArchiveReader reader(dir);
  ASSERT_EQ(follower.days(), 3u);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    ASSERT_TRUE(follower.has_day(day)) << "day " << day;
    const auto golden = archived_csv(reader, day);
    EXPECT_EQ(follower.day_csv(day), golden) << "day " << day;
    // The JSON wrapper matches a served export-day response byte for byte.
    EXPECT_EQ(follower.day_json(day),
              serve::json_response(serve::Response{
                  serve::ExportDayResponse{day, golden}}));
  }
  EXPECT_EQ(follower.cursor().day, 3u);
  EXPECT_EQ(c.stats().duplicate_deltas, 0u);
  EXPECT_EQ(b.stats().duplicate_deltas, 0u);
}

// --- priority classes ---

TEST(MeshPubSub, HighPriorityClassFlushesFirst) {
  const auto dir = fresh_dir("mesh_pubsub_prio");
  store::ArchiveWriter writer(dir);
  auto config = relay_config(1);
  config.max_rows_per_chunk = 2;  // several chunks per day
  Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);

  std::vector<std::tuple<char, std::uint32_t, std::uint32_t>> order;
  // The low-priority class subscribes first; priority still wins.
  SubscriptionSpec lo_spec;
  lo_spec.priority = 0;
  origin.subscribe_local(lo_spec, [&order](const DeltaChunk& chunk) {
    order.emplace_back('l', chunk.day, chunk.seq);
  });
  SubscriptionSpec hi_spec;
  hi_spec.priority = 9;
  origin.subscribe_local(hi_spec, [&order](const DeltaChunk& chunk) {
    order.emplace_back('h', chunk.day, chunk.seq);
  });

  writer.append(make_day(1));
  writer.append(make_day(2));
  ASSERT_FALSE(order.empty());
  ASSERT_EQ(order.size() % 2, 0u);
  // Per chunk: the high-priority subscription is flushed first, then the
  // low-priority one, in lockstep over identical (day, seq) coordinates.
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(std::get<0>(order[i]), 'h') << "pair " << i / 2;
    EXPECT_EQ(std::get<0>(order[i + 1]), 'l') << "pair " << i / 2;
    EXPECT_EQ(std::get<1>(order[i]), std::get<1>(order[i + 1]));
    EXPECT_EQ(std::get<2>(order[i]), std::get<2>(order[i + 1]));
  }
}

// --- family / prefix filters ---

TEST(MeshPubSub, FiltersScopeRowsWithoutBreakingCursorContinuity) {
  const auto dir = fresh_dir("mesh_pubsub_filter");
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  origin.attach_publisher(writer);

  std::vector<DeltaChunk> v4_chunks;
  SubscriptionSpec v4_spec;
  v4_spec.family = 4;
  origin.subscribe_local(v4_spec, [&v4_chunks](const DeltaChunk& chunk) {
    v4_chunks.push_back(chunk);
  });

  std::vector<DeltaChunk> scoped_chunks;
  SubscriptionSpec scoped_spec;
  scoped_spec.prefixes = {v4(10, 0, 0, 16)};
  origin.subscribe_local(scoped_spec,
                         [&scoped_chunks](const DeltaChunk& chunk) {
                           scoped_chunks.push_back(chunk);
                         });

  // A filter that matches nothing must still see every cursor position.
  std::vector<DeltaChunk> empty_chunks;
  SubscriptionSpec empty_spec;
  empty_spec.prefixes = {v4(192, 168, 0, 16)};
  origin.subscribe_local(empty_spec,
                         [&empty_chunks](const DeltaChunk& chunk) {
                           empty_chunks.push_back(chunk);
                         });

  writer.append(make_day(1));
  writer.append(make_day(2));

  ASSERT_FALSE(v4_chunks.empty());
  bool saw_v4_row = false;
  for (const auto& chunk : v4_chunks) {
    for (const auto& row : chunk.upserts) {
      EXPECT_EQ(row.prefix.version(), net::IpVersion::kV4);
      saw_v4_row = true;
    }
    for (const auto& prefix : chunk.removals) {
      EXPECT_EQ(prefix.version(), net::IpVersion::kV4);
    }
  }
  EXPECT_TRUE(saw_v4_row);

  for (const auto& chunk : scoped_chunks) {
    for (const auto& row : chunk.upserts) {
      EXPECT_TRUE(prefix_covers(v4(10, 0, 0, 16), row.prefix));
    }
  }

  // Header-only chunks: same cursor stream as the unfiltered feed.
  ASSERT_EQ(empty_chunks.size(), v4_chunks.size());
  for (std::size_t i = 0; i < empty_chunks.size(); ++i) {
    EXPECT_TRUE(empty_chunks[i].upserts.empty());
    EXPECT_TRUE(empty_chunks[i].removals.empty());
    EXPECT_EQ(empty_chunks[i].day, v4_chunks[i].day);
    EXPECT_EQ(empty_chunks[i].seq, v4_chunks[i].seq);
    EXPECT_EQ(empty_chunks[i].last, v4_chunks[i].last);
  }
}

// --- archive fallback at the origin ---

TEST(MeshPubSub, LateJoinerReplaysFromArchiveWhenLogEvicted) {
  const auto dir = fresh_dir("mesh_pubsub_late");
  store::ArchiveWriter writer(dir);
  auto config = relay_config(1);
  config.max_rows_per_chunk = 2;
  config.delta_log_chunks = 1;  // evict almost immediately
  Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);
  for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));

  // The in-memory log cannot serve a from-scratch replay any more; the
  // origin must recompute the deltas from its archive.
  CensusFollower follower(origin);
  store::ArchiveReader reader(dir);
  ASSERT_EQ(follower.days(), 3u);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    EXPECT_EQ(follower.day_csv(day), archived_csv(reader, day))
        << "day " << day;
  }
}

// --- a publisher attached to a reopened archive diffs against its last day ---

TEST(MeshPubSub, ReopenedArchiveIsTheDiffBase) {
  const auto dir = fresh_dir("mesh_pubsub_reopened");
  {
    store::ArchiveWriter writer(dir);
    for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));
  }
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  origin.attach_publisher(writer);
  CensusFollower follower(origin);
  std::size_t day4_removals = 0;
  origin.subscribe_local({}, [&](const DeltaChunk& chunk) {
    if (chunk.day == 4) day4_removals += chunk.removals.size();
  });

  // Day 4 drops prefixes day 3 published; only a diff against day 3 as
  // archived removes them from the follower.
  writer.append(make_day(4));
  ASSERT_GT(day4_removals, 0u);
  store::ArchiveReader reader(dir);
  ASSERT_TRUE(follower.has_day(4));
  for (std::uint32_t day = 1; day <= 4; ++day) {
    EXPECT_EQ(follower.day_csv(day), archived_csv(reader, day))
        << "day " << day;
  }
}

// --- stale cursor at a pure relay: typed refusal, then recovery ---

TEST(MeshPubSub, PureRelayRefusesStaleCursorOriginRecovers) {
  const auto dir = fresh_dir("mesh_pubsub_stale");
  store::ArchiveWriter writer(dir);
  auto origin_config = relay_config(1);
  origin_config.max_rows_per_chunk = 2;
  Relay origin(origin_config, nullptr, dir);
  auto b_config = relay_config(2);
  b_config.max_rows_per_chunk = 2;
  b_config.delta_log_chunks = 1;  // pure relay with a tiny replay window
  Relay b(b_config);
  Relay c(relay_config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));

  // b's log no longer reaches back to the feed start and b has no
  // archive: the from-scratch Subscribe gets a failed SubAck, typed, and
  // c stays feed-less instead of receiving a hole.
  ASSERT_TRUE(connect(b, c).ok);
  EXPECT_TRUE(b.has_feed());
  EXPECT_FALSE(c.has_feed());

  // The origin can serve the same cursor from its archive.
  ASSERT_TRUE(connect(c, origin).ok);
  EXPECT_TRUE(c.has_feed());
  EXPECT_EQ(c.feed_cursor().day, 3u);
}

// --- day commits roll the co-located server's negative cache ---

TEST(MeshPubSub, DayCommitClearsNegativeResponseCache) {
  const auto dir = fresh_dir("mesh_pubsub_negcache");
  store::ArchiveWriter writer(dir);
  writer.append(make_day(1));
  writer.append(make_day(2));

  store::ArchiveReader reader(dir);
  serve::ServerConfig server_config;
  server_config.threads = 2;
  serve::Server server(reader, server_config);
  Relay relay(relay_config(1), &server, dir);
  relay.attach_publisher(writer);

  const auto ask_unknown_day = [&relay] {
    const auto& key = relay.config().key;
    static std::uint64_t id = 0;
    const auto frame = serve::encode_frame(
        key, serve::FrameKind::kRequest, ++id,
        serve::encode_request(serve::Request{serve::ExportDayRequest{99}}));
    const auto response = serve::decode_response(
        serve::decode_frame(key, relay.query(frame)).payload);
    ASSERT_TRUE(std::holds_alternative<serve::ErrorResponse>(response));
    EXPECT_EQ(std::get<serve::ErrorResponse>(response).code,
              serve::ErrorCode::kUnknownDay);
  };

  ask_unknown_day();  // miss -> negative entry
  ask_unknown_day();  // negative hit
  EXPECT_EQ(server.cache().negative_hits(), 1u);
  EXPECT_EQ(relay.stats().negative_cache_hits, 1u);

  // A committed day un-falsifies cached negatives: the relay's commit
  // hook clears both cache arenas.
  writer.append(make_day(3));
  ask_unknown_day();  // miss again (entry was cleared)
  ask_unknown_day();  // fresh negative hit
  server.drain();
  EXPECT_EQ(server.cache().negative_hits(), 2u);
}

}  // namespace
}  // namespace laces::mesh
