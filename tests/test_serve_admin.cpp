// The live introspection plane: admin request/response wire round-trips,
// frame authentication over admin payloads (flip every bit, expect
// rejection), and the serving semantics that make admin queries safe to
// issue against a distressed server — answered inline on the submitting
// thread (workers stopped, queue full, or draining), never cached, and
// reporting truthful counters.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "census/census.hpp"
#include "obs/flightrec.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::serve {
namespace {

namespace fs = std::filesystem;

using laces::testing::v4;

census::DailyCensus make_day(std::uint32_t day) {
  census::DailyCensus census;
  census.day = day;
  for (std::uint32_t i = 0; i < 4; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, 0, static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 3};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

fs::path build_archive(const std::string& name) {
  const fs::path dir = laces::testing::fresh_dir(name);
  store::ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= 2; ++day) writer.append(make_day(day));
  return dir;
}

std::vector<std::uint8_t> request_frame(const std::string& key,
                                        std::uint64_t id,
                                        const Request& request) {
  return encode_frame(key, FrameKind::kRequest, id, encode_request(request));
}

Response roundtrip_call(const std::string& key, Connection& connection,
                        std::uint64_t id, const Request& request) {
  const auto reply = connection.call(request_frame(key, id, request));
  const Frame decoded = decode_frame(key, reply);
  return decode_response(decoded.payload);
}

TEST(ServeAdmin, AdminRequestsRoundTripAndAreFlagged) {
  const std::vector<Request> admin = {
      StatsRequest{},
      LatencyRequest{},
      TraceTailRequest{64},
      FlightRecTailRequest{128},
  };
  for (const auto& request : admin) {
    EXPECT_TRUE(is_admin_request(request)) << request_label(request);
    const auto bytes = encode_request(request);
    EXPECT_EQ(decode_request(bytes), request) << request_label(request);
  }
  EXPECT_FALSE(is_admin_request(SummaryRequest{}));
  EXPECT_FALSE(is_admin_request(ExportDayRequest{1}));
}

TEST(ServeAdmin, AdminResponsesRoundTripEveryField) {
  StatsResponse stats;
  stats.stats.requests_executed = 101;
  stats.stats.requests_shed = 7;
  stats.stats.auth_failures = 3;
  stats.stats.response_cache_hits = 55;
  stats.stats.response_cache_misses = 44;
  stats.stats.response_cache_evictions = 2;
  stats.stats.response_cache_entries = 42;
  stats.stats.segment_cache_hits = 9;
  stats.stats.segment_cache_misses = 1;
  stats.stats.flightrec_recorded = 1u << 20;
  stats.stats.flightrec_overwritten = 12;
  stats.stats.workers = 4;
  stats.stats.queue_depth = 17;
  stats.stats.queue_capacity = 256;
  stats.stats.active_spans = 5;
  stats.stats.draining = true;

  LatencyResponse latency;
  latency.stages.push_back({"queue_wait", 1000, 1.5, 9.25, 40.0, 51.5});
  latency.stages.push_back({"total", 1000, 3.0, 20.0, 90.0, 120.0});

  TraceTailResponse trace;
  trace.dropped = 4;
  trace.spans.push_back({7, 1, "census.day", 100, 900});

  FlightRecTailResponse flight;
  FlightEvent ev;
  ev.wall_ns = 1'700'000'000'000'000'000;
  ev.sim_ns = 86'400'000'000'000;
  ev.a = 42;
  ev.seq = 9001;
  ev.b = 17;
  ev.ring = 3;
  ev.code = 2;
  ev.kind = static_cast<std::uint8_t>(obs::FrEvent::kWatchdogFire);
  flight.events.push_back(ev);

  const std::vector<Response> responses = {Response{stats},
                                           Response{latency}, Response{trace},
                                           Response{flight}};
  for (const auto& response : responses) {
    const auto bytes = encode_response(response);
    EXPECT_EQ(decode_response(bytes), response);
    // Every admin response renders to one JSON line.
    const std::string json = json_response(response);
    EXPECT_FALSE(json.empty());
    EXPECT_EQ(json.back(), '\n');
  }
}

TEST(ServeAdmin, FlippingAnyBitOfAnAdminFrameIsRejected) {
  const auto frame = request_frame("k", 9, StatsRequest{});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = frame;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(decode_frame("k", bad), ProtocolError)
          << "byte " << i << " bit " << bit;
    }
  }
  EXPECT_NO_THROW(decode_frame("k", frame));
  EXPECT_THROW(decode_frame("other-key", frame), ProtocolError);
}

TEST(ServeAdmin, AnsweredInlineWithWorkersStopped) {
  const auto dir = build_archive("admin_inline");
  store::ArchiveReader reader(dir, 2);
  ServerConfig config;
  config.threads = 2;
  config.queue_capacity = 4;
  config.start_workers = false;  // nothing will ever drain the queue
  Server server(reader, config);
  const auto connection = server.connect();

  // Park a normal request in the queue; with no workers it cannot finish.
  auto pending = connection->submit(
      request_frame(config.key, 1, SummaryRequest{}));

  // Admin queries answer anyway, on this thread, reflecting the queue.
  const auto response =
      roundtrip_call(config.key, *connection, 2, StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->stats.queue_depth, 1u);
  EXPECT_EQ(stats->stats.queue_capacity, 4u);
  EXPECT_EQ(stats->stats.workers, 2u);
  EXPECT_FALSE(stats->stats.draining);
  EXPECT_EQ(stats->stats.requests_executed, 0u);

  const auto latency =
      roundtrip_call(config.key, *connection, 3, LatencyRequest{});
  const auto* stages = std::get_if<LatencyResponse>(&latency);
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->stages.size(), 4u);
  EXPECT_EQ(stages->stages[0].stage, "queue_wait");
  EXPECT_EQ(stages->stages[1].stage, "archive_read");
  EXPECT_EQ(stages->stages[2].stage, "render");
  EXPECT_EQ(stages->stages[3].stage, "total");

  server.start();  // let the parked request finish before teardown
  pending.get();
  server.drain();
  fs::remove_all(dir);
}

TEST(ServeAdmin, AdminRequestsAreNeverCachedOrCounted) {
  const auto dir = build_archive("admin_nocache");
  store::ArchiveReader reader(dir, 2);
  ServerConfig config;
  config.threads = 1;
  Server server(reader, config);
  const auto connection = server.connect();

  const auto before_hits = server.cache().hits();
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto response =
        roundtrip_call(config.key, *connection, 10 + i, StatsRequest{});
    EXPECT_TRUE(std::holds_alternative<StatsResponse>(response));
  }
  // Identical admin questions five times over: still zero cache traffic,
  // zero executions, zero queue occupancy.
  EXPECT_EQ(server.cache().hits(), before_hits);
  EXPECT_EQ(server.cache().size(), 0u);
  EXPECT_EQ(server.requests_executed(), 0u);

  server.drain();
  fs::remove_all(dir);
}

TEST(ServeAdmin, StatsTrackRealTrafficAndStagesFill) {
  const auto dir = build_archive("admin_traffic");
  store::ArchiveReader reader(dir, 2);
  ServerConfig config;
  config.threads = 2;
  Server server(reader, config);
  const auto connection = server.connect();

  // One miss (executed by a worker) + one hit (served from cache).
  for (std::uint64_t i = 0; i < 2; ++i) {
    const auto response =
        roundtrip_call(config.key, *connection, 20 + i, SummaryRequest{});
    EXPECT_TRUE(std::holds_alternative<SummaryResponse>(response));
  }

  const auto response =
      roundtrip_call(config.key, *connection, 30, StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->stats.requests_executed, 1u);
  EXPECT_EQ(stats->stats.response_cache_hits, 1u);
  EXPECT_EQ(stats->stats.response_cache_misses, 1u);
  EXPECT_GE(stats->stats.flightrec_recorded, 2u);  // hit + miss events

  const auto latency =
      roundtrip_call(config.key, *connection, 31, LatencyRequest{});
  const auto* stages = std::get_if<LatencyResponse>(&latency);
  ASSERT_NE(stages, nullptr);
  for (const auto& stage : stages->stages) {
    EXPECT_EQ(stage.count, 1u) << stage.stage;  // the one executed request
    EXPECT_GE(stage.p999_us, stage.p50_us) << stage.stage;
    EXPECT_GE(stage.max_us, 0.0) << stage.stage;
  }

  server.drain();
  fs::remove_all(dir);
}

TEST(ServeAdmin, AnsweredWhileDrainingAndReportsIt) {
  const auto dir = build_archive("admin_drain");
  store::ArchiveReader reader(dir, 2);
  ServerConfig config;
  config.threads = 1;
  Server server(reader, config);
  const auto connection = server.connect();
  server.drain();

  // Normal traffic is refused after drain...
  const auto refused =
      roundtrip_call(config.key, *connection, 40, SummaryRequest{});
  const auto* error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kShuttingDown);

  // ...but admin introspection still answers, and says so.
  const auto response =
      roundtrip_call(config.key, *connection, 41, StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->stats.draining);

  fs::remove_all(dir);
}

TEST(ServeAdmin, FlightRecTailAndTraceTailHonorMax) {
  const auto dir = build_archive("admin_tails");
  store::ArchiveReader reader(dir, 2);
  ServerConfig config;
  config.threads = 1;
  Server server(reader, config);
  const auto connection = server.connect();

  // Generate a burst of recorder events via real traffic.
  for (std::uint64_t i = 0; i < 10; ++i) {
    roundtrip_call(config.key, *connection, 50 + i, SummaryRequest{});
  }
  const auto response =
      roundtrip_call(config.key, *connection, 70, FlightRecTailRequest{3});
  const auto* flight = std::get_if<FlightRecTailResponse>(&response);
  ASSERT_NE(flight, nullptr);
  EXPECT_LE(flight->events.size(), 3u);
  EXPECT_FALSE(flight->events.empty());

  const auto trace =
      roundtrip_call(config.key, *connection, 71, TraceTailRequest{2});
  const auto* spans = std::get_if<TraceTailResponse>(&trace);
  ASSERT_NE(spans, nullptr);
  EXPECT_LE(spans->spans.size(), 2u);

  server.drain();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace laces::serve
