// laces_serve integration: a real worker pool over a real archive, driven
// through the framed wire protocol by concurrent client threads.
//
// The load-bearing assertions:
//   - served response bodies render byte-identical to offline
//     `laces query --json` output (both go through serve/json),
//   - repeated questions are answered from the response cache (hit
//     counters increase, bodies identical),
//   - a full queue sheds with typed kOverloaded responses instead of
//     hanging (workers deliberately not started),
//   - drain() refuses new work with kShuttingDown and finishes the rest,
//   - corrupt segments surface as typed kCorruptArchive errors — the same
//     condition `laces query` reports as a line-anchored error.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "store/query.hpp"
#include "support.hpp"

namespace laces::serve {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::v4;

/// Synthetic census day. Prefix 10.0.<i>.0/24 for i < spread; prefix
/// content varies with the day so histories are non-trivial.
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 6) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, 0, static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 4};
    if ((day + i) % 2 == 0) {
      rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
      rec.gcd_site_count = 2 + i;
      rec.gcd_locations = {i, i + 1};
    }
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

fs::path build_archive(const std::string& name, std::uint32_t days) {
  const auto dir = fresh_dir(name);
  store::ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= days; ++day) {
    // Varying spread makes some prefixes intermittent.
    writer.append(make_day(day, day % 2 == 0 ? 6 : 4));
  }
  return dir;
}

std::vector<std::uint8_t> request_frame(const std::string& key,
                                        std::uint64_t id,
                                        const Request& request) {
  return encode_frame(key, FrameKind::kRequest, id, encode_request(request));
}

Response response_of(const std::string& key,
                     const std::vector<std::uint8_t>& frame) {
  const Frame decoded = decode_frame(key, frame);
  EXPECT_EQ(decoded.kind, FrameKind::kResponse);
  return decode_response(decoded.payload);
}

TEST(ServeServer, ConcurrentClientsMatchOfflineJsonByteForByte) {
  const auto dir = build_archive("serve_integration", 4);

  // Offline reference: exactly what `laces query --json` prints, rendered
  // through the same serve/json functions the served path uses.
  store::ArchiveReader offline_reader(dir);
  store::QueryEngine offline(offline_reader);
  const std::string expect_summary = json_summary(offline.summary());
  const std::string expect_stability = json_stability(offline.stability());
  const std::string expect_intermittent = json_intermittent(
      offline.intermittent_anycast_based(), offline.intermittent_gcd());
  const auto history_prefix = v4(10, 0, 5);  // absent on odd days
  const std::string expect_history =
      json_history(history_prefix, offline.history(history_prefix));

  store::ArchiveReader reader(dir);
  ServerConfig config;
  config.threads = 4;
  Server server(reader, config);

  // Four client threads, each its own connection, each asking every
  // question several times concurrently.
  constexpr int kClients = 4;
  constexpr int kRounds = 5;
  std::vector<std::string> rendered[kClients];
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto connection = server.connect();
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<Request> asks = {
            SummaryRequest{}, StabilityRequest{},
            HistoryRequest{history_prefix}, IntermittentRequest{}};
        std::vector<std::future<std::vector<std::uint8_t>>> pending;
        for (std::size_t i = 0; i < asks.size(); ++i) {
          const auto id = static_cast<std::uint64_t>(c) << 32 |
                          static_cast<std::uint64_t>(round * 4 + i);
          pending.push_back(
              connection->submit(request_frame(config.key, id, asks[i])));
        }
        for (auto& future : pending) {
          rendered[c].push_back(
              json_response(response_of(config.key, future.get())));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every client saw every answer byte-identical to the offline JSON.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(rendered[c].size(),
              static_cast<std::size_t>(kRounds) * 4);
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(rendered[c][round * 4 + 0], expect_summary);
      EXPECT_EQ(rendered[c][round * 4 + 1], expect_stability);
      EXPECT_EQ(rendered[c][round * 4 + 2], expect_history);
      EXPECT_EQ(rendered[c][round * 4 + 3], expect_intermittent);
    }
  }

  // 80 submissions of 4 distinct questions: at most 4 executions can be
  // "first" per question under races, everything else must be cache hits.
  const auto total =
      static_cast<std::uint64_t>(kClients) * kRounds * 4;
  EXPECT_EQ(server.cache_hits() + server.requests_executed(), total);
  EXPECT_GT(server.cache_hits(), 0u);
  EXPECT_GE(server.requests_executed(), 4u);
  EXPECT_EQ(server.requests_shed(), 0u);
  EXPECT_EQ(server.auth_failures(), 0u);
}

TEST(ServeServer, RepeatedQuestionIsServedFromCache) {
  const auto dir = build_archive("serve_cache_hits", 3);
  store::ArchiveReader reader(dir);
  Server server(reader, ServerConfig{});
  auto connection = server.connect();

  const auto frame = request_frame(server.config().key, 1, SummaryRequest{});
  const auto first = response_of(server.config().key,
                                 connection->call(frame));
  EXPECT_EQ(server.cache_hits(), 0u);
  EXPECT_EQ(server.requests_executed(), 1u);

  const auto hits_before = server.cache().hits();
  for (std::uint64_t id = 2; id <= 6; ++id) {
    const auto again = response_of(
        server.config().key,
        connection->call(request_frame(server.config().key, id,
                                       SummaryRequest{})));
    EXPECT_EQ(json_response(again), json_response(first));
  }
  EXPECT_EQ(server.cache().hits(), hits_before + 5);
  EXPECT_EQ(server.requests_executed(), 1u);  // never re-executed
}

TEST(ServeServer, FullQueueShedsWithRetryAfterInsteadOfHanging) {
  const auto dir = build_archive("serve_shed", 2);
  store::ArchiveReader reader(dir);
  ServerConfig config;
  config.start_workers = false;  // fill the queue deterministically
  config.queue_capacity = 3;
  config.max_inflight_per_connection = 100;
  config.retry_after_ms = 75;
  Server server(reader, config);
  auto connection = server.connect();

  // Distinct requests (different days) so none is answered from cache.
  std::vector<std::future<std::vector<std::uint8_t>>> queued;
  for (std::uint64_t id = 0; id < 3; ++id) {
    queued.push_back(connection->submit(request_frame(
        config.key, id, ExportDayRequest{static_cast<std::uint32_t>(1 + id % 2)})));
  }
  // Queue is now full: further submissions shed immediately.
  for (std::uint64_t id = 10; id < 14; ++id) {
    auto shed = connection->submit(
        request_frame(config.key, id, SummaryRequest{}));
    ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shed response must be immediate, not queued";
    const auto response = response_of(config.key, shed.get());
    const auto* error = std::get_if<ErrorResponse>(&response);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kOverloaded);
    EXPECT_EQ(error->retry_after_ms, 75u);
  }
  EXPECT_EQ(server.requests_shed(), 4u);
  EXPECT_EQ(server.queue_depth(), 3u);

  // Starting the pool drains the accepted jobs to real answers.
  server.start();
  for (auto& future : queued) {
    const auto response = response_of(config.key, future.get());
    EXPECT_TRUE(std::holds_alternative<ExportDayResponse>(response));
  }
  EXPECT_EQ(server.requests_executed(), 3u);
}

TEST(ServeServer, PerConnectionInflightCapSheds) {
  const auto dir = build_archive("serve_inflight", 2);
  store::ArchiveReader reader(dir);
  ServerConfig config;
  config.start_workers = false;
  config.queue_capacity = 100;
  config.max_inflight_per_connection = 2;
  Server server(reader, config);
  auto saturated = server.connect();
  auto fresh = server.connect();

  std::vector<std::future<std::vector<std::uint8_t>>> held;
  held.push_back(saturated->submit(
      request_frame(config.key, 1, ExportDayRequest{1})));
  held.push_back(saturated->submit(
      request_frame(config.key, 2, ExportDayRequest{2})));
  // Third request on the same connection: over the cap, shed.
  const auto response = response_of(
      config.key,
      saturated->submit(request_frame(config.key, 3, SummaryRequest{}))
          .get());
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kOverloaded);
  // The cap is per connection: another connection is still admitted.
  held.push_back(
      fresh->submit(request_frame(config.key, 4, SummaryRequest{})));
  EXPECT_EQ(server.queue_depth(), 3u);

  server.start();
  for (auto& future : held) {
    EXPECT_FALSE(std::holds_alternative<ErrorResponse>(
        response_of(config.key, future.get())));
  }
}

TEST(ServeServer, DrainAnswersQueuedWorkAndRefusesNew) {
  const auto dir = build_archive("serve_drain", 2);
  store::ArchiveReader reader(dir);
  Server server(reader, ServerConfig{});
  auto connection = server.connect();

  auto pending = connection->submit(
      request_frame(server.config().key, 1, SummaryRequest{}));
  server.drain();
  // Accepted work was finished, not dropped.
  EXPECT_FALSE(std::holds_alternative<ErrorResponse>(
      response_of(server.config().key, pending.get())));

  // Post-drain submissions get a typed shutting-down response.
  const auto refused = response_of(
      server.config().key,
      connection->submit(request_frame(server.config().key, 2,
                                       StabilityRequest{}))
          .get());
  const auto* error = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kShuttingDown);
  server.drain();  // idempotent
}

TEST(ServeServer, BadMacAndGarbageFramesAreTypedErrors) {
  const auto dir = build_archive("serve_auth", 2);
  store::ArchiveReader reader(dir);
  Server server(reader, ServerConfig{});
  auto connection = server.connect();

  // Signed with the wrong key: structurally valid, MAC fails.
  auto forged = request_frame("wrong-key", 7, SummaryRequest{});
  auto response = response_of(server.config().key,
                              connection->call(std::move(forged)));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBadRequest);

  // Complete garbage still yields a signed, parseable error frame.
  response = response_of(server.config().key,
                         connection->call({0xde, 0xad, 0xbe, 0xef}));
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(server.auth_failures(), 2u);
}

TEST(ServeServer, UnknownDayIsTypedNotFatal) {
  const auto dir = build_archive("serve_unknown_day", 2);
  store::ArchiveReader reader(dir);
  Server server(reader, ServerConfig{});
  auto connection = server.connect();
  const auto response = response_of(
      server.config().key,
      connection->call(request_frame(server.config().key, 1,
                                     ExportDayRequest{99})));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kUnknownDay);
}

TEST(ServeServer, CorruptSegmentIsTypedCorruptArchiveError) {
  const auto dir = build_archive("serve_corrupt", 2);
  // Flip one byte in day 2's segment: its SHA-256 footer no longer
  // verifies. The server must answer with a typed error — the exact
  // condition `laces query` turns into a line-anchored stderr error.
  const auto segment = dir / store::segment_file_name(2);
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(12);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x55);  // guaranteed to change
    file.seekp(12);
    file.write(&byte, 1);
  }
  store::ArchiveReader reader(dir);
  Server server(reader, ServerConfig{});
  auto connection = server.connect();

  const auto response = response_of(
      server.config().key,
      connection->call(request_frame(server.config().key, 1,
                                     ExportDayRequest{2})));
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kCorruptArchive);
  EXPECT_NE(error->message.find("day-00002"), std::string::npos)
      << "error should name the corrupt segment: " << error->message;

  // The intact day still serves.
  const auto good = response_of(
      server.config().key,
      connection->call(request_frame(server.config().key, 2,
                                     ExportDayRequest{1})));
  EXPECT_TRUE(std::holds_alternative<ExportDayResponse>(good));
}

}  // namespace
}  // namespace laces::serve
