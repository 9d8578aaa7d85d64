// Relay plane: peer handshake with per-peer authentication and version
// negotiation (the scenario DSL's version-skew regime picks the pinned
// node), typed unreachability, and forward-flood loop suppression on a
// randomized cyclic mesh — every query answered exactly once with a
// bounded forwarded-frame count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mesh/relay.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::mesh {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::v4;

census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 4) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, 0, static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 4};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

fs::path build_archive(const std::string& name, std::uint32_t days) {
  const auto dir = fresh_dir(name);
  store::ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= days; ++day) {
    writer.append(make_day(day));
  }
  return dir;
}

RelayConfig relay_config(std::uint64_t node_id) {
  RelayConfig config;
  config.node_id = node_id;
  config.name = "relay-" + std::to_string(node_id);
  return config;
}

std::vector<std::uint8_t> summary_frame(const std::string& key,
                                        std::uint64_t id) {
  return serve::encode_frame(
      key, serve::FrameKind::kRequest, id,
      serve::encode_request(serve::Request{serve::SummaryRequest{}}));
}

serve::Response unwrap(const std::string& key,
                       const std::vector<std::uint8_t>& frame) {
  return serve::decode_response(serve::decode_frame(key, frame).payload);
}

TEST(MeshRelay, HandshakeNegotiatesVersionAndRecordsPeers) {
  Relay a(relay_config(1));
  Relay b(relay_config(2));
  const auto result = connect(a, b);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(result.version, serve::kMeshProtocolVersion);

  const auto sa = a.stats();
  ASSERT_EQ(sa.peers.size(), 1u);
  EXPECT_EQ(sa.peers[0].node_id, 2u);
  EXPECT_EQ(sa.peers[0].name, "relay-2");
  EXPECT_EQ(sa.peers[0].version, serve::kMeshProtocolVersion);
  ASSERT_EQ(b.stats().peers.size(), 1u);
  EXPECT_EQ(b.stats().peers[0].node_id, 1u);

  // Reconnecting an already-connected pair is a no-op success.
  EXPECT_TRUE(connect(a, b).ok);
  EXPECT_EQ(a.stats().peers.size(), 1u);

  disconnect(a, b);
  EXPECT_TRUE(a.stats().peers.empty());
  EXPECT_TRUE(b.stats().peers.empty());
}

TEST(MeshRelay, RejectsPeerWithWrongKeyTyped) {
  Relay a(relay_config(1));
  auto config = relay_config(2);
  config.key = "some-other-key";
  Relay b(config);
  const auto result = connect(a, b);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, serve::ErrorCode::kBadRequest);
  EXPECT_NE(result.message.find("authentication"), std::string::npos);
  EXPECT_TRUE(a.stats().peers.empty());
  EXPECT_TRUE(b.stats().peers.empty());
}

TEST(MeshRelay, VersionSkewRefusedWithTypedMismatch) {
  // The scenario DSL's version-skew regime nominates the old-firmware
  // node; the mesh translation of "cannot speak protocol X" is a pinned
  // version_max below the mesh floor.
  const auto scenario =
      scenario::Scenario::parse("skew@0s:site=1,proto=icmp+dns", 9);
  ASSERT_EQ(scenario.regimes.size(), 1u);
  const auto& regime = scenario.regimes.front();
  ASSERT_EQ(regime.kind, scenario::RegimeKind::kSkew);
  const auto pinned_site = static_cast<std::uint64_t>(regime.site);

  std::vector<std::unique_ptr<Relay>> relays;
  for (std::uint64_t node = 0; node < 3; ++node) {
    auto config = relay_config(node + 1);
    if (node == pinned_site) {
      config.version_max = serve::kProtocolVersionMin;  // pre-mesh firmware
    }
    relays.push_back(std::make_unique<Relay>(config));
  }

  // Both directions refuse with the typed code — and return (no hang).
  for (std::uint64_t node = 0; node < 3; ++node) {
    if (node == pinned_site) continue;
    const auto forward = connect(*relays[pinned_site], *relays[node]);
    EXPECT_FALSE(forward.ok);
    EXPECT_EQ(forward.code, serve::ErrorCode::kVersionMismatch);
    const auto backward = connect(*relays[node], *relays[pinned_site]);
    EXPECT_FALSE(backward.ok);
    EXPECT_EQ(backward.code, serve::ErrorCode::kVersionMismatch);
    EXPECT_TRUE(relays[node]->stats().peers.empty());
  }
  EXPECT_TRUE(relays[pinned_site]->stats().peers.empty());

  // Modern nodes still interconnect.
  std::vector<std::uint64_t> modern;
  for (std::uint64_t node = 0; node < 3; ++node) {
    if (node != pinned_site) modern.push_back(node);
  }
  EXPECT_TRUE(connect(*relays[modern[0]], *relays[modern[1]]).ok);
}

TEST(MeshRelay, UnreachableIsTypedNotAHang) {
  auto config = relay_config(1);
  config.forward_timeout = std::chrono::milliseconds(20);
  Relay lonely(config);
  // No peers at all: immediate typed refusal.
  const auto lonely_resp =
      unwrap(config.key, lonely.query(summary_frame(config.key, 1)));
  ASSERT_TRUE(std::holds_alternative<serve::ErrorResponse>(lonely_resp));
  EXPECT_EQ(std::get<serve::ErrorResponse>(lonely_resp).code,
            serve::ErrorCode::kUnreachable);

  // Peered, but nobody in the mesh can answer: typed refusal after the
  // forward timeout instead of a wait without end.
  auto config2 = relay_config(2);
  config2.forward_timeout = std::chrono::milliseconds(20);
  Relay deaf(config2);
  ASSERT_TRUE(connect(lonely, deaf).ok);
  const auto begin = std::chrono::steady_clock::now();
  const auto peered_resp =
      unwrap(config.key, lonely.query(summary_frame(config.key, 2)));
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(std::holds_alternative<serve::ErrorResponse>(peered_resp));
  EXPECT_EQ(std::get<serve::ErrorResponse>(peered_resp).code,
            serve::ErrorCode::kUnreachable);
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // Malformed client frame: typed bad-request, not a forward.
  const auto bad = unwrap(
      config.key, lonely.query(std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(std::holds_alternative<serve::ErrorResponse>(bad));
  EXPECT_EQ(std::get<serve::ErrorResponse>(bad).code,
            serve::ErrorCode::kBadRequest);
}

TEST(MeshRelay, LoopSuppressionOnRandomizedCyclicMesh) {
  const auto dir = build_archive("mesh_loop", 2);
  store::ArchiveReader reader(dir);
  serve::ServerConfig server_config;
  server_config.threads = 2;
  serve::Server server(reader, server_config);

  constexpr std::size_t kNodes = 5;
  std::vector<std::unique_ptr<Relay>> relays;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto config = relay_config(i + 1);
    config.hop_limit = 4;
    // Node 0 is the only one with an archive-backed server.
    relays.push_back(std::make_unique<Relay>(
        config, i == 0 ? &server : nullptr));
  }

  // A ring plus two random chords: guaranteed cyclic, seeded so the
  // failure reproduces.
  std::set<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t i = 0; i < kNodes; ++i) {
    links.insert(std::minmax(i, (i + 1) % kNodes));
  }
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<std::size_t> pick(0, kNodes - 1);
  while (links.size() < kNodes + 2) {
    const std::size_t x = pick(rng);
    const std::size_t y = pick(rng);
    if (x != y) links.insert(std::minmax(x, y));
  }
  for (const auto& [x, y] : links) {
    ASSERT_TRUE(connect(*relays[x], *relays[y]).ok);
  }

  const auto total_frames = [&relays] {
    std::uint64_t total = 0;
    for (const auto& relay : relays) total += relay->frames_sent();
    return total;
  };

  // Every node's query is answered exactly once — one well-formed
  // response with the right content, whatever the flood path.
  const std::string& key = relays[0]->config().key;
  std::uint64_t request_id = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto before = total_frames();
    const auto response = unwrap(
        key, relays[i]->query(summary_frame(key, ++request_id)));
    ASSERT_TRUE(std::holds_alternative<serve::SummaryResponse>(response))
        << "node " << i;
    EXPECT_EQ(std::get<serve::SummaryResponse>(response).summary.days, 2u);
    // Loop suppression bound: each relay re-floods a forward id at most
    // once per link, so mesh frames per query stay under
    // hop_limit x links x 2 even on a cyclic graph. Without the seen-id
    // dedup a 4-hop flood on this graph would exceed it.
    EXPECT_LE(total_frames() - before, 4u * links.size() * 2u)
        << "node " << i;
  }

  // The cyclic chords force duplicate forwards somewhere — and the dedup
  // must have swallowed them.
  std::uint64_t suppressed = 0;
  std::uint64_t answered = 0;
  for (const auto& relay : relays) {
    const auto stats = relay->stats();
    suppressed += stats.forward_dups_suppressed;
    answered += stats.forwards_answered;
  }
  EXPECT_GT(suppressed, 0u);
  // Node 0 answered the four remote queries (its own went to the local
  // server directly, not through the mesh).
  EXPECT_EQ(answered, kNodes - 1);
  server.drain();
}

}  // namespace
}  // namespace laces::mesh
