// Golden wire bytes: one fixed sample of every control, serve and mesh
// message kind, and one frame of every FrameKind, compared with hex
// captured from the codecs. The round-trip tests elsewhere cannot see a
// layout change made to the encoder and the decoder at once; these can.
// A failing case prints the bytes it got, so an intended layout change
// shows exactly which message moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "mesh/wire.hpp"
#include "serve/protocol.hpp"
#include "support.hpp"

namespace laces {
namespace {

using laces::testing::v4;
using laces::testing::v6;

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// --- control plane (core::Message) ---

core::MeasurementSpec sample_spec() {
  core::MeasurementSpec spec;
  spec.id = 0x01020304;
  spec.protocol = net::Protocol::kUdpDns;
  spec.version = net::IpVersion::kV6;
  spec.mode = core::ProbeMode::kUnicast;
  spec.worker_offset = SimDuration::millis(1500);
  spec.targets_per_second = 2500.25;
  spec.vary_payload = false;
  spec.chaos = true;
  spec.max_participants = 3;
  spec.deadline = SimDuration::seconds(90);
  return spec;
}

std::vector<std::uint8_t> core_bytes(std::size_t index) {
  using namespace core;
  switch (index) {
    case 0:
      return encode_message(WorkerHello{"ams-1"});
    case 1:
      return encode_message(HelloAck{513});
    case 2: {
      StartMeasurement m;
      m.spec = sample_spec();
      m.participant_index = 2;
      m.participant_count = 5;
      m.anycast_source = net::Ipv6Address(0x20010db800000000ull, 0x53);
      m.start_time = SimTime(123456789);
      m.resume_from = 4;
      return encode_message(m);
    }
    case 3:
      return encode_message(SubmitMeasurement{sample_spec()});
    case 4: {
      TargetChunk m;
      m.measurement = 9;
      m.base_index = 1024;
      m.targets = {net::IpAddress(net::Ipv4Address(192, 0, 2, 1)),
                   net::IpAddress(net::Ipv6Address(0x20010db8ull << 32, 7))};
      m.seq = 3;
      return encode_message(m);
    }
    case 5:
      return encode_message(EndOfTargets{9, 4});
    case 6: {
      ResultBatch m;
      m.measurement = 9;
      m.worker = 2;
      ProbeRecord full;
      full.target = net::Ipv4Address(198, 51, 100, 7);
      full.protocol = net::Protocol::kUdpDns;
      full.rx_worker = 2;
      full.tx_worker = 1;
      full.rx_time = SimTime(5000);
      full.rtt = SimDuration::millis(12);
      full.txt = "site-a";
      ProbeRecord sparse;
      sparse.target = net::Ipv6Address(0x20010db8ull << 32, 1);
      sparse.protocol = net::Protocol::kTcp;
      sparse.rx_worker = 3;
      sparse.rx_time = SimTime(6000);
      m.records = {full, sparse};
      m.probes_sent = 300;
      m.batch_seq = 17;
      return encode_message(m);
    }
    case 7:
      return encode_message(WorkerDone{9, 2});
    case 8: {
      MeasurementComplete m{9, 5, 1};
      m.status = static_cast<std::uint8_t>(RunStatus::kDegraded);
      return encode_message(m);
    }
    case 9:
      return encode_message(Abort{9});
    case 10:
      return encode_message(Heartbeat{9, 2});
    case 11:
      return encode_message(ChunkAck{9, 2, 5});
  }
  ADD_FAILURE() << "no control sample " << index;
  return {};
}

// --- serve requests and responses ---

std::vector<serve::Request> sample_requests() {
  using namespace serve;
  return {SummaryRequest{},
          StabilityRequest{},
          HistoryRequest{v6(0x20010db800010000ull)},
          IntermittentRequest{},
          ExportDayRequest{42},
          StatsRequest{},
          LatencyRequest{},
          TraceTailRequest{64},
          FlightRecTailRequest{300},
          MeshStatsRequest{}};
}

std::vector<serve::Response> sample_responses() {
  using namespace serve;
  SummaryResponse summary;
  summary.summary = {3, 1, 10, 12, 4000, 900, 16000, 0.05625, 12.5, 3.0};

  StabilityResponse stability;
  stability.report.anycast_based = {3, 1, 20, 15, 17.5};
  stability.report.gcd = {3, 0, 8, 6, 7.0};
  stability.report.from_checkpoint = true;

  HistoryResponse history;
  history.prefix = v4(10, 1, 2);
  history.days = {{10, false, true, true, false, 7, 0},
                  {11, true, true, false, true, 200, 3}};

  IntermittentResponse intermittent;
  intermittent.anycast_based = {v4(10, 0, 1), v6(0x20010db8ffff0000ull)};
  intermittent.gcd = {v4(10, 0, 2, 22)};

  ServeStats stats;
  stats.requests_executed = 1000;
  stats.requests_shed = 2;
  stats.auth_failures = 1;
  stats.response_cache_hits = 700;
  stats.response_cache_misses = 300;
  stats.response_cache_evictions = 5;
  stats.response_cache_entries = 64;
  stats.negative_cache_hits = 9;
  stats.negative_cache_entries = 3;
  stats.segment_cache_hits = 40;
  stats.segment_cache_misses = 16;
  stats.flightrec_recorded = 123456;
  stats.flightrec_overwritten = 7;
  stats.workers = 4;
  stats.queue_depth = 1;
  stats.queue_capacity = 256;
  stats.active_spans = 2;
  stats.draining = true;

  LatencyResponse latency;
  latency.stages = {{"queue_wait", 1000, 1.5, 20.25, 80.0, 95.5},
                    {"total", 1000, 40.0, 900.0, 1500.0, 2000.0}};

  TraceTailResponse trace;
  trace.spans = {{1, 0, "census.day", 0, 1000000},
                 {2, 1, "store.append", 500000, 900000}};
  trace.dropped = 3;

  FlightRecTailResponse flightrec;
  flightrec.events = {{1700000000, 86400, 42, 1, 7, 0, 3, 1},
                      {1700000100, -5, 0xffffffffffull, 200, 0, 2, 9, 4}};

  MeshStatsResponse mesh;
  mesh.node_id = 0x0102030405060708ull;
  mesh.name = "relay-a";
  mesh.feed_day = 12;
  mesh.feed_seq = 3;
  mesh.deltas_published = 40;
  mesh.deltas_forwarded = 80;
  mesh.deltas_dropped = 1;
  mesh.duplicate_deltas = 2;
  mesh.forwards_seen = 30;
  mesh.forward_dups_suppressed = 4;
  mesh.forwards_answered = 25;
  mesh.negative_cache_hits = 6;
  mesh.peers = {{9, "relay-b", 2, 10, 11, 12, 13}};
  mesh.subscriptions = {{5, "local", 4, 2, 1, 11, 2, 1, 300, 0},
                        {6, "relay-b", 0, 0, 0, 12, 3, 0, 40, 1}};

  return {ErrorResponse{ErrorCode::kOverloaded, "queue full", 50},
          summary,
          stability,
          history,
          intermittent,
          ExportDayResponse{7, "prefix,verdict\n10.0.0.0/24,anycast\n"},
          StatsResponse{stats},
          latency,
          trace,
          flightrec,
          mesh};
}

// --- relay mesh ---

std::vector<mesh::MeshMessage> sample_mesh() {
  using namespace mesh;
  DeltaChunk chunk;
  chunk.day = 12;
  chunk.seq = 2;
  chunk.last = true;
  chunk.degraded = true;
  chunk.lost_sites = 3;
  chunk.canary_alarms = 1;
  chunk.upserts = {{v4(10, 1, 2), "10.1.2.0/24,anycast"},
                   {v6(0x20010db8000000ffull), "v6 line"}};
  chunk.removals = {v4(10, 9, 9), v6(0x20010db8000100ffull, 40)};
  return {Hello{7, "origin", 1, 2, true},
          Welcome{9, "relay-9", 2, false},
          Reject{serve::ErrorCode::kVersionMismatch, "no overlap"},
          Forward{(7ull << 48) | 3, 7, 4, {1, 2, 3, 4}},
          ForwardReply{(7ull << 48) | 3, {9, 8, 7}},
          Subscribe{5, 6, 2, {v4(10, 0, 0, 16), v6(0x20010db800000000ull)},
                    true, Cursor{3, 1}},
          SubAck{5, false, "cursor predates the delta log"},
          chunk,
          DeltaAck{5, Cursor{12, 2}}};
}

// --- expectations ---

const std::vector<std::string> kControl = {
    "0100000005616d732d31",
    "020201",
    "03010203040206010000000059682f0040a3888000000000000100030000"
    "0014f46b0400000200050620010db8000000000000000000000053000000"
    "00075bcd150000000000000004",
    "04010203040206010000000059682f0040a3888000000000000100030000"
    "0014f46b0400",
    "050000000900000000000004000000000204c00002010620010db8000000"
    "0000000000000000070000000000000003",
    "06000000090000000000000004",
    "070000000900020000000204c63364070200020100010000000000001388"
    "010000000000b71b000100000006736974652d610620010db80000000000"
    "000000000000010100030000000000000017700000000000000000012c00"
    "00000000000011",
    "08000000090002",
    "09000000090005000102",
    "0a00000009",
    "0b000000090002",
    "0c0000000900020000000000000005",
};
const std::vector<std::string> kRequests = {
    "01",
    "02",
    "030620010db800010000000000000000000030",
    "04",
    "050000002a",
    "06",
    "07",
    "0800000040",
    "090000012c",
    "0a",
};
const std::vector<std::string> kResponses = {
    "01040000000a71756575652066756c6c00000032",
    "0203010000000a0000000ca01f8407807d3faccccccccccccd4029000000"
    "0000004008000000000000",
    "030301140f403180000000000003000806401c00000000000001",
    "04040a01020018020000000a0607000000000b0bc80103",
    "0502040a000100180620010db8ffff000000000000000000003001040a00"
    "000016",
    "0600000007000000237072656669782c766572646963740a31302e302e30"
    "2e302f32342c616e79636173740a",
    "07e8070201bc05ac02054009032810c0c407070000000400000001000001"
    "000000000201",
    "08020000000a71756575655f77616974e8073ff800000000000040344000"
    "0000000040540000000000004057e0000000000000000005746f74616ce8"
    "074044000000000000408c2000000000004097700000000000409f400000"
    "000000",
    "090201000000000a63656e7375732e646179000000000000000000000000"
    "000f424002010000000c73746f72652e617070656e64000000000007a120"
    "00000000000dbba003",
    "0a02000000006553f1000000000000015180000000000000002a01000000"
    "0700000000000301000000006553f164fffffffffffffffb000000ffffff"
    "ffffc8010000000000000002000904",
    "0b01020304050607080000000772656c61792d610000000c000000032850"
    "01021e0419060100000000000000090000000772656c61792d62020a0b0c"
    "0d0205000000056c6f63616c0402000000010000000b0000000200000001"
    "ac0200060000000772656c61792d620000000000000000000c0000000300"
    "0000002801",
};
const std::vector<std::string> kMesh = {
    "010000000000000007000000066f726967696e010201",
    "0200000000000000090000000772656c61792d390200",
    "03060000000a6e6f206f7665726c6170",
    "0400070000000000030000000000000007040000000401020304",
    "05000700000000000300000003090807",
    "060000000000000005060202040a000000100620010db800000000000000"
    "000000000030010000000300000001",
    "070000000000000005000000001d637572736f7220707265646174657320"
    "7468652064656c7461206c6f67",
    "080000000c00000002010100030000000102040a01020018000000133130"
    "2e312e322e302f32342c616e79636173740620010db80000000000000000"
    "0000000030000000077636206c696e6502040a090900180620010db80000"
    "0000000000000000000028",
    "0900000000000000050000000c00000002",
};
const std::vector<std::string> kFrames = {
    "4c530101112233445566778800000005050000002ae211764822c262dcf0"
    "0433679520080556493d35889e65c9816b5d4f2833bc09",
    "4c53010200000000000000070000001501020000000b6e6f207375636820"
    "64617900000000e9b48fe98ba7d88beee903054510b1be79c4cf642b5a09"
    "fac4e1a0d141f4f9ba",
    "4c5302030000000000000009000000110900000000000000050000000c00"
    "00000225de1a89f38eaa361d09838ad13995652da2e0bc90c65f03fd661d"
    "d44f5ec51a",
};

TEST(WireGolden, ControlMessages) {
  ASSERT_EQ(kControl.size(), std::variant_size_v<core::Message>);
  for (std::size_t i = 0; i < kControl.size(); ++i) {
    const auto bytes = core_bytes(i);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], i + 1) << "control tag is the variant index + 1";
    EXPECT_EQ(hex(bytes), kControl[i]) << "control message " << i;
  }
}

TEST(WireGolden, ServeRequests) {
  const auto requests = sample_requests();
  ASSERT_EQ(requests.size(), std::variant_size_v<serve::Request>);
  ASSERT_EQ(kRequests.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(requests[i].index(), i);
    EXPECT_EQ(hex(serve::encode_request(requests[i])), kRequests[i])
        << serve::request_label(requests[i]);
  }
}

TEST(WireGolden, ServeResponses) {
  const auto responses = sample_responses();
  ASSERT_EQ(responses.size(), std::variant_size_v<serve::Response>);
  ASSERT_EQ(kResponses.size(), responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].index(), i);
    EXPECT_EQ(hex(serve::encode_response(responses[i])), kResponses[i])
        << "response " << i;
  }
}

TEST(WireGolden, MeshMessages) {
  const auto messages = sample_mesh();
  ASSERT_EQ(messages.size(), std::variant_size_v<mesh::MeshMessage>);
  ASSERT_EQ(kMesh.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(messages[i].index(), i);
    EXPECT_EQ(hex(mesh::encode_mesh(messages[i])), kMesh[i])
        << "mesh message " << i;
  }
  // The copy-free chunk encoder writes the same bytes as the variant one.
  EXPECT_EQ(hex(mesh::encode_mesh(std::get<mesh::DeltaChunk>(messages[7]))),
            kMesh[7]);
}

TEST(WireGolden, FramesOfEveryKind) {
  const std::string key = "golden-key";
  const std::vector<std::vector<std::uint8_t>> frames = {
      serve::encode_frame(key, serve::FrameKind::kRequest, 0x1122334455667788,
                          serve::encode_request(serve::ExportDayRequest{42})),
      serve::encode_frame(
          key, serve::FrameKind::kResponse, 7,
          serve::encode_response(serve::ErrorResponse{
              serve::ErrorCode::kUnknownDay, "no such day", 0})),
      serve::encode_frame(key, serve::FrameKind::kMesh, 9,
                          mesh::encode_mesh(mesh::DeltaAck{5, {12, 2}}),
                          serve::kMeshProtocolVersion),
  };
  ASSERT_EQ(kFrames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(hex(frames[i]), kFrames[i]) << "frame kind " << i + 1;
  }
}

}  // namespace
}  // namespace laces
