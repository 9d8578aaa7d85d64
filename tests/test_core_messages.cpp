#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "util/bytes.hpp"

namespace laces::core {
namespace {

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_message(Message(msg));
  const auto decoded = decode_message(bytes);
  return std::get<T>(decoded);
}

TEST(Messages, WorkerHello) {
  const auto out = round_trip(WorkerHello{"ams-worker"});
  EXPECT_EQ(out.worker_name, "ams-worker");
}

TEST(Messages, HelloAck) {
  EXPECT_EQ(round_trip(HelloAck{42}).worker_id, 42);
}

TEST(Messages, StartMeasurementFullSpec) {
  StartMeasurement m;
  m.spec.id = 0xdeadbeef;
  m.spec.protocol = net::Protocol::kUdpDns;
  m.spec.version = net::IpVersion::kV6;
  m.spec.mode = ProbeMode::kUnicast;
  m.spec.worker_offset = SimDuration::minutes(13);
  m.spec.targets_per_second = 1234.5;
  m.spec.vary_payload = false;
  m.spec.chaos = true;
  m.participant_index = 7;
  m.participant_count = 32;
  m.anycast_source = net::Ipv6Address(0x3fff, 1);
  m.start_time = SimTime(987654321);

  const auto out = round_trip(m);
  EXPECT_EQ(out.spec.id, 0xdeadbeefu);
  EXPECT_EQ(out.spec.protocol, net::Protocol::kUdpDns);
  EXPECT_EQ(out.spec.version, net::IpVersion::kV6);
  EXPECT_EQ(out.spec.mode, ProbeMode::kUnicast);
  EXPECT_EQ(out.spec.worker_offset, SimDuration::minutes(13));
  EXPECT_DOUBLE_EQ(out.spec.targets_per_second, 1234.5);
  EXPECT_FALSE(out.spec.vary_payload);
  EXPECT_TRUE(out.spec.chaos);
  EXPECT_EQ(out.participant_index, 7);
  EXPECT_EQ(out.participant_count, 32);
  EXPECT_EQ(out.anycast_source.v6(), net::Ipv6Address(0x3fff, 1));
  EXPECT_EQ(out.start_time.ns(), 987654321);
}

TEST(Messages, TargetChunkMixedFamilies) {
  TargetChunk m;
  m.measurement = 9;
  m.base_index = 512;
  m.targets = {net::IpAddress(net::Ipv4Address(1, 2, 3, 4)),
               net::IpAddress(net::Ipv6Address(5, 6))};
  const auto out = round_trip(m);
  EXPECT_EQ(out.measurement, 9u);
  EXPECT_EQ(out.base_index, 512u);
  ASSERT_EQ(out.targets.size(), 2u);
  EXPECT_EQ(out.targets[0], m.targets[0]);
  EXPECT_EQ(out.targets[1], m.targets[1]);
}

TEST(Messages, EmptyTargetChunk) {
  TargetChunk m;
  m.measurement = 1;
  EXPECT_TRUE(round_trip(m).targets.empty());
}

TEST(Messages, ResultBatchWithOptionalFields) {
  ResultBatch m;
  m.measurement = 3;
  m.worker = 12;
  m.probes_sent = 4096;

  ProbeRecord full;
  full.target = net::IpAddress(net::Ipv4Address(9, 8, 7, 6));
  full.protocol = net::Protocol::kTcp;
  full.rx_worker = 12;
  full.tx_worker = 3;
  full.rx_time = SimTime(111);
  full.rtt = SimDuration::millis(42);
  full.txt = "site-a";

  ProbeRecord sparse;
  sparse.target = net::IpAddress(net::Ipv6Address(1, 2));
  sparse.protocol = net::Protocol::kIcmp;
  sparse.rx_worker = 12;
  sparse.rx_time = SimTime(222);

  m.records = {full, sparse};
  const auto out = round_trip(m);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].target, full.target);
  EXPECT_EQ(out.records[0].tx_worker, full.tx_worker);
  EXPECT_EQ(out.records[0].rtt, full.rtt);
  EXPECT_EQ(out.records[0].txt, full.txt);
  EXPECT_FALSE(out.records[1].tx_worker.has_value());
  EXPECT_FALSE(out.records[1].rtt.has_value());
  EXPECT_FALSE(out.records[1].txt.has_value());
  EXPECT_EQ(out.probes_sent, 4096u);
}

TEST(Messages, RemainingControlMessages) {
  EXPECT_EQ(round_trip(SubmitMeasurement{{.id = 5}}).spec.id, 5u);
  EXPECT_EQ(round_trip(EndOfTargets{77}).measurement, 77u);
  const auto done = round_trip(WorkerDone{8, 3});
  EXPECT_EQ(done.measurement, 8u);
  EXPECT_EQ(done.worker, 3);
  const auto complete = round_trip(MeasurementComplete{6, 32, 2});
  EXPECT_EQ(complete.workers_participated, 32);
  EXPECT_EQ(complete.workers_lost, 2);
  EXPECT_EQ(round_trip(Abort{4}).measurement, 4u);
}

TEST(Messages, HardenedControlPlaneFields) {
  // Sequence numbers, resume offsets, deadlines, and completion status all
  // survive the wire format (appended fields, old order preserved).
  StartMeasurement start;
  start.spec.id = 11;
  start.spec.deadline = SimDuration::seconds(90);
  start.resume_from = 17;
  const auto start_out = round_trip(start);
  EXPECT_EQ(start_out.spec.deadline, SimDuration::seconds(90));
  EXPECT_EQ(start_out.resume_from, 17u);

  TargetChunk chunk;
  chunk.measurement = 2;
  chunk.seq = 0xabcdef01;
  EXPECT_EQ(round_trip(chunk).seq, 0xabcdef01u);

  EndOfTargets end;
  end.measurement = 3;
  end.seq = 41;
  EXPECT_EQ(round_trip(end).seq, 41u);

  ResultBatch batch;
  batch.measurement = 4;
  batch.batch_seq = 0x1234567890ULL;
  EXPECT_EQ(round_trip(batch).batch_seq, 0x1234567890ULL);

  MeasurementComplete complete{6, 32, 2};
  complete.status = static_cast<std::uint8_t>(RunStatus::kDegraded);
  EXPECT_EQ(round_trip(complete).status,
            static_cast<std::uint8_t>(RunStatus::kDegraded));
}

TEST(Messages, HeartbeatAndChunkAck) {
  const auto hb = round_trip(Heartbeat{9, 21});
  EXPECT_EQ(hb.measurement, 9u);
  EXPECT_EQ(hb.worker, 21);
  const auto ack = round_trip(ChunkAck{7, 3, 0xfeedULL});
  EXPECT_EQ(ack.measurement, 7u);
  EXPECT_EQ(ack.worker, 3);
  EXPECT_EQ(ack.next_seq, 0xfeedULL);
}

TEST(Messages, MalformedInputThrows) {
  EXPECT_THROW(decode_message({}), DecodeError);
  const std::uint8_t bad_tag[] = {0xff, 0, 0};
  EXPECT_THROW(decode_message(bad_tag), DecodeError);
  // Truncated valid message.
  auto bytes = encode_message(Message(WorkerHello{"long-worker-name"}));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_message(bytes), DecodeError);
  // Trailing bytes after a complete message.
  auto padded = encode_message(Message(Heartbeat{9, 2}));
  padded.push_back(0);
  EXPECT_THROW(decode_message(padded), DecodeError);
}

}  // namespace
}  // namespace laces::core
