// Flight recorder: ring wrap/overwrite accounting, deterministic merged
// ordering under multi-threaded recording, dump round-trip through the
// binary format, structural rejection of corrupt dumps, and the
// enabled/clock switches. Each test uses a private FlightRecorder so the
// process-global instance (and other tests) stay untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/flightrec.hpp"
#include "util/event_queue.hpp"

namespace laces::obs {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> dump_bytes(const FlightRecorder& rec,
                                     const std::string& name) {
  const fs::path path = fs::temp_directory_path() / name;
  EXPECT_TRUE(rec.dump(path.string()));
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in), {});
  fs::remove(path);
  return bytes;
}

TEST(FlightRecorder, WrapKeepsNewestAndCountsOverwritten) {
  FlightRecorder rec;
  rec.set_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(FrEvent::kMarker, 0, /*a=*/i);
  }
  EXPECT_EQ(rec.ring_count(), 1u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);

  const auto tail = rec.merged_tail(0);
  ASSERT_EQ(tail.size(), 8u);
  // Flight-recorder semantics: the newest events survive, oldest are gone.
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, 12u + i);
    EXPECT_EQ(tail[i].record.a, 12u + i);
    EXPECT_EQ(static_cast<FrEvent>(tail[i].record.kind), FrEvent::kMarker);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec;
  rec.set_capacity(5);
  EXPECT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 8; ++i) rec.record(FrEvent::kHeartbeat);
  EXPECT_EQ(rec.overwritten(), 0u);
  rec.record(FrEvent::kHeartbeat);
  EXPECT_EQ(rec.overwritten(), 1u);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.record(FrEvent::kMarker);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.ring_count(), 0u);  // not even a ring registration
  rec.set_enabled(true);
  rec.record(FrEvent::kMarker);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorder, ResetDropsHistoryButKeepsRings) {
  FlightRecorder rec;
  for (int i = 0; i < 5; ++i) rec.record(FrEvent::kCheckpoint, 0, i);
  rec.reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.ring_count(), 1u);
  EXPECT_TRUE(rec.merged_tail(0).empty());
  rec.record(FrEvent::kCheckpoint, 0, 99);
  ASSERT_EQ(rec.merged_tail(0).size(), 1u);
  EXPECT_EQ(rec.merged_tail(0)[0].record.a, 99u);
}

TEST(FlightRecorder, SimClockStampedWhenAttached) {
  FlightRecorder rec;
  rec.record(FrEvent::kMarker);  // no clock: sim_ns is 0
  EventQueue events;
  rec.set_clock(&events);
  events.schedule_at(SimTime() + SimDuration::from_seconds(5.0),
                     [&] { rec.record(FrEvent::kDayComplete, 0, 1); });
  events.run();
  const auto tail = rec.merged_tail(0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].record.sim_ns, 0);
  EXPECT_EQ(tail[1].record.sim_ns, 5'000'000'000);
}

TEST(FlightRecorder, MultiThreadMergeIsDeterministic) {
  FlightRecorder rec;
  rec.set_capacity(64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        rec.record(FrEvent::kResultBatch, static_cast<std::uint16_t>(t), i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(rec.ring_count(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(rec.recorded(), kThreads * kEvents);
  EXPECT_EQ(rec.overwritten(), kThreads * (kEvents - 64));

  // Same recording, same merged order — twice.
  const auto a = rec.merged_tail(0);
  const auto b = rec.merged_tail(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ring, b[i].ring);
    EXPECT_EQ(a[i].seq, b[i].seq);
  }
  // Per ring, surviving events are exactly the newest 64 in seq order.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::uint64_t> seqs;
    for (const auto& ev : a) {
      if (ev.record.code == t) seqs.push_back(ev.seq);
    }
    std::sort(seqs.begin(), seqs.end());
    ASSERT_EQ(seqs.size(), 64u);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], kEvents - 64 + i);
    }
  }
  // The merged tail respects the documented (wall_ns, ring, seq) order.
  for (std::size_t i = 1; i < a.size(); ++i) {
    const auto& x = a[i - 1];
    const auto& y = a[i];
    EXPECT_TRUE(x.record.wall_ns < y.record.wall_ns ||
                (x.record.wall_ns == y.record.wall_ns &&
                 (x.ring < y.ring || (x.ring == y.ring && x.seq < y.seq))));
  }
}

TEST(FlightRecorder, DumpRoundTripsThroughDecoder) {
  FlightRecorder rec;
  rec.set_capacity(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(FrEvent::kRequestEnd, static_cast<std::uint16_t>(i % 3),
               /*a=*/1000 + i, /*b=*/static_cast<std::uint32_t>(7 * i));
  }
  const auto bytes = dump_bytes(rec, "laces_flightrec_roundtrip.bin");
  const auto decoded = decode_flight_dump(bytes);
  const auto live = rec.merged_tail(0);
  ASSERT_EQ(decoded.size(), live.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].ring, live[i].ring);
    EXPECT_EQ(decoded[i].seq, live[i].seq);
    EXPECT_EQ(decoded[i].record.wall_ns, live[i].record.wall_ns);
    EXPECT_EQ(decoded[i].record.sim_ns, live[i].record.sim_ns);
    EXPECT_EQ(decoded[i].record.a, live[i].record.a);
    EXPECT_EQ(decoded[i].record.b, live[i].record.b);
    EXPECT_EQ(decoded[i].record.code, live[i].record.code);
    EXPECT_EQ(decoded[i].record.kind, live[i].record.kind);
  }
}

TEST(FlightRecorder, DumpSurvivesWrapAndMultipleRings) {
  FlightRecorder rec;
  rec.set_capacity(4);
  std::thread other([&rec] {
    for (std::uint64_t i = 0; i < 9; ++i) {
      rec.record(FrEvent::kHeartbeat, 1, i);
    }
  });
  other.join();
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(FrEvent::kCheckpoint, 2, i);
  }
  const auto decoded =
      decode_flight_dump(dump_bytes(rec, "laces_flightrec_wrap.bin"));
  // 4 survivors per ring.
  EXPECT_EQ(decoded.size(), 8u);
  EXPECT_EQ(rec.overwritten(), 5u + 2u);
}

TEST(FlightRecorder, TruncatedDumpIsRejectedAtEveryLength) {
  FlightRecorder rec;
  rec.set_capacity(8);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(FrEvent::kMarker, 0, i);
  const auto bytes = dump_bytes(rec, "laces_flightrec_trunc.bin");
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode_flight_dump({bytes.data(), len}), std::runtime_error)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW(decode_flight_dump(bytes));
}

TEST(FlightRecorder, CorruptHeaderAndTrailingBytesRejected) {
  FlightRecorder rec;
  rec.record(FrEvent::kMarker);
  auto bytes = dump_bytes(rec, "laces_flightrec_corrupt.bin");

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_flight_dump(bad_magic), std::runtime_error);

  // A ring claiming more stored records than its sequence number saw.
  // Layout: magic u32 | ring_count u32 | ring_id u32 | seq u64 | stored
  // u32 — the stored field's low byte sits at offset 23 (big-endian).
  auto bad_stored = bytes;
  bad_stored[23] = 9;  // ring 0: stored 9 > seq 1
  EXPECT_THROW(decode_flight_dump(bad_stored), std::runtime_error);

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(decode_flight_dump(trailing), std::runtime_error);
}

TEST(FlightRecorder, JsonlOutputIsOneObjectPerEvent) {
  FlightRecorder rec;
  rec.record(FrEvent::kWatchdogFire, 1, 42, 7);
  std::ostringstream out;
  write_flight_jsonl(out, rec.merged_tail(0));
  const std::string line = out.str();
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  EXPECT_NE(line.find("\"kind\":\"watchdog-fire\""), std::string::npos);
  EXPECT_NE(line.find("\"a\":42"), std::string::npos);
  EXPECT_NE(line.find("\"b\":7"), std::string::npos);
  EXPECT_NE(line.find("\"code\":1"), std::string::npos);
}

}  // namespace
}  // namespace laces::obs
