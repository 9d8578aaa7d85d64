// Mesh wire codec: tagged-body round-trips for all nine message types,
// structural rejection (unknown tag, bad enum bytes, trailing bytes,
// truncation), HMAC authentication and version gating through the kMesh
// frame envelope, deterministic delta chunking, and filter semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mesh/wire.hpp"
#include "serve/protocol.hpp"
#include "util/bytes.hpp"
#include "support.hpp"

namespace laces::mesh {
namespace {

using laces::testing::v4;
using laces::testing::v6;

std::vector<MeshMessage> sample_messages() {
  Hello hello{7, "origin", 1, 2, true};
  Welcome welcome{9, "relay-9", 2, false};
  Reject reject{serve::ErrorCode::kVersionMismatch, "no overlap"};
  Forward forward{(7ull << 48) | 3, 7, 4, {1, 2, 3, 4}};
  ForwardReply reply{(7ull << 48) | 3, {9, 8, 7}};
  Subscribe subscribe{5, 4, 2, {v4(10, 0, 0), v6(0x20010db800000000ull)},
                      true, Cursor{3, 1}};
  SubAck sub_ack{5, false, "cursor predates the delta log"};
  DeltaChunk chunk;
  chunk.day = 12;
  chunk.seq = 2;
  chunk.last = true;
  chunk.degraded = true;
  chunk.lost_sites = 3;
  chunk.canary_alarms = 1;
  chunk.upserts = {{v4(10, 1, 2), "10.1.2.0/24,anycast,..."},
                   {v6(0x20010db8000000ffull), "v6 line"}};
  chunk.removals = {v4(10, 9, 9)};
  DeltaAck delta_ack{5, Cursor{12, 2}};
  return {hello,     welcome, reject,  forward,  reply,
          subscribe, sub_ack, chunk,   delta_ack};
}

TEST(MeshWire, RoundTripsEveryMessageType) {
  for (const MeshMessage& message : sample_messages()) {
    const auto bytes = encode_mesh(message);
    // The tag byte is the variant index + 1 — the append-only invariant.
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(message.index() + 1));
    EXPECT_EQ(decode_mesh(bytes), message);
  }
}

TEST(MeshWire, RejectsStructuralDamage) {
  const auto hello = encode_mesh(MeshMessage{Hello{1, "a", 1, 2, false}});
  // Unknown tag.
  auto bad = hello;
  bad[0] = 200;
  EXPECT_THROW(decode_mesh(bad), serve::ProtocolError);
  // Truncation at every length.
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_THROW(
        decode_mesh(std::span(hello.data(), n)), serve::ProtocolError)
        << "length " << n;
  }
  // Trailing bytes.
  auto padded = hello;
  padded.push_back(0);
  EXPECT_THROW(decode_mesh(padded), serve::ProtocolError);
  // Reject's error-code byte must be a known ErrorCode (tag, then code).
  auto reject = encode_mesh(
      MeshMessage{Reject{serve::ErrorCode::kBadRequest, ""}});
  reject[1] = 0;
  EXPECT_THROW(decode_mesh(reject), serve::ProtocolError);
  // Subscribe's family byte must be 0, 4 or 6 (tag + u64 id, then family).
  auto subscribe =
      encode_mesh(MeshMessage{Subscribe{1, 0, 0, {}, false, Cursor{}}});
  subscribe[9] = 5;
  EXPECT_THROW(decode_mesh(subscribe), serve::ProtocolError);
  // A prefix length beyond the family's width is a malformed body, not a
  // broken precondition (tag, id, family, priority, one v4 prefix /33).
  ByteWriter long_prefix;
  long_prefix.u8(6);
  long_prefix.u64(1);
  long_prefix.u8(0);
  long_prefix.u8(0);
  long_prefix.varint(1);
  long_prefix.u8(4);
  long_prefix.u32(0x0a000000);
  long_prefix.u8(33);
  long_prefix.u8(0);
  long_prefix.u32(0);
  long_prefix.u32(0);
  EXPECT_THROW(decode_mesh(long_prefix.view()), serve::ProtocolError);
  // Inflated list counts fail as ProtocolError before anything is
  // reserved for them.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 40,
        std::uint64_t{1} << 62}) {
    ByteWriter prefixes;  // Subscribe: tag, id, family, priority, count
    prefixes.u8(6);
    prefixes.u64(1);
    prefixes.u8(0);
    prefixes.u8(0);
    prefixes.varint(count);
    EXPECT_THROW(decode_mesh(prefixes.view()), serve::ProtocolError)
        << "subscribe prefixes " << count;
    // DeltaChunk: tag, day, seq, last, degraded, lost_sites, canary_alarms.
    const auto chunk_header = [] {
      ByteWriter w;
      w.u8(8);
      w.u32(12);
      w.u32(0);
      w.u8(1);
      w.u8(0);
      w.u16(0);
      w.u32(0);
      return w;
    };
    ByteWriter upserts = chunk_header();
    upserts.varint(count);
    EXPECT_THROW(decode_mesh(upserts.view()), serve::ProtocolError)
        << "delta upserts " << count;
    ByteWriter removals = chunk_header();
    removals.varint(0);
    removals.varint(count);
    EXPECT_THROW(decode_mesh(removals.view()), serve::ProtocolError)
        << "delta removals " << count;
  }
}

TEST(MeshWire, FrameEnvelopeAuthenticatesAndGatesVersion) {
  const std::string key = "mesh-test-key";
  const auto payload = encode_mesh(MeshMessage{Hello{1, "a", 1, 2, true}});
  const auto frame = serve::encode_frame(key, serve::FrameKind::kMesh, 42,
                                         payload,
                                         serve::kMeshProtocolVersion);
  const auto decoded =
      serve::decode_frame(key, frame, serve::kProtocolVersionMax);
  EXPECT_EQ(decoded.kind, serve::FrameKind::kMesh);
  EXPECT_EQ(decoded.version, serve::kMeshProtocolVersion);
  EXPECT_EQ(decoded.request_id, 42u);
  const MeshMessage expected{Hello{1, "a", 1, 2, true}};
  EXPECT_EQ(decode_mesh(decoded.payload), expected);

  // A v1-pinned decoder refuses the mesh frame (version gate) — typed,
  // not a hang or a misparse.
  EXPECT_THROW(serve::decode_frame(key, frame, serve::kProtocolVersion),
               serve::ProtocolError);
  // Wrong key fails authentication.
  EXPECT_THROW(
      serve::decode_frame("other-key", frame, serve::kProtocolVersionMax),
      serve::ProtocolError);
  // Flipping any single byte breaks the MAC (or the structure).
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto tampered = frame;
    tampered[i] ^= 0x01;
    EXPECT_THROW(
        serve::decode_frame(key, tampered, serve::kProtocolVersionMax),
        serve::ProtocolError)
        << "byte " << i;
  }
}

store::DayDelta sample_delta(std::size_t upserts, std::size_t removals) {
  store::DayDelta delta;
  delta.day = 5;
  delta.degraded = true;
  delta.lost_sites = 2;
  delta.canary_alarms = 7;
  for (std::size_t i = 0; i < upserts; ++i) {
    delta.upserts.push_back(
        {v4(10, 0, static_cast<std::uint8_t>(i)), "line " + std::to_string(i)});
  }
  for (std::size_t i = 0; i < removals; ++i) {
    delta.removals.push_back(v4(10, 1, static_cast<std::uint8_t>(i)));
  }
  return delta;
}

TEST(MeshWire, ChunkingCoversEveryRowDeterministically) {
  const auto delta = sample_delta(10, 7);
  const auto chunks = chunk_delta(delta, 4);
  ASSERT_EQ(chunks.size(), 5u);  // ceil(17 / 4)
  store::DayDelta reassembled;
  reassembled.day = delta.day;
  reassembled.degraded = delta.degraded;
  reassembled.lost_sites = delta.lost_sites;
  reassembled.canary_alarms = delta.canary_alarms;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& chunk = chunks[i];
    EXPECT_EQ(chunk.day, delta.day);
    EXPECT_EQ(chunk.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(chunk.last, i + 1 == chunks.size());
    EXPECT_EQ(chunk.degraded, delta.degraded);
    EXPECT_EQ(chunk.lost_sites, delta.lost_sites);
    EXPECT_EQ(chunk.canary_alarms, delta.canary_alarms);
    EXPECT_LE(chunk.upserts.size() + chunk.removals.size(), 4u);
    reassembled.upserts.insert(reassembled.upserts.end(),
                               chunk.upserts.begin(), chunk.upserts.end());
    reassembled.removals.insert(reassembled.removals.end(),
                                chunk.removals.begin(), chunk.removals.end());
  }
  EXPECT_EQ(reassembled, delta);
  // Deterministic re-chunking: a replayed day lands on identical
  // (day, seq) coordinates.
  EXPECT_EQ(chunk_delta(delta, 4), chunks);
  // A single big chunk round-trips through to_delta exactly.
  const auto whole = chunk_delta(delta, 1000);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_TRUE(whole[0].last);
  EXPECT_EQ(to_delta(whole[0]), delta);
}

TEST(MeshWire, EmptyDeltaStillYieldsOneCursorAdvancingChunk) {
  const auto delta = sample_delta(0, 0);
  for (const std::size_t max_rows : {std::size_t{0}, std::size_t{8}}) {
    const auto chunks = chunk_delta(delta, max_rows);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_TRUE(chunks[0].last);
    EXPECT_TRUE(chunks[0].upserts.empty());
    EXPECT_TRUE(chunks[0].removals.empty());
    EXPECT_EQ(chunks[0].day, delta.day);
    EXPECT_TRUE(chunks[0].degraded);
  }
}

TEST(MeshWire, PrefixCovers) {
  EXPECT_TRUE(prefix_covers(v4(10, 0, 0, 16), v4(10, 0, 7)));
  EXPECT_FALSE(prefix_covers(v4(10, 0, 0, 16), v4(10, 1, 7)));
  // A longer filter never covers a shorter prefix.
  EXPECT_FALSE(prefix_covers(v4(10, 0, 7), v4(10, 0, 0, 16)));
  // Family mismatch.
  EXPECT_FALSE(prefix_covers(v4(10, 0, 0, 16), v6(0x20010db800000000ull)));
  EXPECT_TRUE(prefix_covers(v6(0x20010db800000000ull, 32),
                            v6(0x20010db8000000ffull)));
  EXPECT_TRUE(prefix_covers(v4(10, 0, 3), v4(10, 0, 3)));
}

TEST(MeshWire, FilterChunkKeepsHeaderAndFiltersRows) {
  DeltaChunk chunk;
  chunk.day = 3;
  chunk.seq = 1;
  chunk.last = true;
  chunk.upserts = {{v4(10, 0, 1), "a"},
                   {v4(10, 1, 1), "b"},
                   {v6(0x20010db800000000ull), "c"}};
  chunk.removals = {v4(10, 0, 2), v6(0x20010db8000000aaull)};

  // No filter: identity.
  EXPECT_EQ(filter_chunk(chunk, 0, {}), chunk);

  // Family filters.
  const auto only_v4 = filter_chunk(chunk, 4, {});
  EXPECT_EQ(only_v4.upserts.size(), 2u);
  EXPECT_EQ(only_v4.removals.size(), 1u);
  const auto only_v6 = filter_chunk(chunk, 6, {});
  EXPECT_EQ(only_v6.upserts.size(), 1u);
  EXPECT_EQ(only_v6.removals.size(), 1u);

  // Prefix cover.
  const auto scoped = filter_chunk(chunk, 0, {v4(10, 0, 0, 16)});
  ASSERT_EQ(scoped.upserts.size(), 1u);
  EXPECT_EQ(scoped.upserts[0].line, "a");
  ASSERT_EQ(scoped.removals.size(), 1u);

  // Fully filtered: rows drop, but the cursor header survives so the
  // subscriber's (day, seq) stream stays continuous.
  const auto none = filter_chunk(chunk, 0, {v4(192, 168, 0, 16)});
  EXPECT_TRUE(none.upserts.empty());
  EXPECT_TRUE(none.removals.empty());
  EXPECT_EQ(none.day, chunk.day);
  EXPECT_EQ(none.seq, chunk.seq);
  EXPECT_TRUE(none.last);
}

TEST(MeshWire, CursorOrdering) {
  EXPECT_LT(Cursor(1, 5), Cursor(2, 0));
  EXPECT_LT(Cursor(2, 0), Cursor(2, 1));
  EXPECT_EQ(Cursor(3, 3), Cursor(3, 3));
  EXPECT_LE(Cursor(3, 3), Cursor(3, 3));
}

}  // namespace
}  // namespace laces::mesh
