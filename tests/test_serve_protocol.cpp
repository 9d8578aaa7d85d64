// laces_serve wire protocol: canonical request/response round-trips,
// frame authentication (HMAC-SHA256 via core::frame_mac) and the rejection
// paths — wrong key, flipped bytes, bad magic/version/kind, truncation.
#include <gtest/gtest.h>

#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/bytes.hpp"
#include "support.hpp"

namespace laces::serve {
namespace {

using laces::testing::v4;

TEST(ServeProtocol, RequestRoundTripsEveryKind) {
  const std::vector<Request> requests = {
      SummaryRequest{},
      StabilityRequest{},
      HistoryRequest{v4(10, 1, 2)},
      IntermittentRequest{},
      ExportDayRequest{42},
  };
  for (const auto& request : requests) {
    const auto bytes = encode_request(request);
    EXPECT_EQ(decode_request(bytes), request) << request_label(request);
  }
}

TEST(ServeProtocol, CanonicalRequestBytesAreDeterministic) {
  const Request a = HistoryRequest{v4(192, 0, 2)};
  const Request b = HistoryRequest{v4(192, 0, 2)};
  EXPECT_EQ(encode_request(a), encode_request(b));
  // A different question encodes to different bytes (distinct cache keys).
  EXPECT_NE(encode_request(a), encode_request(Request{SummaryRequest{}}));
  EXPECT_NE(encode_request(Request{ExportDayRequest{1}}),
            encode_request(Request{ExportDayRequest{2}}));
}

TEST(ServeProtocol, ResponseRoundTripsEveryKind) {
  SummaryResponse summary;
  summary.summary.days = 3;
  summary.summary.first_day = 1;
  summary.summary.last_day = 3;
  summary.summary.records_total = 12;
  summary.summary.segment_bytes = 999;
  summary.summary.csv_bytes = 4000;
  summary.summary.compression_ratio = 0.25;
  summary.summary.anycast_daily_mean = 4.0;
  summary.summary.gcd_daily_mean = 2.0;

  StabilityResponse stability;
  stability.report.from_checkpoint = true;
  stability.report.anycast_based.days = 3;
  stability.report.anycast_based.union_size = 5;
  stability.report.anycast_based.every_day = 4;
  stability.report.anycast_based.daily_mean = 4.5;
  stability.report.gcd.days = 3;
  stability.report.gcd.degraded_days = 1;

  HistoryResponse history;
  history.prefix = v4(10, 0, 0);
  history.days = {
      {1, false, true, true, false, 7, 0},
      {2, true, false, false, false, 0, 0},
      {3, false, true, true, true, 9, 4},
  };

  IntermittentResponse intermittent;
  intermittent.anycast_based = {v4(10, 0, 1), v4(10, 0, 2)};
  intermittent.gcd = {v4(10, 0, 2)};

  const std::vector<Response> responses = {
      ErrorResponse{ErrorCode::kOverloaded, "queue full", 50},
      summary,
      stability,
      history,
      intermittent,
      ExportDayResponse{7, "prefix,verdict\n10.0.0.0/24,anycast\n"},
  };
  for (const auto& response : responses) {
    const auto bytes = encode_response(response);
    EXPECT_EQ(decode_response(bytes), response);
  }
}

TEST(ServeProtocol, FrameRoundTripCarriesKindIdAndPayload) {
  const auto payload = encode_request(Request{ExportDayRequest{9}});
  const auto frame =
      encode_frame("secret", FrameKind::kRequest, 0xabcdef0012345678ull,
                   payload);
  const Frame decoded = decode_frame("secret", frame);
  EXPECT_EQ(decoded.kind, FrameKind::kRequest);
  EXPECT_EQ(decoded.request_id, 0xabcdef0012345678ull);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(ServeProtocol, WrongKeyIsRejected) {
  const auto payload = encode_request(Request{SummaryRequest{}});
  const auto frame = encode_frame("key-a", FrameKind::kRequest, 1, payload);
  EXPECT_THROW(decode_frame("key-b", frame), ProtocolError);
}

TEST(ServeProtocol, EveryFlippedBitInPayloadOrMacIsCaught) {
  const auto payload = encode_request(Request{HistoryRequest{v4(10, 1, 1)}});
  const auto frame = encode_frame("k", FrameKind::kRequest, 3, payload);
  // Flip one bit at a time across the whole frame: header corruption fails
  // structurally, payload/MAC corruption fails the MAC check.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x01;
    EXPECT_THROW(decode_frame("k", bad), ProtocolError) << "byte " << i;
  }
}

TEST(ServeProtocol, TruncatedAndPaddedFramesAreRejected) {
  const auto payload = encode_request(Request{SummaryRequest{}});
  const auto frame = encode_frame("k", FrameKind::kRequest, 1, payload);
  for (const std::size_t cut : {std::size_t{1}, frame.size() / 2,
                                frame.size() - 1}) {
    std::vector<std::uint8_t> truncated(frame.begin(),
                                        frame.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_frame("k", truncated), ProtocolError) << cut;
  }
  auto padded = frame;
  padded.push_back(0);
  EXPECT_THROW(decode_frame("k", padded), ProtocolError);
}

TEST(ServeProtocol, MalformedBodiesAreProtocolErrors) {
  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{}), ProtocolError);
  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{0xff}), ProtocolError);
  EXPECT_THROW(decode_response(std::vector<std::uint8_t>{}), ProtocolError);
  EXPECT_THROW(decode_response(std::vector<std::uint8_t>{0xff}),
               ProtocolError);
  // Inflated list counts fail as ProtocolError before anything is reserved
  // for them. Each body is a response tag, the fields before the list, and
  // the count, with no elements after it.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 40,
        std::uint64_t{1} << 62}) {
    const auto body = [count](std::uint8_t tag, auto&& fields) {
      ByteWriter w;
      w.u8(tag);
      fields(w);
      w.varint(count);
      return w.take();
    };
    const auto none = [](ByteWriter&) {};
    const auto mesh_header = [](ByteWriter& w) {
      w.u64(1);  // node_id
      w.str("");
      w.u32(0);  // feed_day
      w.u32(0);  // feed_seq
      for (int i = 0; i < 8; ++i) w.varint(0);
    };
    const std::vector<std::pair<const char*, std::vector<std::uint8_t>>>
        bodies = {
            {"history days", body(4, [](ByteWriter& w) {
               w.u8(4);
               w.u32(0x0a000000);
               w.u8(24);
             })},
            {"intermittent anycast", body(5, none)},
            {"intermittent gcd",
             body(5, [](ByteWriter& w) { w.varint(0); })},
            {"latency stages", body(8, none)},
            {"trace spans", body(9, none)},
            {"flightrec events", body(10, none)},
            {"mesh peers", body(11, mesh_header)},
            {"mesh subscriptions", body(11, [&](ByteWriter& w) {
               mesh_header(w);
               w.varint(0);
             })},
        };
    for (const auto& [what, bytes] : bodies) {
      EXPECT_THROW(decode_response(bytes), ProtocolError)
          << what << " " << count;
    }
  }
  // A prefix length beyond the family's width is a malformed body.
  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{3, 4, 10, 0, 0, 0, 33}),
               ProtocolError);
}

TEST(ServeProtocol, RequestLabels) {
  EXPECT_EQ(request_label(Request{SummaryRequest{}}), "summary");
  EXPECT_EQ(request_label(Request{StabilityRequest{}}), "stability");
  EXPECT_EQ(request_label(Request{HistoryRequest{v4(1, 2, 3)}}), "history");
  EXPECT_EQ(request_label(Request{IntermittentRequest{}}), "intermittent");
  EXPECT_EQ(request_label(Request{ExportDayRequest{}}), "export-day");
}

TEST(ServeProtocol, JsonRenderingIsSingleLineAndKeyOrdered) {
  IntermittentResponse intermittent;
  intermittent.anycast_based = {v4(10, 0, 1)};
  const auto text = json_response(Response{intermittent});
  EXPECT_EQ(text,
            "{\"intermittent\":{\"anycast_based\":[\"10.0.1.0/24\"],"
            "\"gcd\":[]}}\n");
  const auto error = json_error(
      ErrorResponse{ErrorCode::kCorruptArchive, "segment x: digest", 0});
  EXPECT_EQ(error,
            "{\"error\":{\"code\":\"corrupt-archive\","
            "\"message\":\"segment x: digest\",\"retry_after_ms\":0}}\n");
}

}  // namespace
}  // namespace laces::serve
