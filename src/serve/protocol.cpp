#include "serve/protocol.hpp"

#include "core/channel.hpp"
#include "net/codec.hpp"
#include "util/sha256.hpp"

namespace laces::serve {
namespace {

using net::Of;

// Each layout is written once and run by both net::Encoder and
// net::Decoder (net/codec.hpp).

/// The requests without fields.
template <class IO, class M>
  requires std::is_empty_v<std::remove_const_t<M>>
void body(IO&, M&) {}

template <class IO, Of<HistoryRequest> M>
void body(IO& io, M& m) {
  io.prefix(m.prefix);
}

template <class IO, Of<ExportDayRequest> M>
void body(IO& io, M& m) {
  io.u32(m.day);
}

template <class IO, class M>
  requires Of<M, TraceTailRequest> || Of<M, FlightRecTailRequest>
void body(IO& io, M& m) {
  io.u32(m.max);
}

template <class IO, Of<ErrorResponse> M>
void body(IO& io, M& m) {
  io.u8(m.code, is_error_code, "unknown error code");
  io.str(m.message);
  io.u32(m.retry_after_ms);
}

template <class IO, Of<SummaryResponse> M>
void body(IO& io, M& m) {
  auto& s = m.summary;
  io.varint(s.days);
  io.varint(s.degraded_days);
  io.u32(s.first_day);
  io.u32(s.last_day);
  io.varint(s.records_total);
  io.varint(s.segment_bytes);
  io.varint(s.csv_bytes);
  io.f64(s.compression_ratio);
  io.f64(s.anycast_daily_mean);
  io.f64(s.gcd_daily_mean);
}

template <class IO, Of<census::StabilityStats> M>
void body(IO& io, M& s) {
  io.varint(s.days);
  io.varint(s.degraded_days);
  io.varint(s.union_size);
  io.varint(s.every_day);
  io.f64(s.daily_mean);
}

template <class IO, Of<StabilityResponse> M>
void body(IO& io, M& m) {
  body(io, m.report.anycast_based);
  body(io, m.report.gcd);
  io.flag(m.report.from_checkpoint);
}

// The list bounds below are the fewest bytes each element encodes to
// (strings and varints at their shortest).

template <class IO, Of<store::HistoryDay> M>
void body(IO& io, M& h) {
  io.u32(h.day);
  io.bits(h.degraded, h.published, h.anycast_based, h.gcd_confirmed);
  io.varint(h.max_vp_count);
  io.varint(h.gcd_sites);
}
constexpr std::size_t kMinHistoryDayBytes = 7;

template <class IO, Of<HistoryResponse> M>
void body(IO& io, M& m) {
  io.prefix(m.prefix);
  io.list(m.days, kMinHistoryDayBytes, [&io](auto& h) { body(io, h); });
}

template <class IO, Of<IntermittentResponse> M>
void body(IO& io, M& m) {
  io.prefix_list(m.anycast_based);
  io.prefix_list(m.gcd);
}

template <class IO, Of<ExportDayResponse> M>
void body(IO& io, M& m) {
  io.u32(m.day);
  io.str(m.csv);
}

template <class IO, Of<StatsResponse> M>
void body(IO& io, M& m) {
  auto& s = m.stats;
  io.varint(s.requests_executed);
  io.varint(s.requests_shed);
  io.varint(s.auth_failures);
  io.varint(s.response_cache_hits);
  io.varint(s.response_cache_misses);
  io.varint(s.response_cache_evictions);
  io.varint(s.response_cache_entries);
  io.varint(s.negative_cache_hits);
  io.varint(s.negative_cache_entries);
  io.varint(s.segment_cache_hits);
  io.varint(s.segment_cache_misses);
  io.varint(s.flightrec_recorded);
  io.varint(s.flightrec_overwritten);
  io.u32(s.workers);
  io.u32(s.queue_depth);
  io.u32(s.queue_capacity);
  io.u32(s.active_spans);
  io.u8(s.draining, [](std::uint8_t b) { return b <= 1; },
        "bad draining flag");
}

template <class IO, Of<StageLatency> M>
void body(IO& io, M& s) {
  io.str(s.stage);
  io.varint(s.count);
  io.f64(s.p50_us);
  io.f64(s.p99_us);
  io.f64(s.p999_us);
  io.f64(s.max_us);
}
constexpr std::size_t kMinStageBytes = 37;

template <class IO, Of<LatencyResponse> M>
void body(IO& io, M& m) {
  io.list(m.stages, kMinStageBytes, [&io](auto& s) { body(io, s); });
}

template <class IO, Of<SpanInfo> M>
void body(IO& io, M& s) {
  io.varint(s.id);
  io.varint(s.parent);
  io.str(s.name);
  io.i64(s.start_ns);
  io.i64(s.end_ns);
}
constexpr std::size_t kMinSpanBytes = 22;

template <class IO, Of<TraceTailResponse> M>
void body(IO& io, M& m) {
  io.list(m.spans, kMinSpanBytes, [&io](auto& s) { body(io, s); });
  io.varint(m.dropped);
}

template <class IO, Of<FlightEvent> M>
void body(IO& io, M& e) {
  io.i64(e.wall_ns);
  io.i64(e.sim_ns);
  io.u64(e.a);
  io.varint(e.seq);
  io.u32(e.b);
  io.u32(e.ring);
  io.u16(e.code);
  io.u8(e.kind);
}
constexpr std::size_t kMinFlightEventBytes = 36;

template <class IO, Of<FlightRecTailResponse> M>
void body(IO& io, M& m) {
  io.list(m.events, kMinFlightEventBytes, [&io](auto& e) { body(io, e); });
}

template <class IO, Of<MeshPeerInfo> M>
void body(IO& io, M& p) {
  io.u64(p.node_id);
  io.str(p.name);
  io.u8(p.version);
  io.varint(p.forwards_sent);
  io.varint(p.forwards_received);
  io.varint(p.deltas_sent);
  io.varint(p.deltas_received);
}
constexpr std::size_t kMinMeshPeerBytes = 17;

template <class IO, Of<MeshSubscriptionInfo> M>
void body(IO& io, M& s) {
  io.varint(s.id);
  io.str(s.subscriber);
  io.u8(s.family, is_family_filter, "bad family");
  io.u8(s.priority);
  io.u32(s.prefix_count);
  io.u32(s.acked_day);
  io.u32(s.acked_seq);
  io.u32(s.lag_days);
  io.varint(s.chunks_pushed);
  io.varint(s.chunks_dropped);
}
constexpr std::size_t kMinMeshSubscriptionBytes = 25;

template <class IO, Of<MeshStatsResponse> M>
void body(IO& io, M& m) {
  io.u64(m.node_id);
  io.str(m.name);
  io.u32(m.feed_day);
  io.u32(m.feed_seq);
  io.varint(m.deltas_published);
  io.varint(m.deltas_forwarded);
  io.varint(m.deltas_dropped);
  io.varint(m.duplicate_deltas);
  io.varint(m.forwards_seen);
  io.varint(m.forward_dups_suppressed);
  io.varint(m.forwards_answered);
  io.varint(m.negative_cache_hits);
  io.list(m.peers, kMinMeshPeerBytes, [&io](auto& p) { body(io, p); });
  io.list(m.subscriptions, kMinMeshSubscriptionBytes,
          [&io](auto& s) { body(io, s); });
}

constexpr auto kBodies = [](auto& io, auto& m) { body(io, m); };

}  // namespace

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kUnknownDay:
      return "unknown-day";
    case ErrorCode::kCorruptArchive:
      return "corrupt-archive";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kVersionMismatch:
      return "version-mismatch";
    case ErrorCode::kUnreachable:
      return "unreachable";
  }
  return "?";
}

bool is_error_code(std::uint8_t byte) {
  return to_string(static_cast<ErrorCode>(byte)) != "?";
}

std::vector<std::uint8_t> encode_request(const Request& request) {
  return net::encode_tagged(request, kBodies);
}

Request decode_request(std::span<const std::uint8_t> bytes) {
  return net::guarded<ProtocolError>(
      "request", [&] { return net::decode_tagged<Request>(bytes, kBodies); });
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  return net::encode_tagged(response, kBodies);
}

Response decode_response(std::span<const std::uint8_t> bytes) {
  return net::guarded<ProtocolError>(
      "response", [&] { return net::decode_tagged<Response>(bytes, kBodies); });
}

std::vector<std::uint8_t> encode_frame(const std::string& key, FrameKind kind,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t version) {
  ByteWriter w;
  w.u16(kFrameMagic);
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  // The MAC covers the whole frame prefix — header *and* payload — so a
  // tampered request_id or kind fails authentication, not just a tampered
  // body.
  const Sha256Digest mac = core::frame_mac(key, w.view());
  w.bytes(mac);
  return w.take();
}

Frame decode_frame(const std::string& key, std::span<const std::uint8_t> bytes,
                   std::uint8_t max_version) {
  return net::guarded<ProtocolError>("frame", [&]() -> Frame {
    ByteReader r(bytes);
    if (r.u16() != kFrameMagic) throw ProtocolError("frame: bad magic");
    const std::uint8_t version = r.u8();
    if (version < kProtocolVersionMin || version > max_version ||
        version > kProtocolVersionMax) {
      throw ProtocolError("frame: unsupported protocol version " +
                          std::to_string(version));
    }
    const std::uint8_t kind = r.u8();
    if (kind != static_cast<std::uint8_t>(FrameKind::kRequest) &&
        kind != static_cast<std::uint8_t>(FrameKind::kResponse) &&
        kind != static_cast<std::uint8_t>(FrameKind::kMesh)) {
      throw ProtocolError("frame: unknown kind " + std::to_string(kind));
    }
    if (kind == static_cast<std::uint8_t>(FrameKind::kMesh) &&
        version < kMeshProtocolVersion) {
      throw ProtocolError("frame: mesh frames require protocol version >= " +
                          std::to_string(kMeshProtocolVersion));
    }
    Frame frame;
    frame.version = version;
    frame.kind = static_cast<FrameKind>(kind);
    frame.request_id = r.u64();
    const std::uint32_t len = r.u32();
    const auto payload = r.bytes(len);
    const auto mac_bytes = r.bytes(32);
    if (!r.done()) throw ProtocolError("frame: trailing bytes");
    Sha256Digest mac;
    std::copy(mac_bytes.begin(), mac_bytes.end(), mac.begin());
    const auto signed_prefix = bytes.first(bytes.size() - 32);
    if (!digest_equal(mac, core::frame_mac(key, signed_prefix))) {
      throw ProtocolError("frame: MAC verification failed");
    }
    frame.payload.assign(payload.begin(), payload.end());
    return frame;
  });
}

std::string_view request_label(const Request& request) {
  return std::visit(
      [](const auto& req) -> std::string_view {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, SummaryRequest>) return "summary";
        if constexpr (std::is_same_v<T, StabilityRequest>) return "stability";
        if constexpr (std::is_same_v<T, HistoryRequest>) return "history";
        if constexpr (std::is_same_v<T, IntermittentRequest>) {
          return "intermittent";
        }
        if constexpr (std::is_same_v<T, ExportDayRequest>) return "export-day";
        if constexpr (std::is_same_v<T, StatsRequest>) return "stats";
        if constexpr (std::is_same_v<T, LatencyRequest>) return "latency";
        if constexpr (std::is_same_v<T, TraceTailRequest>) return "trace-tail";
        if constexpr (std::is_same_v<T, FlightRecTailRequest>) {
          return "flightrec-tail";
        }
        if constexpr (std::is_same_v<T, MeshStatsRequest>) return "mesh-stats";
      },
      request);
}

bool is_admin_request(const Request& request) {
  return std::holds_alternative<StatsRequest>(request) ||
         std::holds_alternative<LatencyRequest>(request) ||
         std::holds_alternative<TraceTailRequest>(request) ||
         std::holds_alternative<FlightRecTailRequest>(request) ||
         std::holds_alternative<MeshStatsRequest>(request);
}

}  // namespace laces::serve
