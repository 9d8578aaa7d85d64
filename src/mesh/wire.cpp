#include "mesh/wire.hpp"

#include <algorithm>
#include <iterator>

#include "util/bytes.hpp"

namespace laces::mesh {
namespace {

using serve::ProtocolError;

/// ByteReader underruns surface as serve::ProtocolError, mirroring the
/// serve codecs' guarded() idiom.
template <typename Fn>
auto guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const DecodeError& e) {
    throw ProtocolError(std::string("mesh: ") + e.what());
  }
}

void put_prefix(ByteWriter& w, const net::Prefix& prefix) {
  if (prefix.version() == net::IpVersion::kV4) {
    w.u8(4);
    w.u32(prefix.v4().address().value());
    w.u8(prefix.v4().length());
  } else {
    w.u8(6);
    w.u64(prefix.v6().address().hi());
    w.u64(prefix.v6().address().lo());
    w.u8(prefix.v6().length());
  }
}

net::Prefix get_prefix(ByteReader& r) {
  const std::uint8_t version = r.u8();
  if (version == 4) {
    const auto addr = net::Ipv4Address(r.u32());
    return net::Ipv4Prefix(addr, r.u8());
  }
  if (version == 6) {
    const auto hi = r.u64();
    const auto lo = r.u64();
    return net::Ipv6Prefix(net::Ipv6Address(hi, lo), r.u8());
  }
  throw ProtocolError("mesh: bad IP version byte " + std::to_string(version));
}

void put_prefix_list(ByteWriter& w, const std::vector<net::Prefix>& prefixes) {
  w.varint(prefixes.size());
  for (const auto& p : prefixes) put_prefix(w, p);
}

std::vector<net::Prefix> get_prefix_list(ByteReader& r) {
  const std::uint64_t n = r.varint();
  std::vector<net::Prefix> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_prefix(r));
  return out;
}

std::uint8_t get_family(ByteReader& r) {
  const std::uint8_t family = r.u8();
  if (family != 0 && family != 4 && family != 6) {
    throw ProtocolError("mesh: bad family " + std::to_string(family));
  }
  return family;
}

void put_body(ByteWriter& w, const Hello& m) {
  w.u64(m.node_id);
  w.str(m.name);
  w.u8(m.version_min);
  w.u8(m.version_max);
  w.u8(m.has_feed ? 1 : 0);
}

void put_body(ByteWriter& w, const Welcome& m) {
  w.u64(m.node_id);
  w.str(m.name);
  w.u8(m.version);
  w.u8(m.has_feed ? 1 : 0);
}

void put_body(ByteWriter& w, const Reject& m) {
  w.u8(static_cast<std::uint8_t>(m.code));
  w.str(m.message);
}

void put_body(ByteWriter& w, const Forward& m) {
  w.u64(m.forward_id);
  w.u64(m.origin_node);
  w.u8(m.hops_left);
  w.u32(static_cast<std::uint32_t>(m.request.size()));
  w.bytes(m.request);
}

void put_body(ByteWriter& w, const ForwardReply& m) {
  w.u64(m.forward_id);
  w.u32(static_cast<std::uint32_t>(m.response.size()));
  w.bytes(m.response);
}

void put_body(ByteWriter& w, const Subscribe& m) {
  w.u64(m.subscription_id);
  w.u8(m.family);
  w.u8(m.priority);
  put_prefix_list(w, m.prefixes);
  w.u8(m.resume ? 1 : 0);
  w.u32(m.cursor.day);
  w.u32(m.cursor.seq);
}

void put_body(ByteWriter& w, const SubAck& m) {
  w.u64(m.subscription_id);
  w.u8(m.ok ? 1 : 0);
  w.str(m.message);
}

void put_body(ByteWriter& w, const DeltaChunk& m) {
  w.u32(m.day);
  w.u32(m.seq);
  w.u8(m.last ? 1 : 0);
  w.u8(m.degraded ? 1 : 0);
  w.u16(m.lost_sites);
  w.u32(m.canary_alarms);
  w.varint(m.upserts.size());
  for (const auto& row : m.upserts) {
    put_prefix(w, row.prefix);
    w.str(row.line);
  }
  put_prefix_list(w, m.removals);
}

void put_body(ByteWriter& w, const DeltaAck& m) {
  w.u64(m.subscription_id);
  w.u32(m.cursor.day);
  w.u32(m.cursor.seq);
}

MeshMessage get_hello(ByteReader& r) {
  Hello m;
  m.node_id = r.u64();
  m.name = r.str();
  m.version_min = r.u8();
  m.version_max = r.u8();
  m.has_feed = r.u8() != 0;
  return m;
}

MeshMessage get_welcome(ByteReader& r) {
  Welcome m;
  m.node_id = r.u64();
  m.name = r.str();
  m.version = r.u8();
  m.has_feed = r.u8() != 0;
  return m;
}

MeshMessage get_reject(ByteReader& r) {
  Reject m;
  const std::uint8_t code = r.u8();
  if (code < 1 || code > 7) {
    throw ProtocolError("mesh: bad error code " + std::to_string(code));
  }
  m.code = static_cast<serve::ErrorCode>(code);
  m.message = r.str();
  return m;
}

MeshMessage get_forward(ByteReader& r) {
  Forward m;
  m.forward_id = r.u64();
  m.origin_node = r.u64();
  m.hops_left = r.u8();
  const std::uint32_t n = r.u32();
  const auto body = r.bytes(n);
  m.request.assign(body.begin(), body.end());
  return m;
}

MeshMessage get_forward_reply(ByteReader& r) {
  ForwardReply m;
  m.forward_id = r.u64();
  const std::uint32_t n = r.u32();
  const auto body = r.bytes(n);
  m.response.assign(body.begin(), body.end());
  return m;
}

MeshMessage get_subscribe(ByteReader& r) {
  Subscribe m;
  m.subscription_id = r.u64();
  m.family = get_family(r);
  m.priority = r.u8();
  m.prefixes = get_prefix_list(r);
  m.resume = r.u8() != 0;
  m.cursor.day = r.u32();
  m.cursor.seq = r.u32();
  return m;
}

MeshMessage get_sub_ack(ByteReader& r) {
  SubAck m;
  m.subscription_id = r.u64();
  m.ok = r.u8() != 0;
  m.message = r.str();
  return m;
}

MeshMessage get_delta(ByteReader& r) {
  DeltaChunk m;
  m.day = r.u32();
  m.seq = r.u32();
  m.last = r.u8() != 0;
  m.degraded = r.u8() != 0;
  m.lost_sites = r.u16();
  m.canary_alarms = r.u32();
  const std::uint64_t n = r.varint();
  m.upserts.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    store::DeltaRow row;
    row.prefix = get_prefix(r);
    row.line = r.str();
    m.upserts.push_back(std::move(row));
  }
  m.removals = get_prefix_list(r);
  return m;
}

MeshMessage get_delta_ack(ByteReader& r) {
  DeltaAck m;
  m.subscription_id = r.u64();
  m.cursor.day = r.u32();
  m.cursor.seq = r.u32();
  return m;
}

}  // namespace

std::vector<std::uint8_t> encode_mesh(const MeshMessage& message) {
  ByteWriter w;
  // MeshTag is the variant index + 1 — same invariant as RequestTag.
  w.u8(static_cast<std::uint8_t>(message.index() + 1));
  std::visit([&w](const auto& m) { put_body(w, m); }, message);
  return w.take();
}

std::vector<std::uint8_t> encode_mesh(const DeltaChunk& chunk) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MeshTag::kDelta));
  put_body(w, chunk);
  return w.take();
}

MeshMessage decode_mesh(std::span<const std::uint8_t> bytes) {
  return guarded([&] {
    ByteReader r(bytes);
    const auto tag = static_cast<MeshTag>(r.u8());
    MeshMessage message = [&]() -> MeshMessage {
      switch (tag) {
        case MeshTag::kHello: return get_hello(r);
        case MeshTag::kWelcome: return get_welcome(r);
        case MeshTag::kReject: return get_reject(r);
        case MeshTag::kForward: return get_forward(r);
        case MeshTag::kForwardReply: return get_forward_reply(r);
        case MeshTag::kSubscribe: return get_subscribe(r);
        case MeshTag::kSubAck: return get_sub_ack(r);
        case MeshTag::kDelta: return get_delta(r);
        case MeshTag::kDeltaAck: return get_delta_ack(r);
      }
      throw ProtocolError("mesh: unknown tag " +
                          std::to_string(static_cast<int>(tag)));
    }();
    if (!r.done()) throw ProtocolError("mesh: trailing bytes");
    return message;
  });
}

std::vector<DeltaChunk> chunk_delta(store::DayDelta delta,
                                    std::size_t max_rows) {
  if (max_rows == 0) max_rows = 1;
  std::vector<DeltaChunk> chunks;
  std::size_t up = 0;
  std::size_t rm = 0;
  std::uint32_t seq = 0;
  do {
    DeltaChunk chunk;
    chunk.day = delta.day;
    chunk.seq = seq++;
    chunk.degraded = delta.degraded;
    chunk.lost_sites = delta.lost_sites;
    chunk.canary_alarms = delta.canary_alarms;
    const std::size_t ups = std::min(max_rows, delta.upserts.size() - up);
    const std::size_t rms =
        std::min(max_rows - ups, delta.removals.size() - rm);
    chunk.upserts.assign(std::make_move_iterator(delta.upserts.begin() + up),
                         std::make_move_iterator(delta.upserts.begin() + up +
                                                 ups));
    chunk.removals.assign(delta.removals.begin() + rm,
                          delta.removals.begin() + rm + rms);
    up += ups;
    rm += rms;
    chunk.last = up == delta.upserts.size() && rm == delta.removals.size();
    chunks.push_back(std::move(chunk));
  } while (up < delta.upserts.size() || rm < delta.removals.size());
  return chunks;
}

store::DayDelta to_delta(const DeltaChunk& chunk) {
  store::DayDelta delta;
  delta.day = chunk.day;
  delta.degraded = chunk.degraded;
  delta.lost_sites = chunk.lost_sites;
  delta.canary_alarms = chunk.canary_alarms;
  delta.upserts = chunk.upserts;
  delta.removals = chunk.removals;
  return delta;
}

bool prefix_covers(const net::Prefix& filter, const net::Prefix& p) {
  if (filter.version() != p.version()) return false;
  if (filter.version() == net::IpVersion::kV4) {
    return filter.v4().contains(p.v4());
  }
  return filter.v6().length() <= p.v6().length() &&
         filter.v6().contains(p.v6().address());
}

namespace {

bool row_matches(const net::Prefix& p, std::uint8_t family,
                 const std::vector<net::Prefix>& prefixes) {
  if (family == 4 && p.version() != net::IpVersion::kV4) return false;
  if (family == 6 && p.version() != net::IpVersion::kV6) return false;
  if (prefixes.empty()) return true;
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&p](const net::Prefix& f) { return prefix_covers(f, p); });
}

}  // namespace

DeltaChunk filter_chunk(const DeltaChunk& chunk, std::uint8_t family,
                        const std::vector<net::Prefix>& prefixes) {
  if (family == 0 && prefixes.empty()) return chunk;
  DeltaChunk out;
  out.day = chunk.day;
  out.seq = chunk.seq;
  out.last = chunk.last;
  out.degraded = chunk.degraded;
  out.lost_sites = chunk.lost_sites;
  out.canary_alarms = chunk.canary_alarms;
  for (const auto& row : chunk.upserts) {
    if (row_matches(row.prefix, family, prefixes)) out.upserts.push_back(row);
  }
  for (const auto& p : chunk.removals) {
    if (row_matches(p, family, prefixes)) out.removals.push_back(p);
  }
  return out;
}

std::string_view to_string(MeshTag tag) {
  switch (tag) {
    case MeshTag::kHello: return "hello";
    case MeshTag::kWelcome: return "welcome";
    case MeshTag::kReject: return "reject";
    case MeshTag::kForward: return "forward";
    case MeshTag::kForwardReply: return "forward-reply";
    case MeshTag::kSubscribe: return "subscribe";
    case MeshTag::kSubAck: return "sub-ack";
    case MeshTag::kDelta: return "delta";
    case MeshTag::kDeltaAck: return "delta-ack";
  }
  return "unknown";
}

}  // namespace laces::mesh
