#include "mesh/wire.hpp"

#include <algorithm>
#include <iterator>

#include "net/codec.hpp"

namespace laces::mesh {
namespace {

using net::Of;

// Each layout is written once and run by both net::Encoder and
// net::Decoder (net/codec.hpp).

template <class IO, Of<Hello> M>
void body(IO& io, M& m) {
  io.u64(m.node_id);
  io.str(m.name);
  io.u8(m.version_min);
  io.u8(m.version_max);
  io.flag(m.has_feed);
}

template <class IO, Of<Welcome> M>
void body(IO& io, M& m) {
  io.u64(m.node_id);
  io.str(m.name);
  io.u8(m.version);
  io.flag(m.has_feed);
}

template <class IO, Of<Reject> M>
void body(IO& io, M& m) {
  io.u8(m.code, serve::is_error_code, "bad error code");
  io.str(m.message);
}

template <class IO, Of<Forward> M>
void body(IO& io, M& m) {
  io.u64(m.forward_id);
  io.u64(m.origin_node);
  io.u8(m.hops_left);
  io.blob(m.request);
}

template <class IO, Of<ForwardReply> M>
void body(IO& io, M& m) {
  io.u64(m.forward_id);
  io.blob(m.response);
}

template <class IO, Of<Cursor> M>
void body(IO& io, M& c) {
  io.u32(c.day);
  io.u32(c.seq);
}

template <class IO, Of<Subscribe> M>
void body(IO& io, M& m) {
  io.u64(m.subscription_id);
  io.u8(m.family, serve::is_family_filter, "bad family");
  io.u8(m.priority);
  io.prefix_list(m.prefixes);
  io.flag(m.resume);
  body(io, m.cursor);
}

template <class IO, Of<SubAck> M>
void body(IO& io, M& m) {
  io.u64(m.subscription_id);
  io.flag(m.ok);
  io.str(m.message);
}

template <class IO, Of<store::DeltaRow> M>
void body(IO& io, M& row) {
  io.prefix(row.prefix);
  io.str(row.line);
}
/// A prefix and an empty line.
constexpr std::size_t kMinDeltaRowBytes = net::kMinPrefixBytes + 4;

template <class IO, Of<DeltaChunk> M>
void body(IO& io, M& m) {
  io.u32(m.day);
  io.u32(m.seq);
  io.flag(m.last);
  io.flag(m.degraded);
  io.u16(m.lost_sites);
  io.u32(m.canary_alarms);
  io.list(m.upserts, kMinDeltaRowBytes, [&io](auto& row) { body(io, row); });
  io.prefix_list(m.removals);
}

template <class IO, Of<DeltaAck> M>
void body(IO& io, M& m) {
  io.u64(m.subscription_id);
  body(io, m.cursor);
}

constexpr auto kBodies = [](auto& io, auto& m) { body(io, m); };

}  // namespace

std::vector<std::uint8_t> encode_mesh(const MeshMessage& message) {
  return net::encode_tagged(message, kBodies);
}

std::vector<std::uint8_t> encode_mesh(const DeltaChunk& chunk) {
  return net::encode_tagged<MeshMessage>(chunk, kBodies);
}

MeshMessage decode_mesh(std::span<const std::uint8_t> bytes) {
  return net::guarded<serve::ProtocolError>("mesh", [&] {
    return net::decode_tagged<MeshMessage>(bytes, kBodies);
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

}  // namespace laces::mesh
