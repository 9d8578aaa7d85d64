#include "core/messages.hpp"

#include "net/codec.hpp"

namespace laces::core {
namespace {

using net::Count;
using net::Of;

// Each layout is written once and run by both net::Encoder and
// net::Decoder (net/codec.hpp).

template <class IO, Of<MeasurementSpec> M>
void body(IO& io, M& s) {
  io.u32(s.id);
  io.u8(s.protocol);
  io.u8(s.version);
  io.u8(s.mode);
  io.i64(s.worker_offset);
  io.f64(s.targets_per_second);
  io.flag(s.vary_payload);
  io.flag(s.chaos);
  io.u16(s.max_participants);
  io.i64(s.deadline);
}

/// A lower bound on a ProbeRecord's encoded size, for the list count check
/// (the exact minimum is 19 bytes).
constexpr std::size_t kMinRecordBytes = 17;

template <class IO, Of<ProbeRecord> M>
void body(IO& io, M& rec) {
  io.address(rec.target);
  io.u8(rec.protocol);
  io.u16(rec.rx_worker);
  io.opt(rec.tx_worker, [&io](auto& worker) { io.u16(worker); });
  io.i64(rec.rx_time);
  io.opt(rec.rtt, [&io](auto& rtt) { io.i64(rtt); });
  io.opt(rec.txt, [&io](auto& txt) { io.str(txt); });
}

template <class IO, Of<WorkerHello> M>
void body(IO& io, M& m) {
  io.str(m.worker_name);
}

template <class IO, Of<HelloAck> M>
void body(IO& io, M& m) {
  io.u16(m.worker_id);
}

template <class IO, Of<StartMeasurement> M>
void body(IO& io, M& m) {
  body(io, m.spec);
  io.u16(m.participant_index);
  io.u16(m.participant_count);
  io.address(m.anycast_source);
  io.i64(m.start_time);
  io.u64(m.resume_from);
}

template <class IO, Of<SubmitMeasurement> M>
void body(IO& io, M& m) {
  body(io, m.spec);
}

template <class IO, Of<TargetChunk> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u64(m.base_index);
  io.list(m.targets, net::kMinAddressBytes,
          [&io](auto& target) { io.address(target); }, Count::kU32);
  io.u64(m.seq);
}

template <class IO, Of<EndOfTargets> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u64(m.seq);
}

template <class IO, Of<ResultBatch> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u16(m.worker);
  io.list(m.records, kMinRecordBytes, [&io](auto& rec) { body(io, rec); },
          Count::kU32);
  io.u64(m.probes_sent);
  io.u64(m.batch_seq);
}

template <class IO, Of<MeasurementComplete> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u16(m.workers_participated);
  io.u16(m.workers_lost);
  io.u8(m.status);
}

template <class IO, Of<Abort> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
}

/// WorkerDone and Heartbeat share one layout.
template <class IO, class M>
  requires Of<M, WorkerDone> || Of<M, Heartbeat>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u16(m.worker);
}

template <class IO, Of<ChunkAck> M>
void body(IO& io, M& m) {
  io.u32(m.measurement);
  io.u16(m.worker);
  io.u64(m.next_seq);
}

constexpr auto kBodies = [](auto& io, auto& m) { body(io, m); };

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& msg) {
  return net::encode_tagged(msg, kBodies);
}

Message decode_message(std::span<const std::uint8_t> bytes) {
  return net::decode_tagged<Message>(bytes, kBodies);
}

}  // namespace laces::core
