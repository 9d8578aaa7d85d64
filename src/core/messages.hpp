// Control-plane messages between CLI, Orchestrator and Workers.
//
// Every message serializes to bytes (ByteWriter/ByteReader) because the
// channel authenticates frames with HMAC-SHA256 over the encoded payload
// (paper R8). A std::variant keeps dispatch typed on the receive side.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/measurement.hpp"
#include "core/results.hpp"
#include "net/address.hpp"

namespace laces::core {

/// Worker -> Orchestrator: first message on a fresh channel.
struct WorkerHello {
  std::string worker_name;
};

/// Orchestrator -> Worker: registration accepted.
struct HelloAck {
  net::WorkerId worker_id = 0;
};

/// Orchestrator -> Worker: a measurement starts. Carries the worker's
/// participant index (its probe-offset slot) and the probe source address
/// for anycast mode.
struct StartMeasurement {
  MeasurementSpec spec;
  std::uint16_t participant_index = 0;
  std::uint16_t participant_count = 0;
  net::IpAddress anycast_source;
  SimTime start_time;
  /// First chunk sequence the worker should expect. 0 on a fresh start; a
  /// reconnecting worker resumes from its last acked chunk instead of
  /// re-receiving the whole hitlist.
  std::uint64_t resume_from = 0;
};

/// CLI -> Orchestrator: submit a measurement (hitlist follows in chunks).
struct SubmitMeasurement {
  MeasurementSpec spec;
};

/// CLI -> Orchestrator (hitlist upload) and Orchestrator -> Worker
/// (paced streaming): a run of consecutive hitlist targets.
struct TargetChunk {
  net::MeasurementId measurement = 0;
  std::uint64_t base_index = 0;
  std::vector<net::IpAddress> targets;
  /// Chunk sequence number within the stream (0-based, contiguous). The
  /// receiver acks `next expected seq`, enabling retransmission and
  /// reconnect-and-resume without duplicate probing.
  std::uint64_t seq = 0;
};

/// End of the hitlist stream.
struct EndOfTargets {
  net::MeasurementId measurement = 0;
  /// Sequence slot of the end marker: equals the total number of chunks,
  /// so a receiver buffering out-of-order chunks knows when it is done.
  std::uint64_t seq = 0;
};

/// Worker -> Orchestrator -> CLI: captured results, streamed immediately
/// (workers store nothing, R10).
struct ResultBatch {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  std::vector<ProbeRecord> records;
  std::uint64_t probes_sent = 0;  // delta since the last batch
  /// Monotonic per-worker batch number (survives reconnects), letting the
  /// CLI drop duplicated control frames without discarding real records.
  std::uint64_t batch_seq = 0;
};

/// Worker -> Orchestrator: probing and capture drained.
struct WorkerDone {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
};

/// Orchestrator -> CLI: all (remaining) workers finished.
struct MeasurementComplete {
  net::MeasurementId measurement = 0;
  std::uint16_t workers_participated = 0;
  std::uint16_t workers_lost = 0;
  /// RunStatus as a wire byte (kCompleted / kDegraded / kAborted).
  std::uint8_t status = static_cast<std::uint8_t>(RunStatus::kCompleted);
};

/// CLI -> Orchestrator: abort a misconfigured measurement (R3).
struct Abort {
  net::MeasurementId measurement = 0;
};

/// Liveness beacon (both directions on the worker link; strictly one-way —
/// a heartbeat never generates a reply, so it cannot extend the timeline).
struct Heartbeat {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
};

/// Cumulative ack for the sequenced hitlist stream: "I have consumed every
/// chunk with seq < next_seq". Sent Worker -> Orchestrator and
/// Orchestrator -> CLI.
struct ChunkAck {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  std::uint64_t next_seq = 0;
};

// The wire tag of a message is its variant index + 1: new messages append
// at the END so every earlier tag keeps its bytes.
using Message =
    std::variant<WorkerHello, HelloAck, StartMeasurement, SubmitMeasurement,
                 TargetChunk, EndOfTargets, ResultBatch, WorkerDone,
                 MeasurementComplete, Abort, Heartbeat, ChunkAck>;

/// Serializes a message (type tag + payload).
std::vector<std::uint8_t> encode_message(const Message& msg);

/// Parses bytes back into a message. Throws DecodeError on malformed input,
/// an unknown tag or trailing bytes.
Message decode_message(std::span<const std::uint8_t> bytes);

}  // namespace laces::core
