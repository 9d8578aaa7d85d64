// Flight recorder: always-on, bounded-memory, near-zero-cost event capture
// for post-mortem diagnosis of long census runs and loaded query servers.
//
// Each recording thread owns a fixed-size ring of compact 32-byte binary
// events (probe batches, control-plane frames, fault injections, server
// request lifecycle, cache hits/misses, watchdog fires), stamped with both
// the simulation clock and wall time. The hot path is one thread-local
// pointer chase plus a relaxed store into the ring — no locks, no
// allocation after the first event on a thread — so it can stay enabled
// during benchmarked workloads (bench_serve measures and gates the
// overhead at <= 3% throughput).
//
// Rings overwrite their oldest events once full (flight-recorder
// semantics: the tail of history before an incident is what matters) and
// count what they overwrote. A dump serializes every ring to a versioned
// big-endian file; the dump path is signal-safe (fixed buffers, write(2))
// so `arm_signal_dump` can capture state from SIGTERM/SIGSEGV/SIGABRT —
// a census killed mid-run still leaves evidence behind. `laces flightrec
// <dump>` decodes a dump to JSONL; the live admin endpoint
// (serve/protocol.hpp kFlightRecTail) serves the merged in-memory tail.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/event_queue.hpp"

namespace laces::obs {

/// Event kinds. Values are stable wire bytes (dump format v1); add new
/// kinds at the end only.
enum class FrEvent : std::uint8_t {
  kMarker = 1,           // code: 0 run-start, 1 run-end; a = seed/day
  kDayComplete = 2,      // a = day, b = published prefixes
  kDayDegraded = 3,      // a = day, b = lost sites
  kWatchdogFire = 4,     // code: watchdog site (0 upload, 1 deadline, 2 cli)
  kWorkerLost = 5,       // code = worker id
  kWorkerResumed = 6,    // code = worker id
  kChunkStreamed = 7,    // a = stream seq
  kResultBatch = 8,      // a = measurement id
  kHeartbeat = 9,        // code = worker id
  kFaultInjected = 10,   // code = fault kind
  kMeasurementDegraded = 11,  // a = measurement id, b = workers lost
  kMeasurementAborted = 12,   // a = measurement id
  kCheckpoint = 13,      // a = day
  kRequestBegin = 14,    // code = request tag, a = request id
  kRequestEnd = 15,      // code = 0 ok / error code, a = request id, b = us
  kCacheHit = 16,        // code = request tag
  kCacheMiss = 17,       // code = request tag
  kRequestShed = 18,     // code: 1 inflight cap, 2 queue full
  kAuthFailure = 19,
  // Mesh relay lifecycle (src/mesh/).
  kPeerConnected = 20,    // a = peer node id, b = negotiated version
  kPeerDisconnected = 21,  // a = peer node id
  kPeerRejected = 22,     // code = ErrorCode, a = peer node id
  kDeltaPublished = 23,   // a = day, b = seq
  kDeltaPushed = 24,      // a = day, b = seq
  kDeltaDropped = 25,     // a = subscription id
  kForwarded = 26,        // a = forward id, b = hops left
};

std::string_view to_string(FrEvent kind);

/// One recorded event: 32 bytes, trivially copyable (rings are arrays of
/// these and the dump path memcpy-serializes them field by field).
struct FlightRecord {
  std::int64_t wall_ns = 0;  // wall clock, ns since the unix epoch
  std::int64_t sim_ns = 0;   // simulation clock (0 when no clock attached)
  std::uint64_t a = 0;       // kind-specific payload
  std::uint32_t b = 0;       // kind-specific payload
  std::uint16_t code = 0;    // kind-specific small code (site, tag, ...)
  std::uint8_t kind = 0;     // FrEvent
  std::uint8_t reserved = 0;
};
static_assert(sizeof(FlightRecord) == 32);

/// A decoded event with its provenance (which ring, which slot in the
/// ring's history) so merged orderings are deterministic.
struct DecodedFlightEvent {
  std::uint32_t ring = 0;
  std::uint64_t seq = 0;
  FlightRecord record;
};

class FlightRecorder {
 public:
  /// The process-wide recorder every instrumentation point uses. Never
  /// destroyed, so signal handlers and crash dumps can always reach it.
  static FlightRecorder& global();

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Events kept per recording thread; rounded up to a power of two.
  /// Affects rings created after the call (set it before recording).
  void set_capacity(std::size_t events_per_thread);
  std::size_t capacity() const { return capacity_; }

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Point the recorder at a simulation clock (stamped into sim_ns). The
  /// queue must outlive recording; pass nullptr to detach.
  void set_clock(const EventQueue* events) {
    clock_.store(events, std::memory_order_relaxed);
  }

  /// Hot path. One ring lookup (thread-local cache), one wall-clock read,
  /// one slot store. Safe from any thread.
  void record(FrEvent kind, std::uint16_t code = 0, std::uint64_t a = 0,
              std::uint32_t b = 0);

  /// Rings registered (one per thread that ever recorded here).
  std::size_t ring_count() const {
    return ring_count_.load(std::memory_order_acquire);
  }
  /// Total events recorded / overwritten-by-wrap across all rings.
  std::uint64_t recorded() const;
  std::uint64_t overwritten() const;

  /// Zero every ring's sequence (contents become unreachable). Rings and
  /// thread registrations stay valid.
  void reset();

  /// Serializes every ring to `path` (see dump format in flightrec.cpp).
  /// Returns false on I/O failure. Signal-safe given a valid fd.
  bool dump(const std::string& path) const;
  bool dump_fd(int fd) const;

  /// The merged in-memory tail: up to `max` newest events across all
  /// rings (0 = everything retained), ordered by (wall_ns, ring, seq) —
  /// deterministic for a given recording.
  std::vector<DecodedFlightEvent> merged_tail(std::size_t max) const;

  /// Arms SIGTERM/SIGINT/SIGSEGV/SIGABRT/SIGBUS to dump the *global*
  /// recorder to `path` and then re-raise with the default disposition.
  /// Call once per process, on the global instance.
  static void arm_signal_dump(const std::string& path);

 private:
  struct Ring;

  Ring* ring_for_this_thread();

  static constexpr std::size_t kMaxRings = 256;

  std::atomic<bool> enabled_{true};
  std::atomic<const EventQueue*> clock_{nullptr};
  std::size_t capacity_ = 4096;
  std::uint64_t instance_id_ = 0;  // distinguishes cached thread slots

  mutable std::mutex register_mutex_;
  /// Fixed slab of ring pointers so dumps (including from a signal
  /// handler) can iterate without locking; rings are never freed while
  /// the recorder lives.
  Ring* rings_[kMaxRings] = {};
  std::atomic<std::size_t> ring_count_{0};
};

/// Parses a dump produced by FlightRecorder::dump. Throws
/// std::runtime_error on structural corruption (bad magic/version,
/// truncation, trailing bytes). Events come back in the deterministic
/// merged order (wall_ns, ring, seq).
std::vector<DecodedFlightEvent> decode_flight_dump(
    std::span<const std::uint8_t> bytes);

/// One JSON object per event, newline-delimited (the `laces flightrec`
/// output format).
void write_flight_jsonl(std::ostream& out,
                        const std::vector<DecodedFlightEvent>& events);

}  // namespace laces::obs
