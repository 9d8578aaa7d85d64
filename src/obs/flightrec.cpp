#include "obs/flightrec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "util/bytes.hpp"

namespace laces::obs {
namespace {

constexpr std::uint32_t kDumpMagic = 0x4c465201;  // "LFR" 0x01
constexpr std::size_t kRecordBytes = 32;

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Signal-safe big-endian writer over a fixed stack buffer + write(2).
/// No allocation, no locale, no stdio — usable from a signal handler.
struct RawWriter {
  int fd;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  bool ok = true;

  explicit RawWriter(int fd) : fd(fd) {}

  void flush() {
    std::size_t off = 0;
    while (ok && off < n) {
      const ssize_t w = ::write(fd, buf + off, n - off);
      if (w < 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    n = 0;
  }
  void u8(std::uint8_t v) {
    if (n == sizeof buf) flush();
    buf[n++] = v;
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
};

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Signal-dump state: a fixed path buffer and the armed signal list. Kept
// in plain statics (not heap) so the handler touches nothing allocated.
char g_signal_dump_path[512] = {};
std::atomic<bool> g_signal_armed{false};
constexpr int kArmedSignals[] = {SIGTERM, SIGINT, SIGSEGV, SIGABRT, SIGBUS};

void signal_dump_handler(int signo) {
  // Best effort: dump whatever the rings hold, then die with the default
  // disposition so exit status and core behavior are unchanged.
  if (g_signal_armed.load(std::memory_order_relaxed)) {
    const int fd = ::open(g_signal_dump_path,
                          O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd >= 0) {
      FlightRecorder::global().dump_fd(fd);
      ::close(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

std::string_view to_string(FrEvent kind) {
  switch (kind) {
    case FrEvent::kMarker: return "marker";
    case FrEvent::kDayComplete: return "day-complete";
    case FrEvent::kDayDegraded: return "day-degraded";
    case FrEvent::kWatchdogFire: return "watchdog-fire";
    case FrEvent::kWorkerLost: return "worker-lost";
    case FrEvent::kWorkerResumed: return "worker-resumed";
    case FrEvent::kChunkStreamed: return "chunk-streamed";
    case FrEvent::kResultBatch: return "result-batch";
    case FrEvent::kHeartbeat: return "heartbeat";
    case FrEvent::kFaultInjected: return "fault-injected";
    case FrEvent::kMeasurementDegraded: return "measurement-degraded";
    case FrEvent::kMeasurementAborted: return "measurement-aborted";
    case FrEvent::kCheckpoint: return "checkpoint";
    case FrEvent::kRequestBegin: return "request-begin";
    case FrEvent::kRequestEnd: return "request-end";
    case FrEvent::kCacheHit: return "cache-hit";
    case FrEvent::kCacheMiss: return "cache-miss";
    case FrEvent::kRequestShed: return "request-shed";
    case FrEvent::kAuthFailure: return "auth-failure";
    case FrEvent::kPeerConnected: return "peer-connected";
    case FrEvent::kPeerDisconnected: return "peer-disconnected";
    case FrEvent::kPeerRejected: return "peer-rejected";
    case FrEvent::kDeltaPublished: return "delta-published";
    case FrEvent::kDeltaPushed: return "delta-pushed";
    case FrEvent::kDeltaDropped: return "delta-dropped";
    case FrEvent::kForwarded: return "forwarded";
  }
  return "?";
}

/// One thread's ring. Single writer (the owning thread), any number of
/// readers: the writer fills the slot first and publishes with a release
/// store of seq, so a reader that acquires seq sees every slot below it.
/// Slot fields are relaxed atomics (plain stores on x86) so a live reader
/// racing the writer over the oldest slot reads torn *values*, never UB;
/// readers re-check seq afterwards and drop any slot that may have been
/// overwritten mid-read.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<std::int64_t> wall_ns{0};
    std::atomic<std::int64_t> sim_ns{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint32_t> b{0};
    std::atomic<std::uint16_t> code{0};
    std::atomic<std::uint8_t> kind{0};

    FlightRecord load() const {
      FlightRecord rec;
      rec.wall_ns = wall_ns.load(std::memory_order_relaxed);
      rec.sim_ns = sim_ns.load(std::memory_order_relaxed);
      rec.a = a.load(std::memory_order_relaxed);
      rec.b = b.load(std::memory_order_relaxed);
      rec.code = code.load(std::memory_order_relaxed);
      rec.kind = kind.load(std::memory_order_relaxed);
      return rec;
    }
  };

  explicit Ring(std::uint32_t id, std::size_t capacity)
      : id(id), mask(capacity - 1), slots(capacity) {}

  const std::uint32_t id;
  const std::size_t mask;  // capacity - 1 (power of two)
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> seq{0};
};

FlightRecorder& FlightRecorder::global() {
  // Intentionally leaked: signal handlers and atexit-ordered dumps must
  // always find live rings.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

FlightRecorder::FlightRecorder() : instance_id_(next_instance_id()) {}

FlightRecorder::~FlightRecorder() {
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) delete rings_[i];
}

void FlightRecorder::set_capacity(std::size_t events_per_thread) {
  capacity_ = std::bit_ceil(std::max<std::size_t>(events_per_thread, 2));
}

namespace {
/// Per-thread ring cache, keyed by recorder instance id so tests can use
/// private recorders without colliding with the global one.
struct ThreadSlot {
  std::uint64_t owner = 0;
  void* ring = nullptr;
};
thread_local ThreadSlot t_slot;
}  // namespace

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  if (t_slot.owner == instance_id_) {
    return static_cast<Ring*>(t_slot.ring);
  }
  std::lock_guard lock(register_mutex_);
  const std::size_t n = ring_count_.load(std::memory_order_relaxed);
  if (n >= kMaxRings) return nullptr;  // beyond the slab: drop, don't crash
  auto* ring = new Ring(static_cast<std::uint32_t>(n), capacity_);
  rings_[n] = ring;
  ring_count_.store(n + 1, std::memory_order_release);
  t_slot.owner = instance_id_;
  t_slot.ring = ring;
  return ring;
}

void FlightRecorder::record(FrEvent kind, std::uint16_t code, std::uint64_t a,
                            std::uint32_t b) {
  if (!enabled()) return;
  Ring* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const std::uint64_t s = ring->seq.load(std::memory_order_relaxed);
  Ring::Slot& slot = ring->slots[s & ring->mask];
  slot.wall_ns.store(wall_now_ns(), std::memory_order_relaxed);
  const EventQueue* clock = clock_.load(std::memory_order_relaxed);
  slot.sim_ns.store(clock ? clock->now().ns() : 0, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.code.store(code, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  ring->seq.store(s + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    total += rings_[i]->seq.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::uint64_t total = 0;
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seq = rings_[i]->seq.load(std::memory_order_acquire);
    const std::uint64_t cap = rings_[i]->mask + 1;
    if (seq > cap) total += seq - cap;
  }
  return total;
}

void FlightRecorder::reset() {
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    rings_[i]->seq.store(0, std::memory_order_release);
  }
}

// Dump format (all big-endian):
//   u32 magic 0x4c465201 | u32 ring_count
//   per ring: u32 ring_id | u64 seq | u32 stored
//             stored records oldest->newest, 32 bytes each:
//             i64 wall_ns | i64 sim_ns | u64 a | u32 b | u16 code |
//             u8 kind | u8 reserved
bool FlightRecorder::dump_fd(int fd) const {
  RawWriter w(fd);
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  w.u32(kDumpMagic);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const Ring& ring = *rings_[i];
    const std::uint64_t seq = ring.seq.load(std::memory_order_acquire);
    const std::uint64_t cap = ring.mask + 1;
    const std::uint64_t stored = std::min(seq, cap);
    w.u32(ring.id);
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(stored));
    for (std::uint64_t k = seq - stored; k < seq; ++k) {
      const FlightRecord rec = ring.slots[k & ring.mask].load();
      w.i64(rec.wall_ns);
      w.i64(rec.sim_ns);
      w.u64(rec.a);
      w.u32(rec.b);
      w.u16(rec.code);
      w.u8(rec.kind);
      w.u8(rec.reserved);
    }
  }
  w.flush();
  return w.ok;
}

bool FlightRecorder::dump(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  const bool ok = dump_fd(fd);
  return ::close(fd) == 0 && ok;
}

namespace {
/// The one deterministic ordering every consumer (dump decode, live
/// tail) uses: wall time, then ring id, then slot sequence.
void sort_merged(std::vector<DecodedFlightEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const DecodedFlightEvent& x, const DecodedFlightEvent& y) {
              if (x.record.wall_ns != y.record.wall_ns) {
                return x.record.wall_ns < y.record.wall_ns;
              }
              if (x.ring != y.ring) return x.ring < y.ring;
              return x.seq < y.seq;
            });
}
}  // namespace

std::vector<DecodedFlightEvent> FlightRecorder::merged_tail(
    std::size_t max) const {
  std::vector<DecodedFlightEvent> events;
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Ring& ring = *rings_[i];
    const std::uint64_t seq = ring.seq.load(std::memory_order_acquire);
    const std::uint64_t cap = ring.mask + 1;
    const std::uint64_t stored = std::min(seq, cap);
    const std::size_t first = events.size();
    for (std::uint64_t k = seq - stored; k < seq; ++k) {
      events.push_back({ring.id, k, ring.slots[k & ring.mask].load()});
    }
    // A live writer may have lapped the oldest slots mid-read; re-check
    // seq and drop anything it could have overwritten.
    const std::uint64_t seq_now = ring.seq.load(std::memory_order_acquire);
    if (seq_now > cap) {
      const std::uint64_t oldest_valid = seq_now - cap;
      events.erase(std::remove_if(events.begin() +
                                      static_cast<std::ptrdiff_t>(first),
                                  events.end(),
                                  [&](const DecodedFlightEvent& ev) {
                                    return ev.ring == ring.id &&
                                           ev.seq < oldest_valid;
                                  }),
                   events.end());
    }
  }
  sort_merged(events);
  if (max > 0 && events.size() > max) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max));
  }
  return events;
}

void FlightRecorder::arm_signal_dump(const std::string& path) {
  std::strncpy(g_signal_dump_path, path.c_str(),
               sizeof g_signal_dump_path - 1);
  g_signal_dump_path[sizeof g_signal_dump_path - 1] = '\0';
  g_signal_armed.store(true, std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = signal_dump_handler;
  sigemptyset(&sa.sa_mask);
  for (const int signo : kArmedSignals) sigaction(signo, &sa, nullptr);
}

std::vector<DecodedFlightEvent> decode_flight_dump(
    std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kDumpMagic) {
      throw std::runtime_error("flight dump: bad magic");
    }
    const std::uint32_t ring_count = r.u32();
    std::vector<DecodedFlightEvent> events;
    for (std::uint32_t i = 0; i < ring_count; ++i) {
      const std::uint32_t ring_id = r.u32();
      const std::uint64_t seq = r.u64();
      const std::uint32_t stored = r.u32();
      if (stored > seq) {
        throw std::runtime_error("flight dump: ring stores more than it saw");
      }
      for (std::uint32_t k = 0; k < stored; ++k) {
        DecodedFlightEvent ev;
        ev.ring = ring_id;
        ev.seq = seq - stored + k;
        ev.record.wall_ns = r.i64();
        ev.record.sim_ns = r.i64();
        ev.record.a = r.u64();
        ev.record.b = r.u32();
        ev.record.code = r.u16();
        ev.record.kind = r.u8();
        ev.record.reserved = r.u8();
        events.push_back(ev);
      }
    }
    if (!r.done()) throw std::runtime_error("flight dump: trailing bytes");
    sort_merged(events);
    return events;
  } catch (const DecodeError& e) {
    throw std::runtime_error(std::string("flight dump: ") + e.what());
  }
}

void write_flight_jsonl(std::ostream& out,
                        const std::vector<DecodedFlightEvent>& events) {
  for (const auto& ev : events) {
    const auto kind = static_cast<FrEvent>(ev.record.kind);
    out << "{\"wall_ns\":" << ev.record.wall_ns
        << ",\"sim_ns\":" << ev.record.sim_ns << ",\"kind\":\""
        << to_string(kind) << "\",\"kind_id\":"
        << static_cast<unsigned>(ev.record.kind)
        << ",\"code\":" << ev.record.code << ",\"a\":" << ev.record.a
        << ",\"b\":" << ev.record.b << ",\"ring\":" << ev.ring
        << ",\"seq\":" << ev.seq << "}\n";
  }
}

}  // namespace laces::obs
