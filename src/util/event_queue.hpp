// Discrete-event simulation core.
//
// The orchestrator, workers and the simulated network all schedule callbacks
// on one EventQueue; run() drains events in timestamp order (FIFO within a
// timestamp), advancing the simulated clock.
//
// The queue is the innermost loop of every experiment, so it is built for
// per-event cost: callbacks are InlineCallback (no allocation for captures
// up to kInlineCallbackSize bytes) and the (timestamp, FIFO-seq) ordering
// runs on a hand-rolled 4-ary min-heap over a flat vector — after warm-up
// a scheduled packet event touches no allocator at all. The heap stores
// only 16-byte trivially-copyable (at, seq·slot) entries; the callbacks
// sit still in a slot pool, so a sift step is a flat two-word move instead
// of an indirect callback relocation, and the 4-ary layout halves the sift
// depth of a binary heap (a census-sized heap outgrows L2, so pop cost is
// one cache miss per level). The (at, seq) comparator is a total order, so
// heap pop order — and therefore simulation output — is identical to the
// previous std::priority_queue implementation regardless of heap shape.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/callback.hpp"
#include "util/simtime.hpp"

namespace laces {

/// Handle to a scheduled event, usable with EventQueue::cancel().
/// kInvalidEventId never names a live event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Timestamp-ordered callback queue driving simulated time.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Current simulated time. Readable from any thread (relaxed; free on
  /// mainstream ISAs): the flight recorder stamps sim_ns from whichever
  /// thread records. All mutation stays on the thread driving the queue.
  SimTime now() const {
    return SimTime(now_ns_.load(std::memory_order_relaxed));
  }

  /// Schedule `cb` to run at absolute time `at` (clamped to now()).
  /// The returned id stays valid until the event runs or is canceled.
  EventId schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` to run `delay` after now().
  EventId schedule_after(SimDuration delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Cancel a pending event. A canceled event is discarded without running
  /// and — crucially for determinism — without advancing now(), so a
  /// canceled watchdog can never stretch the simulated timeline. Callers
  /// must not cancel ids of events that already ran (the id would linger
  /// in the canceled set); kInvalidEventId is ignored.
  void cancel(EventId id);

  /// Run until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Run until the queue drains or simulated time would exceed `deadline`;
  /// events after the deadline stay queued. Returns events executed.
  std::size_t run_until(SimTime deadline);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Pending events not yet canceled (drain checks ignore canceled stubs).
  std::size_t pending_live() const { return heap_.size() - canceled_.size(); }

  /// Pre-size the heap and slot-pool storage (lets tests assert the steady
  /// state does zero allocations per event).
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
    free_.reserve(n);
  }

 private:
  /// Heap key: trivially copyable, so sift moves are cheap flat copies.
  /// The low 24 bits of `seq_slot` index the callback in the side pool;
  /// the high 40 bits are the FIFO sequence number. Since the sequence is
  /// unique, comparing the packed word within a timestamp orders exactly
  /// by sequence — the slot bits can never influence pop order.
  struct Entry {
    SimTime at;
    std::uint64_t seq_slot;

    bool before(const Entry& o) const {
      if (at != o.at) return at < o.at;
      return seq_slot < o.seq_slot;
    }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };
  static constexpr std::uint64_t kSlotMask = (1ULL << 24) - 1;

  /// Remove the minimum entry and move its callback out of the pool (so
  /// the callback may freely schedule new events while it runs). Sets
  /// `at_out` to the event's timestamp.
  Callback pop_min(SimTime& at_out);

  /// If the minimum entry was canceled, drop it (without touching now_)
  /// and return true.
  bool discard_if_canceled();

  std::vector<Entry> heap_;     // binary min-heap ordered by (at, seq)
  std::vector<Callback> slots_; // callback pool, indexed by Entry::slot
  std::vector<std::uint32_t> free_;  // recycled slot indices (LIFO)
  /// EventIds (seq_slot + 1) canceled but still parked in the heap. The run
  /// loops pay one empty() check per event while this is empty, so the
  /// fault-free hot path is unchanged.
  std::unordered_set<EventId> canceled_;
  /// Sim clock in ns. Atomic only so concurrent now() readers (telemetry
  /// stamping from other threads) are race-free; relaxed ops keep the
  /// single-driver hot path at plain load/store cost.
  std::atomic<std::int64_t> now_ns_{0};
  std::uint64_t next_seq_ = 0;
};

}  // namespace laces
