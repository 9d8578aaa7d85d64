#include "util/event_queue.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace laces {

EventId EventQueue::schedule_at(SimTime at, Callback cb) {
  if (at < now()) at = now();

  // Park the callback in the slot pool; only the 16-byte key enters the
  // heap, so the sift below never touches the callback.
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    expects(slot <= kSlotMask, "event slot pool fits 24-bit indices");
    slots_.push_back(std::move(cb));
  }

  const Entry ev{at, (next_seq_++ << 24) | slot};
  // Hole-based sift-up: shift ancestors down into the hole, then place the
  // new entry once (one move per level instead of a three-move swap).
  heap_.emplace_back();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!ev.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
  return ev.seq_slot + 1;
}

void EventQueue::cancel(EventId id) {
  if (id != kInvalidEventId) canceled_.insert(id);
}

bool EventQueue::discard_if_canceled() {
  if (canceled_.empty() || canceled_.erase(heap_.front().seq_slot + 1) == 0) {
    return false;
  }
  SimTime at;
  (void)pop_min(at);  // drop the callback; now_ stays where it was
  return true;
}

EventQueue::Callback EventQueue::pop_min(SimTime& at_out) {
  const Entry min = heap_.front();
  at_out = min.at;
  const std::uint32_t slot = min.slot();
  Callback cb = std::move(slots_[slot]);
  free_.push_back(slot);

  if (heap_.size() > 1) {
    // Hole-based sift-down of the last entry from the root.
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t smallest = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c].before(heap_[smallest])) smallest = c;
      }
      if (!heap_[smallest].before(last)) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = last;
  } else {
    heap_.pop_back();
  }
  return cb;
}

std::size_t EventQueue::run() {
  std::size_t executed = 0;
  while (!heap_.empty()) {
    if (discard_if_canceled()) continue;
    // The callback is moved fully off the pool before it runs, so it may
    // schedule new events.
    SimTime at;
    Callback cb = pop_min(at);
    now_ns_.store(at.ns(), std::memory_order_relaxed);
    cb();
    ++executed;
  }
  return executed;
}

std::size_t EventQueue::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at <= deadline) {
    if (discard_if_canceled()) continue;
    SimTime at;
    Callback cb = pop_min(at);
    now_ns_.store(at.ns(), std::memory_order_relaxed);
    cb();
    ++executed;
  }
  if (now() < deadline) now_ns_.store(deadline.ns(), std::memory_order_relaxed);
  return executed;
}

}  // namespace laces
