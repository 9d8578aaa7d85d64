#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "util/event_queue.hpp"

// Global allocation counter so tests can assert the steady-state event
// loop never touches the allocator. Counting is always on (the counter is
// cheap); tests sample it around the region of interest.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace laces {
namespace {

TEST(EventQueue, RunsInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime(300), [&] { order.push_back(3); });
  q.schedule_at(SimTime(100), [&] { order.push_back(1); });
  q.schedule_at(SimTime(200), [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime(50), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue q;
  SimTime observed;
  q.schedule_at(SimTime(500), [&] { observed = q.now(); });
  q.run();
  EXPECT_EQ(observed.ns(), 500);
  EXPECT_EQ(q.now().ns(), 500);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  SimTime inner;
  q.schedule_at(SimTime(100), [&] {
    q.schedule_after(SimDuration(50), [&] { inner = q.now(); });
  });
  q.run();
  EXPECT_EQ(inner.ns(), 150);
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime when;
  q.schedule_at(SimTime(100), [&] {
    q.schedule_at(SimTime(10), [&] { when = q.now(); });  // in the past
  });
  q.run();
  EXPECT_EQ(when.ns(), 100);
}

TEST(EventQueue, EventsCanCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) q.schedule_after(SimDuration(1), recurse);
  };
  q.schedule_at(SimTime(0), recurse);
  EXPECT_EQ(q.run(), 100u);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now().ns(), 99);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime(10), [&] { order.push_back(1); });
  q.schedule_at(SimTime(20), [&] { order.push_back(2); });
  q.schedule_at(SimTime(30), [&] { order.push_back(3); });
  EXPECT_EQ(q.run_until(SimTime(20)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now().ns(), 20);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(SimTime(1000));
  EXPECT_EQ(q.now().ns(), 1000);
}

TEST(InlineCallback, SmallCapturesStayInline) {
  std::array<unsigned char, kInlineCallbackSize - 8> small{};
  InlineCallback cb{[small] { (void)small; }};
  EXPECT_TRUE(cb.is_inline());
}

TEST(InlineCallback, OversizedCapturesFallBackToHeap) {
  std::array<unsigned char, kInlineCallbackSize + 1> big{};
  big[0] = 42;
  int seen = 0;
  InlineCallback cb{[big, &seen] { seen = big[0]; }};
  EXPECT_FALSE(cb.is_inline());
  cb();  // heap-stored callables must still invoke correctly
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, HotPathCaptureShapeFitsInline) {
  // The shape SimNetwork::deliver_to_target schedules: this-pointer, a
  // shared-buffer datagram (pointer pair + metadata), and a few ids. If
  // this stops fitting, every packet event costs a heap allocation.
  struct HotCapture {
    void* self;
    std::array<unsigned char, 56> datagram;  // sizeof(net::Datagram)-ish
    std::uint64_t dep_id;
    std::size_t pop;
    const void* target;
    std::uint64_t salt;
  };
  static_assert(sizeof(HotCapture) <= kInlineCallbackSize);
  HotCapture capture{};
  InlineCallback cb{[capture] { (void)capture; }};
  EXPECT_TRUE(cb.is_inline());
}

TEST(InlineCallback, MoveTransfersOwnership) {
  int calls = 0;
  InlineCallback a{[&calls] { ++calls; }};
  InlineCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from state
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(EventQueue, SteadyStateSchedulesWithZeroAllocations) {
  EventQueue q;
  q.reserve(256);  // pre-size the heap vector
  std::uint64_t fired = 0;

  // Warm up: one full schedule/drain cycle so any lazy growth happens now.
  for (int i = 0; i < 128; ++i) {
    q.schedule_at(SimTime(i), [&fired] { ++fired; });
  }
  q.run();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 128; ++i) {
      q.schedule_after(SimDuration(i % 7), [&fired] { ++fired; });
    }
    q.run();
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state scheduling must not touch the allocator";
  EXPECT_EQ(fired, 128u + 10u * 128u);
}

TEST(EventQueue, InlineCaptureSizedEventsDoNotAllocatePerEvent) {
  // Same zero-allocation property with a hot-path-sized capture (not just
  // a single reference): proves the capture goes into the inline buffer
  // and the inline buffer into the pre-reserved heap vector.
  struct Payload {
    std::array<unsigned char, 80> bytes{};
  };
  EventQueue q;
  q.reserve(64);
  Payload p{};
  p.bytes[0] = 1;
  std::uint64_t sum = 0;
  q.schedule_at(SimTime(0), [p, &sum] { sum += p.bytes[0]; });
  q.run();  // warm-up

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) {
    q.schedule_at(SimTime(i), [p, &sum] { sum += p.bytes[0]; });
  }
  q.run();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(sum, 33u);
}

TEST(EventQueue, EmptyAndPending) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(SimTime(1), [] {});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CanceledEventNeverFires) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(SimTime(5), [&] { ++fired; });
  q.schedule_at(SimTime(1), [&] { ++fired; });
  q.cancel(id);
  q.cancel(kInvalidEventId);  // ignored
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CanceledEventDoesNotAdvanceClock) {
  // Crucial for trace determinism: a canceled timer scheduled past the last
  // real event must not stretch now_ when the queue drains.
  EventQueue q;
  q.schedule_at(SimTime(10), [] {});
  const EventId late = q.schedule_at(SimTime(1000), [] {});
  q.cancel(late);
  q.run();
  EXPECT_EQ(q.now(), SimTime(10));
}

TEST(EventQueue, PendingLiveExcludesCanceled) {
  EventQueue q;
  const EventId a = q.schedule_at(SimTime(1), [] {});
  q.schedule_at(SimTime(2), [] {});
  EXPECT_EQ(q.pending_live(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 2u);       // still heap-resident
  EXPECT_EQ(q.pending_live(), 1u);  // but only one will run
  q.run();
  EXPECT_EQ(q.pending_live(), 0u);
}

TEST(EventQueue, CancelFromInsideAnEarlierEvent) {
  EventQueue q;
  int fired = 0;
  const EventId doomed = q.schedule_at(SimTime(7), [&] { fired += 100; });
  q.schedule_at(SimTime(3), [&] {
    ++fired;
    q.cancel(doomed);
  });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), SimTime(3));
}

TEST(EventQueue, SlotReuseAfterCancelDoesNotResurrect) {
  // After a canceled event is discarded its pool slot is recycled; the next
  // event to land in that slot carries a fresh FIFO sequence, so the old
  // cancellation cannot leak onto it.
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule_at(SimTime(1), [&] { ++fired; });
  q.cancel(a);
  q.run();  // discards the canceled event, frees the slot
  q.schedule_at(q.now() + SimDuration::nanos(1), [&] { fired += 10; });
  q.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(q.pending_live(), 0u);
}

}  // namespace
}  // namespace laces
