// CalendarQueue: differential tests against a reference binary heap.
//
// The calendar queue replaced std::priority_queue as the engine's pending
// event set; the contract is that the dequeue sequence is *bitwise identical*
// to the reference heap under the engine's (time, key, id) order, whatever
// the bucket layout does internally. These tests drive both structures with
// the same randomized workloads — including the degenerate shapes a
// simulation actually produces (same-timestamp bursts, drain-refill cycles,
// far-future stragglers) — and require identical output.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "util/rng.hpp"

namespace srm::sim {
namespace {

struct TestEv {
  Time t;
  std::uint64_t key;
  std::uint64_t id;
};

struct TestOrder {
  bool operator()(const TestEv& a, const TestEv& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.key != b.key) return a.key > b.key;
    return a.id > b.id;
  }
};

using RefQueue = std::priority_queue<TestEv, std::vector<TestEv>, TestOrder>;
using CalQueue = CalendarQueue<TestEv, TestOrder>;

// Interleaves pushes and pops per `workload`, asserting every popped event
// matches the reference heap exactly.
void run_differential(util::SplitMix64& rng, std::size_t steps,
                      Time (*next_time)(util::SplitMix64&, Time now)) {
  RefQueue ref;
  CalQueue cal;
  std::uint64_t id = 0;
  Time now = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    bool push = ref.empty() || (rng.next() % 100) < 55;
    if (push) {
      TestEv ev{next_time(rng, now), rng.next() % 4, id++};
      ref.push(ev);
      cal.push(ev);
    } else {
      TestEv want = ref.top();
      ref.pop();
      TestEv got = cal.pop();
      ASSERT_EQ(got.t, want.t);
      ASSERT_EQ(got.key, want.key);
      ASSERT_EQ(got.id, want.id);
      now = got.t;  // engine time is monotone: future pushes are >= now
    }
  }
  while (!ref.empty()) {
    TestEv want = ref.top();
    ref.pop();
    TestEv got = cal.pop();
    ASSERT_EQ(got.id, want.id);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, MatchesHeapUniformTimes) {
  util::SplitMix64 rng(1);
  run_differential(rng, 20000, +[](util::SplitMix64& r, Time now) {
    return now + r.next() % 10000;
  });
}

TEST(CalendarQueue, MatchesHeapSameTimestampBursts) {
  util::SplitMix64 rng(2);
  run_differential(rng, 20000, +[](util::SplitMix64& r, Time now) {
    // 90% of events land exactly at `now` — the t=0 spawn-burst shape.
    return r.next() % 10 == 0 ? now + r.next() % 100 : now;
  });
}

TEST(CalendarQueue, MatchesHeapFarFutureStragglers) {
  util::SplitMix64 rng(3);
  run_differential(rng, 8000, +[](util::SplitMix64& r, Time now) {
    // Mostly near-term, occasionally a straggler far past the current year,
    // forcing the year-scan + jump_to_min path.
    return r.next() % 50 == 0 ? now + 1'000'000'000 + r.next() % 1000
                              : now + r.next() % 500;
  });
}

TEST(CalendarQueue, DrainRefillCycles) {
  util::SplitMix64 rng(4);
  RefQueue ref;
  CalQueue cal;
  std::uint64_t id = 0;
  Time now = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    std::size_t n = 1 + rng.next() % 400;
    for (std::size_t i = 0; i < n; ++i) {
      TestEv ev{now + rng.next() % 1000, 0, id++};
      ref.push(ev);
      cal.push(ev);
    }
    while (!ref.empty()) {
      TestEv want = ref.top();
      ref.pop();
      TestEv got = cal.pop();
      ASSERT_EQ(got.id, want.id);
      now = got.t;
    }
    EXPECT_TRUE(cal.empty());
    now += 1 + rng.next() % 1'000'000;  // idle gap before the next burst
  }
}

TEST(CalendarQueue, GrowsAndShrinksWithLoad) {
  CalQueue cal;
  std::size_t base = cal.bucket_count();
  for (std::uint64_t i = 0; i < 4096; ++i) {
    cal.push(TestEv{i % 97, 0, i});
  }
  EXPECT_GT(cal.bucket_count(), base);
  for (int i = 0; i < 4096; ++i) (void)cal.pop();
  EXPECT_TRUE(cal.empty());
  EXPECT_LT(cal.bucket_count(), 4096 / 2);
}

// The engine's own determinism across the queue swap: a mixed workload of
// sleeps, cancels, and same-time events must fire in schedule (FIFO) order.
TEST(CalendarQueue, EngineFifoOrderPreserved) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    eng.call_at(us(5), [&order, i] { order.push_back(i); });
  }
  auto cancelled = eng.call_at(us(5), [&order] { order.push_back(-1); });
  eng.cancel(cancelled);
  eng.call_at(us(1), [&order] { order.push_back(1000); });
  eng.run();
  ASSERT_EQ(order.size(), 65u);
  EXPECT_EQ(order.front(), 1000);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(FramePool, RecyclesFrames) {
  FramePool::reset_stats();
  Engine eng;
  auto tick = [](Engine& e) -> CoTask { co_await e.sleep(us(1)); };
  // Sequential waves of identical coroutines: after the first wave the pool
  // must serve (almost) every frame from its free lists.
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 32; ++i) eng.spawn(tick(eng));
    eng.run();
  }
  auto st = FramePool::stats();
  EXPECT_GT(st.allocs, 0u);
  EXPECT_GT(st.reused, st.allocs / 2);
}

}  // namespace
}  // namespace srm::sim
