// The srm::mc explorer on small hand-built programs: the dependency and
// happens-before rules (flags, counters, channels), race and deadlock
// detection, and the DPOR/sleep-set reduction measured against the naive
// full enumeration.
#include <gtest/gtest.h>

#include "mc/ir.hpp"
#include "mc/mc.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace srm::mc {
namespace {

Options naive_opts() {
  Options o;
  o.dpor = false;
  o.sleep_sets = false;
  return o;
}

TEST(McCore, CleanFlagHandshake) {
  Program p;
  p.name = "handshake";
  int f = p.var("f");
  int bb = p.buf("bb");
  int prod = p.thread("prod");
  int cons = p.thread("cons");
  p.write(prod, bb, 0, 8);
  p.set(prod, f, 1);
  p.await_eq(cons, f, 1);
  p.read(cons, bb, 0, 8);

  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.races_found, 0u);
  EXPECT_EQ(r.deadlocks_found, 0u);
  EXPECT_GE(r.traces, 1u);
}

TEST(McCore, UnorderedAccessesRace) {
  Program p;
  p.name = "racy";
  int bb = p.buf("bb");
  int f = p.var("f");
  int prod = p.thread("prod");
  int cons = p.thread("cons");
  p.write(prod, bb, 0, 8);
  p.set(prod, f, 1);  // a release nobody acquires
  p.read(cons, bb, 0, 8);
  p.set(cons, f, 2);

  Result r = check(p);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.races.empty());
  const Race& race = r.races.front();
  EXPECT_EQ(race.buf, "bb");
  EXPECT_EQ(race.lo, 0u);
  EXPECT_EQ(race.hi, 8u);
  EXPECT_NE(race.first_thread, race.second_thread);
}

TEST(McCore, DisjointRangesDoNotRace) {
  Program p;
  p.name = "disjoint";
  int bb = p.buf("bb");
  int f = p.var("f");
  int a = p.thread("a");
  int b = p.thread("b");
  p.write(a, bb, 0, 4);
  p.set(a, f, 1);
  p.write(b, bb, 4, 8);
  p.set(b, f, 2);
  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(McCore, DroppedSetDeadlocks) {
  Program p;
  p.name = "stuck";
  int f = p.var("f");
  int a = p.thread("a");
  int b = p.thread("b");
  p.await_eq(a, f, 1);  // nobody ever sets f
  p.set(b, f, 2);

  Result r = check(p);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.deadlocks.empty());
  const Deadlock& d = r.deadlocks.front();
  ASSERT_EQ(d.blocked.size(), 1u);
  EXPECT_NE(d.blocked[0].find("a blocked at"), std::string::npos);
  EXPECT_NE(d.blocked[0].find("await f==1"), std::string::npos);
}

TEST(McCore, WaitDecIsWaitThenSubtract) {
  Program p;
  p.name = "waitdec";
  int c = p.var("c");
  int bb = p.buf("bb");
  int prod = p.thread("prod");
  int cons = p.thread("cons");
  // Two releases, one wait for both: the LAPI Waitcntr idiom.
  p.write(prod, bb, 0, 4);
  p.add(prod, c, 1);
  p.add(prod, c, 1);
  p.wait_dec(cons, c, 2);
  p.read(cons, bb, 0, 4);

  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();

  // A second wait on the drained counter deadlocks: the subtract happened.
  Program p2 = p;
  p2.wait_dec(p2.find_thread("cons"), c, 1);
  Result r2 = check(p2);
  EXPECT_EQ(r2.races_found, 0u);
  ASSERT_FALSE(r2.deadlocks.empty());
  EXPECT_NE(r2.deadlocks.front().blocked[0].find("waitdec"),
            std::string::npos);
}

TEST(McCore, ChannelMatchIsHappensBefore) {
  Program p;
  p.name = "chan";
  int ch = p.chan("ch");
  int bb = p.buf("bb");
  int prod = p.thread("prod");
  int cons = p.thread("cons");
  p.write(prod, bb, 0, 4);
  p.send(prod, ch);
  p.recv(cons, ch);
  p.read(cons, bb, 0, 4);
  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();

  // Write moved after the send: the matched pair no longer covers it.
  Program p2;
  p2.name = "chan_late_write";
  int ch2 = p2.chan("ch");
  int bb2 = p2.buf("bb");
  int prod2 = p2.thread("prod");
  int cons2 = p2.thread("cons");
  p2.send(prod2, ch2);
  p2.write(prod2, bb2, 0, 4);
  p2.recv(cons2, ch2);
  p2.read(cons2, bb2, 0, 4);
  Result r2 = check(p2);
  EXPECT_FALSE(r2.races.empty());
}

TEST(McCore, ChannelFifoOrder) {
  // Two sends, two recvs: the first recv acquires the first send only.
  Program p;
  p.name = "fifo";
  int ch = p.chan("ch");
  int b0 = p.buf("b0");
  int b1 = p.buf("b1");
  int prod = p.thread("prod");
  int cons = p.thread("cons");
  p.write(prod, b0, 0, 4);
  p.send(prod, ch);
  p.write(prod, b1, 0, 4);
  p.send(prod, ch);
  p.recv(cons, ch);
  p.read(cons, b0, 0, 4);
  p.recv(cons, ch);
  p.read(cons, b1, 0, 4);
  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

// The paper's central slot-reuse property in miniature (Fig. 3 with one
// buffer): refilling the slot is only safe after the reader cleared READY.
Program slot_reuse(bool broken) {
  Program p;
  p.name = broken ? "slot_reuse_broken" : "slot_reuse";
  int f = p.var("ready");
  int bb = p.buf("bb");
  int ld = p.thread("leader");
  int cs = p.thread("cons");
  p.write(ld, bb, 0, 8);
  p.set(ld, f, 1);
  if (!broken) p.await_eq(ld, f, 0);  // reader must be done before refill
  p.write(ld, bb, 0, 8);
  p.await_eq(cs, f, 1);
  p.read(cs, bb, 0, 8);
  p.set(cs, f, 0);
  return p;
}

TEST(McCore, SlotReuseGuardedByReadyClear) {
  Result good = check(slot_reuse(false));
  EXPECT_TRUE(good.ok()) << good.summary();

  Result bad = check(slot_reuse(true));
  ASSERT_FALSE(bad.races.empty()) << bad.summary();
  const Race& race = bad.races.front();
  EXPECT_EQ(race.buf, "bb");
  // The refill write races the straggler's read.
  EXPECT_TRUE(race.first_op.find("read") != std::string::npos ||
              race.second_op.find("read") != std::string::npos);
}

TEST(McCore, DporMatchesNaiveVerdicts) {
  for (bool broken : {false, true}) {
    Program p = slot_reuse(broken);
    Result dpor = check(p);
    Result naive = check(p, naive_opts());
    EXPECT_EQ(dpor.races.empty(), naive.races.empty()) << p.name;
    EXPECT_EQ(dpor.deadlocks.empty(), naive.deadlocks.empty()) << p.name;
    EXPECT_LE(dpor.traces, naive.traces) << p.name;
  }
}

TEST(McCore, DporReductionOnIndependentThreads) {
  // Four threads on four disjoint objects: naive explores 4!-ish
  // interleavings of every op; DPOR needs exactly one trace.
  Program p;
  p.name = "independent";
  for (int i = 0; i < 4; ++i) {
    std::string n = std::to_string(i);
    int t = p.thread("t" + n);
    int f = p.var("f" + n);
    int bb = p.buf("b" + n);
    p.write(t, bb, 0, 4);
    p.set(t, f, 1);
    p.await_eq(t, f, 1);
  }
  Result dpor = check(p);
  Result naive = check(p, naive_opts());
  EXPECT_TRUE(dpor.ok()) << dpor.summary();
  EXPECT_TRUE(naive.ok()) << naive.summary();
  EXPECT_EQ(dpor.traces, 1u);
  EXPECT_GE(naive.traces, 1000u);  // 12 ops over 4 threads: 12!/(3!)^4
  EXPECT_LT(dpor.transitions, naive.transitions / 100);
}

TEST(McCore, SleepSetsCutRedundantTraces) {
  // Cross-object dependencies in opposite orders: the classic shape where
  // sleep sets prune re-exploration of already-covered sibling branches.
  Program p;
  p.name = "contended";
  int f = p.var("f");
  int g = p.var("g");
  for (int i = 0; i < 3; ++i) {
    int t = p.thread(util::cat("t", std::to_string(i)));
    p.set(t, i % 2 == 0 ? f : g, static_cast<std::uint64_t>(i));
    p.set(t, i % 2 == 0 ? g : f, static_cast<std::uint64_t>(i));
  }
  Options no_sleep;
  no_sleep.sleep_sets = false;
  Result with = check(p);
  Result without = check(p, no_sleep);
  EXPECT_TRUE(with.ok()) << with.summary();
  EXPECT_LE(with.transitions, without.transitions);
  EXPECT_GT(with.sleep_cut, 0u);
}

TEST(McCore, CommutingAddsDoNotBranch) {
  // Counter increments commute: DPOR should not enumerate the 4! add
  // orders, and the awaiting thread still acquires from every adder.
  Program p;
  p.name = "counter";
  int c = p.var("c");
  int bb = p.buf("bb");
  for (int i = 0; i < 4; ++i) {
    int t = p.thread(util::cat("t", std::to_string(i)));
    p.write(t, bb, static_cast<std::uint64_t>(i),
            static_cast<std::uint64_t>(i) + 1);
    p.add(t, c, 1);
  }
  int w = p.thread("w");
  p.await_ge(w, c, 4);
  p.read(w, bb, 0, 4);

  Result dpor = check(p);
  Result naive = check(p, naive_opts());
  EXPECT_TRUE(dpor.ok()) << dpor.summary();
  EXPECT_TRUE(naive.ok()) << naive.summary();
  EXPECT_EQ(dpor.traces, 1u);
  EXPECT_GE(naive.traces, 24u);

  // The refinement must not hide races that the counter protocol orders:
  // one adder bumping before its write is still caught.
  Program p2 = p;
  p2.swap_with_prev("t2", "c+=1");
  Result bad = check(p2);
  ASSERT_FALSE(bad.races.empty()) << bad.summary();
  EXPECT_EQ(bad.races.front().buf, "bb");
}

TEST(McCore, BudgetCapsTheSearch) {
  Program p;
  p.name = "big";
  int f = p.var("f");
  for (int i = 0; i < 6; ++i) {
    int t = p.thread(util::cat("t", std::to_string(i)));
    for (int k = 0; k < 4; ++k) p.add(t, f, 1);
  }
  Options o = naive_opts();
  o.max_transitions = 1000;
  Result r = check(p, o);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(r.transitions, 1001u);
}

TEST(McCore, DeterministicAcrossRuns) {
  Program p = slot_reuse(true);
  Result a = check(p);
  Result b = check(p);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.races.size(), b.races.size());
  EXPECT_EQ(a.races.front().schedule, b.races.front().schedule);
}

TEST(McCore, MutationHelpersValidateNeedle) {
  Program p = slot_reuse(false);
  EXPECT_THROW(p.drop_op("leader", "no-such-op"), util::CheckError);
  EXPECT_THROW(p.swap_with_prev("nobody", "await"), util::CheckError);
  p.drop_op("leader", "await ready==0");
  Result r = check(p);
  EXPECT_FALSE(r.races.empty());
}

}  // namespace
}  // namespace srm::mc
