// srm::chk unit semantics: vector-clock happens-before edges, race
// detection, message clocks, protocol-stage attribution — plus the
// SharedFlag visibility regression (polled readers must see stores only
// after propagation) and the deadlock diagnostics wiring.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "chk/chk.hpp"
#include "machine/params.hpp"
#include "shm/flag.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace srm {
namespace {

using chk::Access;
using chk::Checker;
using chk::MsgClock;
using chk::SyncVar;
using sim::Engine;

struct Fixture {
  Engine eng;
  Checker chk{eng, 4};
  std::vector<std::byte> buf = std::vector<std::byte>(256);

  Fixture() {
    chk.set_enabled(true);
    chk.register_region(buf.data(), buf.size(), "buf");
  }
  const void* at(std::size_t off) const { return buf.data() + off; }
};

TEST(Checker, UnorderedWriteWriteIsARace) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.access(1, f.at(8), 16, Access::write);
  ASSERT_EQ(f.chk.reports().size(), 1u);
  const chk::RaceReport& r = f.chk.reports()[0];
  EXPECT_EQ(r.region, "buf");
  EXPECT_EQ(r.lo, 8u);
  EXPECT_EQ(r.hi, 16u);
  EXPECT_EQ(r.prev_actor, 0);
  EXPECT_EQ(r.cur_actor, 1);
}

TEST(Checker, UnorderedReadWriteIsARace) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  f.chk.access(0, f.at(0), 32, Access::read);
  f.chk.access(1, f.at(16), 8, Access::write);
  EXPECT_EQ(f.chk.reports().size(), 1u);
}

TEST(Checker, ReadReadIsNotARace) {
  Fixture f;
  f.chk.access(0, f.at(0), 32, Access::read);
  f.chk.access(1, f.at(0), 32, Access::read);
  EXPECT_TRUE(f.chk.reports().empty());
}

TEST(Checker, DisjointRangesDoNotRace) {
  Fixture f;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.access(1, f.at(16), 16, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
}

TEST(Checker, SameActorIsProgramOrdered) {
  Fixture f;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.access(0, f.at(0), 16, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
}

TEST(Checker, ReleaseAcquireOrdersAccesses) {
  Fixture f;
  SyncVar flag;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.release(0, flag, "ready");
  f.chk.acquire(1, flag, "ready");
  f.chk.access(1, f.at(0), 16, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
  EXPECT_GE(f.chk.sync_ops(), 2u);
}

TEST(Checker, AcquireWithoutReleaseDoesNotOrder) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  SyncVar flag;
  f.chk.access(0, f.at(0), 16, Access::write);
  // Actor 1 acquires a flag the writer never released into: no edge.
  f.chk.acquire(1, flag, "unrelated");
  f.chk.access(1, f.at(0), 16, Access::write);
  EXPECT_EQ(f.chk.reports().size(), 1u);
}

TEST(Checker, WriteAfterAcquireStillRacesWithLaterUnorderedWrite) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  SyncVar flag;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.release(0, flag);
  f.chk.acquire(1, flag);
  f.chk.access(1, f.at(0), 16, Access::write);   // ordered after actor 0
  f.chk.access(2, f.at(0), 16, Access::write);   // ordered after nothing
  // Actor 2 races with actor 1's write (actor 0's is shadowed by pruning —
  // any race with it is also a race with actor 1's covering write).
  ASSERT_EQ(f.chk.reports().size(), 1u);
  EXPECT_EQ(f.chk.reports()[0].prev_actor, 1);
  EXPECT_EQ(f.chk.reports()[0].cur_actor, 2);
}

TEST(Checker, ForkJoinAcquireOrdersRemoteAccess) {
  Fixture f;
  SyncVar cntr;
  // Origin writes its buffer, then the "put" forks a message clock; the
  // deposit is a message-attributed write; the counter bump joins; the
  // waiter acquires. The waiter may then reuse the landing zone.
  f.chk.access(0, f.at(64), 32, Access::write);
  MsgClock m = f.chk.fork(0);
  f.chk.access_remote(m, f.at(128), 32, Access::write);
  f.chk.join(cntr, m);
  f.chk.acquire(1, cntr, "arrived");
  f.chk.access(1, f.at(128), 32, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
}

TEST(Checker, RemoteDepositUnorderedWithLocalReaderRaces) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  MsgClock m = f.chk.fork(0);
  f.chk.access_remote(m, f.at(128), 32, Access::write);
  // Actor 1 reads the landing zone without waiting on any counter.
  f.chk.access(1, f.at(128), 32, Access::read);
  EXPECT_EQ(f.chk.reports().size(), 1u);
}

TEST(Checker, StageStackAppearsInReports) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  {
    chk::TaskChk t0{&f.chk, 0};
    chk::StageScope outer(t0, "srm.bcast");
    chk::StageScope inner(t0, "smp.bcast_chunk");
    f.chk.access(0, f.at(0), 8, Access::write);
  }
  f.chk.access(1, f.at(0), 8, Access::write);
  ASSERT_EQ(f.chk.reports().size(), 1u);
  EXPECT_EQ(f.chk.reports()[0].prev_stage, "srm.bcast > smp.bcast_chunk");
  std::string s = f.chk.reports()[0].to_string();
  EXPECT_NE(s.find("buf"), std::string::npos);
  EXPECT_NE(s.find("smp.bcast_chunk"), std::string::npos);
}

TEST(Checker, UnregisteredMemoryIsIgnored) {
  Fixture f;
  std::vector<std::byte> priv(64);
  f.chk.access(0, priv.data(), 64, Access::write);
  f.chk.access(1, priv.data(), 64, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
}

TEST(Checker, DisabledCheckerRecordsNothing) {
  Fixture f;
  f.chk.set_enabled(false);
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.access(1, f.at(0), 16, Access::write);
  EXPECT_TRUE(f.chk.reports().empty());
  EXPECT_EQ(f.chk.accesses_checked(), 0u);
}

TEST(Checker, AccessesCheckedCounts) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Fixture f;
  f.chk.access(0, f.at(0), 16, Access::write);
  f.chk.access(0, f.at(16), 16, Access::read);
  EXPECT_EQ(f.chk.accesses_checked(), 2u);
}

TEST(Checker, RegionCreatedOverRetiredWindowReplacesIt) {
  // A window the owner retracted is retired; the host heap can hand its
  // memory to a shared buffer created later (a landing zone built on first
  // use). The new region must own those bytes: the window's history and
  // its drop-on-foreign-access rule no longer apply there.
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Engine eng;
  Checker chk(eng, 4);
  chk.set_enabled(true);
  std::vector<std::byte> mem(256);
  chk.register_region(mem.data() + 64, 32, "win", /*owner=*/0);
  chk.access(0, mem.data() + 64, 32, Access::write);
  chk.retire_region(mem.data() + 64);

  chk.register_region(mem.data(), mem.size(), "land");
  chk.access(1, mem.data() + 72, 8, Access::write);
  chk.access(2, mem.data() + 72, 8, Access::write);
  EXPECT_EQ(chk.accesses_checked(), 3u);
  ASSERT_EQ(chk.reports().size(), 1u);
  EXPECT_EQ(chk.reports()[0].region, "land");
  EXPECT_EQ(chk.reports()[0].prev_actor, 1);
  EXPECT_EQ(chk.reports()[0].cur_actor, 2);
}

TEST(Checker, TaskChkHelpersRespectNullChecker) {
  chk::TaskChk none;  // default: no checker attached
  EXPECT_FALSE(chk::on(none));
  chk::note_read(none, nullptr, 8);   // must not crash
  chk::note_write(none, nullptr, 8);
}

// ---- SharedFlag visibility (satellite regression) --------------------------

sim::CoTask poll_probe(Engine& eng, shm::SharedFlag& flag,
                       std::vector<std::pair<sim::Time, std::uint64_t>>& log,
                       sim::Duration step, int npolls) {
  for (int i = 0; i < npolls; ++i) {
    log.emplace_back(eng.now(), flag.get());
    co_await eng.sleep(step);
  }
}

sim::CoTask store_at(Engine& eng, shm::SharedFlag& flag, sim::Duration when,
                     std::uint64_t v) {
  co_await eng.sleep(when);
  flag.set(v);
}

TEST(SharedFlag, PolledGetSeesStoreOnlyAfterPropagation) {
  Engine eng;
  machine::MemoryParams mp;  // flag_propagation = 250 ns
  shm::SharedFlag flag(eng, mp, 0, "f");
  std::vector<std::pair<sim::Time, std::uint64_t>> log;
  // Store fires at t=1000ns; probes at 0,100,...,1500ns.
  eng.spawn(store_at(eng, flag, sim::ns(1000), 7));
  eng.spawn(poll_probe(eng, flag, log, sim::ns(100), 16));
  eng.run();
  for (const auto& [t, v] : log) {
    if (t < sim::ns(1000) + mp.flag_propagation) {
      EXPECT_EQ(v, 0u) << "polled read at " << t
                       << " observed the store before propagation";
    } else {
      EXPECT_EQ(v, 7u) << "polled read at " << t << " missed the store";
    }
  }
}

TEST(SharedFlag, RawGetIsTheWritersImmediateView) {
  Engine eng;
  machine::MemoryParams mp;
  shm::SharedFlag flag(eng, mp, 0);
  flag.set(3);
  EXPECT_EQ(flag.raw_get(), 3u);  // committed immediately
  EXPECT_EQ(flag.get(), 0u);      // not yet visible to readers
  flag.add(2);                    // read-modify-write uses the committed value
  EXPECT_EQ(flag.raw_get(), 5u);
  eng.run();
  EXPECT_EQ(flag.get(), 5u);
}

TEST(SharedFlag, RandomTieBreakCannotResurrectOverwrittenValue) {
  // Two stores at the same instant produce two visibility events at the
  // same timestamp; under a random tie-break they may fire in either order,
  // but the sequence stamp must keep the newest store as the final value.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Engine eng;
    eng.set_tiebreak(sim::TieBreak::random, seed);
    machine::MemoryParams mp;
    shm::SharedFlag flag(eng, mp, 0);
    eng.call_at(sim::ns(10), [&flag] {
      flag.set(1);
      flag.set(2);
    });
    eng.run();
    EXPECT_EQ(flag.get(), 2u) << "seed " << seed;
  }
}

// ---- deadlock diagnostics --------------------------------------------------

sim::CoTask stuck_on(sim::WaitQueue& wq, int who) {
  co_await wq.wait_until([] { return false; }, who);
}

TEST(Deadlock, DumpNamesWaitPointAndTask) {
  Engine eng;
  sim::WaitQueue wq(eng, "red_arrived[3]");
  eng.spawn(stuck_on(wq, 5));
  try {
    eng.run();
    FAIL() << "expected deadlock";
  } catch (const util::CheckError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("red_arrived[3]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("task 5"), std::string::npos) << msg;
  }
}

TEST(Deadlock, DumpIncludesCheckerLastEvent) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  Engine eng;
  Checker chk(eng, 2);
  chk.set_enabled(true);
  std::vector<std::byte> buf(64);
  chk.register_region(buf.data(), buf.size(), "land");
  chk.access(1, buf.data(), 16, Access::write);
  sim::WaitQueue wq(eng, "never");
  eng.spawn(stuck_on(wq, 1));
  try {
    eng.run();
    FAIL() << "expected deadlock";
  } catch (const util::CheckError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("never"), std::string::npos) << msg;
    EXPECT_NE(msg.find("task 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("land"), std::string::npos) << msg;
  }
}

TEST(Deadlock, CleanRunDescribesNothing) {
  Engine eng;
  eng.call_at(sim::ns(5), [] {});
  eng.run();
  std::string d = eng.describe_deadlock();
  EXPECT_NE(d.find("0 process"), std::string::npos) << d;
}

}  // namespace
}  // namespace srm
