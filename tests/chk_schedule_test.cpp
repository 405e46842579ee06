// Schedule-perturbation stress: the explorer re-runs every collective under
// >= 16 seeded random tie-break schedules with jittered machine constants,
// on both the SRM and mini-MPI backends and several node/task shapes. Every
// payload must stay element-exact and the happens-before checker must stay
// silent — and non-vacuously so (accesses_checked > 0 on the SRM runs).
#include <gtest/gtest.h>

#include <cstdlib>

#include "chk/chk.hpp"
#include "chk/explore.hpp"

namespace srm {
namespace {

using chk::ExploreBackend;
using chk::ExploreOptions;
using chk::ExploreResult;

void expect_clean(const ExploreOptions& opt, bool expect_accesses) {
  ExploreResult r = chk::explore(opt);
  EXPECT_EQ(r.runs, opt.schedules);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
  if (expect_accesses && chk::kEnabled) {
    EXPECT_GT(r.accesses, 0u) << "checker saw no accesses — vacuous pass";
    EXPECT_GT(r.sync_ops, 0u);
  }
}

TEST(ScheduleExplorer, Srm2x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 1;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, Srm3x4Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 3;
  opt.tasks_per_node = 4;
  opt.schedules = 16;
  opt.seed_base = 101;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, SrmSingleNodeAndThinNodes) {
  // Pure-SMP path (1 node) and leaders-only path (1 task per node).
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 1;
  opt.tasks_per_node = 4;
  opt.schedules = 8;
  opt.seed_base = 201;
  expect_clean(opt, true);

  opt.nodes = 4;
  opt.tasks_per_node = 1;
  opt.seed_base = 301;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, MixedMappedAndStagedReducesShareSlotPair) {
  // Mapped and staged reduces publish through the same red_slot pair per
  // task: the mapped flag only changes where a leaf's chunk comes from. The
  // reduce rows switch to mapped at 64 KB, so the sizes below alternate the
  // modes across multi-chunk reduces and pipelined allreduces. On 2x8
  // modern_smp nodes both the binomial tree and the topology tree have
  // interior non-leader vertices, and the moving roots reshuffle which
  // local is a leaf: a slot a staged leaf wrote is next written by a mapped
  // interior vertex, and the reverse.
  constexpr std::size_t kMappedFrom = 64 * 1024;
  const auto bin = coll::TreeKind::binomial;
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 8;
  opt.schedules = 16;
  opt.seed_base = 1001;
  opt.params = machine::MachineParams::modern_smp();
  opt.srm.single_copy = true;
  opt.srm.decisions.profile = "mixed";
  opt.srm.decisions.set(coll::CollKind::reduce, 0,
                        {coll::Algo::staged, false, bin});
  opt.srm.decisions.set(coll::CollKind::reduce, kMappedFrom,
                        {coll::Algo::staged, true, bin});
  using Op = chk::ExploreOp;
  // f64 elements; 2048 per 16 KB reduce chunk.
  opt.plan = {
      {Op::reduce, 5000, 0},      // staged, 3 chunks
      {Op::reduce, 9000, 11},     // mapped, 5 chunks, root on node 1
      {Op::reduce, 3000, 5},      // staged, 2 chunks
      {Op::reduce, 8192, 14},     // mapped, 4 chunks
      {Op::allreduce, 5000, 0},   // pipelined over a staged reduce
      {Op::allreduce, 9000, 0},   // pipelined over a mapped reduce
      {Op::reduce, 9000, 6},      // mapped
      {Op::reduce, 5000, 9},      // staged
      {Op::allreduce, 3000, 0},   // staged
      {Op::reduce, 8192, 2},      // mapped
      {Op::barrier, 0, 0},
  };
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, LinksBuiltMidRunStayOrdered) {
  // Link state is built when a protocol first touches a (node, peer) pair,
  // and a landing pair when its family first lands data there. Each op
  // below has its root on a different node, so every op reaches links (and
  // landing families) the ops before it never built — staged and direct
  // bcasts, reduces and gathers, mapped and staged — and the zoo's ring,
  // recursive halving and scatter+allgather then build theirs. The buffers
  // come from the host heap while windows of earlier mapped ops have
  // already been retracted.
  const auto bin = coll::TreeKind::binomial;
  using coll::Algo;
  using coll::CollKind;
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 4;
  opt.tasks_per_node = 4;
  opt.schedules = 16;
  opt.seed_base = 1101;
  opt.params = machine::MachineParams::modern_smp();
  opt.srm.single_copy = true;
  auto& tab = opt.srm.decisions;
  tab.profile = "links";
  tab.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  tab.set(CollKind::bcast, 2048, {Algo::staged, true, bin});
  tab.set(CollKind::bcast, 16384, {Algo::direct, false, bin});
  tab.set(CollKind::bcast, 65536, {Algo::direct, true, bin});
  tab.set(CollKind::bcast, 90000, {Algo::scatter_ag, false, bin});
  tab.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  tab.set(CollKind::reduce, 4096, {Algo::staged, true, bin});
  tab.set(CollKind::gather, 0, {Algo::staged, false, bin});
  tab.set(CollKind::gather, 8192, {Algo::staged, true, bin});
  tab.set(CollKind::allreduce, 0, {Algo::ring, false, bin});
  tab.set(CollKind::allreduce, 40000, {Algo::rhalving, false, bin});
  using Op = chk::ExploreOp;
  // Bytes for bcast, f64 elements otherwise (per rank for gather).
  opt.plan = {
      {Op::bcast, 1000, 5},       // staged, root node 1
      {Op::reduce, 100, 10},      // staged, root node 2
      {Op::gather, 64, 15},       // staged (2 KB node block), root node 3
      {Op::bcast, 4000, 0},       // staged+sc, root node 0
      {Op::bcast, 20000, 9},      // direct, root node 2
      {Op::reduce, 3000, 3},      // mapped, 2 chunks, root node 0
      {Op::gather, 512, 6},       // mapped (16 KB node block), root node 1
      {Op::bcast, 70000, 13},     // direct+sc, 2 net chunks, root node 3
      {Op::allreduce, 3000, 0},   // ring
      {Op::allreduce, 6000, 0},   // rhalving
      {Op::bcast, 100000, 7},     // scatter+allgather, root node 1
      {Op::barrier, 0, 0},
  };
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, MpiIbm2x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::mpi_ibm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 401;
  expect_clean(opt, false);
}

TEST(ScheduleExplorer, MpiMpich3x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::mpi_mpich;
  opt.nodes = 3;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 501;
  expect_clean(opt, false);
}

TEST(ScheduleExplorer, FifoNoJitterMatchesSeedBehaviour) {
  // Sanity: with jitter off and the checker off, the explorer still verifies
  // payloads under the randomized tie-break alone.
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 3;
  opt.schedules = 8;
  opt.seed_base = 601;
  opt.jitter = false;
  opt.enable_checker = false;
  ExploreResult r = chk::explore(opt);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
  EXPECT_EQ(r.accesses, 0u);  // checker off: no access records
}

TEST(ScheduleExplorer, CleanSweepReportsNoFailingSeed) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 4;
  opt.seed_base = 701;
  ExploreResult r = chk::explore(opt);
  ASSERT_TRUE(r.clean()) << summarize(opt, r);
  EXPECT_EQ(r.first_failing_seed, ExploreResult::kNoSeed);
  EXPECT_TRUE(r.failing_trace.empty());
  EXPECT_EQ(summarize(opt, r).find("SRM_EXPLORE_SEED"), std::string::npos);
}

TEST(ScheduleExplorer, EnvSeedPinsTheSweepToOneRun) {
  // SRM_EXPLORE_SEED collapses a multi-seed sweep to exactly the named seed —
  // the deterministic replay knob for a failure a previous sweep printed.
  ASSERT_EQ(setenv("SRM_EXPLORE_SEED", "12345", 1), 0);
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 8;
  opt.seed_base = 801;
  ExploreResult r = chk::explore(opt);
  unsetenv("SRM_EXPLORE_SEED");
  EXPECT_EQ(r.runs, 1);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
}

TEST(ScheduleExplorer, MalformedEnvSeedIsIgnored) {
  ASSERT_EQ(setenv("SRM_EXPLORE_SEED", "not-a-seed", 1), 0);
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 1;
  opt.tasks_per_node = 2;
  opt.schedules = 3;
  opt.seed_base = 901;
  ExploreResult r = chk::explore(opt);
  unsetenv("SRM_EXPLORE_SEED");
  EXPECT_EQ(r.runs, 3);  // sweep unaffected
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
}

TEST(ScheduleExplorer, SummaryPrintsReproducerLineOnFailure) {
  // summarize() must tell the user exactly how to replay a failure: the seed
  // and the env var that pins it, plus the captured tie-break trace.
  ExploreOptions opt;
  opt.schedules = 16;
  ExploreResult r;
  r.runs = 16;
  r.payload_errors.push_back("seed 1007 op bcast rank 3: element 5 mismatch");
  r.first_failing_seed = 1007;
  r.failing_trace = {"a0 release 'ready0.s0[0]'", "a3 acquire 'ready0.s0[0]'"};
  std::string s = summarize(opt, r);
  EXPECT_NE(s.find("1007"), std::string::npos) << s;
  EXPECT_NE(s.find("SRM_EXPLORE_SEED=1007"), std::string::npos) << s;
  EXPECT_NE(s.find("tie-break trace"), std::string::npos) << s;
  EXPECT_NE(s.find("a3 acquire 'ready0.s0[0]'"), std::string::npos) << s;
}

}  // namespace
}  // namespace srm
