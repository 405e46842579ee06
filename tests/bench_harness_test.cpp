// Harness sanity + shape regression tests: the qualitative results the
// paper reports must hold for the default machine profile. These are the
// guardrails that keep future tuning from silently inverting a figure.
#include <gtest/gtest.h>

#include "bench/harness.hpp"

namespace srm::bench {
namespace {

TEST(Harness, DeterministicMeasurements) {
  Bench a(Impl::srm, 4, 16);
  Bench b(Impl::srm, 4, 16);
  EXPECT_EQ(a.time_bcast(4096), b.time_bcast(4096));
  EXPECT_EQ(a.time_barrier(), b.time_barrier());
}

TEST(Harness, TimeGrowsWithMessageSize) {
  for (Impl impl : {Impl::srm, Impl::mpi_ibm, Impl::mpi_mpich}) {
    Bench b(impl, 4, 16);
    double t1 = b.time_bcast(64);
    double t2 = b.time_bcast(64 * 1024);
    double t3 = b.time_bcast(1u << 20);
    EXPECT_LT(t1, t2) << impl_name(impl);
    EXPECT_LT(t2, t3) << impl_name(impl);
  }
}

TEST(Harness, BarrierGrowsWithProcessorCount) {
  for (Impl impl : {Impl::srm, Impl::mpi_ibm}) {
    Bench small(impl, 2, 16);
    Bench large(impl, 16, 16);
    EXPECT_LT(small.time_barrier(), large.time_barrier())
        << impl_name(impl);
  }
}

TEST(Harness, SymbolicBarrierRunsOnTheSymbolicPlane) {
  // A fresh Bench has no plane history, and the plane switch runs a barrier
  // on the plane of that history: symbolic mode must still time the
  // symbolic barrier, which sends no message, and its self-check skeleton
  // must cover the call that set the history.
  for (Impl impl : {Impl::srm, Impl::mpi_ibm}) {
    Bench b(impl, 2, 8);
    b.set_symbolic(true);
    b.force_selfcheck();
    EXPECT_GT(b.time_barrier(4), 0.0) << impl_name(impl);
    EXPECT_EQ(b.sv_finish(), 0) << impl_name(impl);
    std::uint64_t messages = 0;
    for (const std::string& name : b.obs().names()) {
      if (name.rfind("lapi.", 0) == 0 || name.rfind("mpi.send.", 0) == 0) {
        messages += b.obs().count(name);
      }
    }
    EXPECT_EQ(messages, 0u) << impl_name(impl);
  }
}

// ---- shape regressions vs the paper's claims ----

class ShapeAt256 : public ::testing::Test {
 protected:
  static constexpr int kNodes = 16;  // 256 CPUs at 16/node
};

TEST_F(ShapeAt256, SrmBcastBeatsBothBaselinesEverywhere) {
  for (std::size_t bytes : {8ul, 1024ul, 16384ul, 262144ul}) {
    Bench s(Impl::srm, kNodes, 16);
    Bench i(Impl::mpi_ibm, kNodes, 16);
    Bench m(Impl::mpi_mpich, kNodes, 16);
    double ts = s.time_bcast(bytes, iters_for(bytes));
    EXPECT_LT(ts, i.time_bcast(bytes, iters_for(bytes))) << bytes;
    EXPECT_LT(ts, m.time_bcast(bytes, iters_for(bytes))) << bytes;
  }
}

TEST_F(ShapeAt256, SrmReduceAndAllreduceBeatIbm) {
  for (std::size_t count : {1ul, 512ul, 8192ul}) {
    Bench s(Impl::srm, kNodes, 16);
    Bench i(Impl::mpi_ibm, kNodes, 16);
    EXPECT_LT(s.time_reduce(count), i.time_reduce(count)) << count;
    Bench s2(Impl::srm, kNodes, 16);
    Bench i2(Impl::mpi_ibm, kNodes, 16);
    EXPECT_LT(s2.time_allreduce(count), i2.time_allreduce(count)) << count;
  }
}

TEST_F(ShapeAt256, BarrierImprovementInPaperBallpark) {
  Bench s(Impl::srm, kNodes, 16);
  Bench i(Impl::mpi_ibm, kNodes, 16);
  double improvement = 1.0 - s.time_barrier() / i.time_barrier();
  // Paper: 73% on 256 CPUs. Accept a generous band around the shape.
  EXPECT_GT(improvement, 0.45);
  EXPECT_LT(improvement, 0.90);
}

TEST_F(ShapeAt256, BcastImprovementBandContainsPaperRegime) {
  // Fig. 9: ratios roughly 16%..73% of IBM MPI across sizes. Check that a
  // medium size sits deep in the winning region and the smallest size is
  // the weakest win, as in the paper.
  Bench s8(Impl::srm, kNodes, 16), i8(Impl::mpi_ibm, kNodes, 16);
  Bench sm(Impl::srm, kNodes, 16), im(Impl::mpi_ibm, kNodes, 16);
  double r_small = s8.time_bcast(8) / i8.time_bcast(8);
  double r_medium = sm.time_bcast(1024) / im.time_bcast(1024);
  EXPECT_LT(r_small, 1.0);
  EXPECT_LT(r_medium, r_small);  // mid sizes win bigger than tiny ones
  EXPECT_LT(r_medium, 0.5);
}

TEST(Shape, MpichSlowerThanIbmForCollectives) {
  // Compare below both eager limits (IBM's shrinks with P); at sizes where
  // only IBM has switched to rendezvous, MPICH can legitimately win — the
  // exact handicap abl_eager_threshold demonstrates.
  Bench i(Impl::mpi_ibm, 4, 16);
  Bench m(Impl::mpi_mpich, 4, 16);
  EXPECT_LT(i.time_bcast(256), m.time_bcast(256));
  Bench i2(Impl::mpi_ibm, 4, 16);
  Bench m2(Impl::mpi_mpich, 4, 16);
  EXPECT_LT(i2.time_barrier(), m2.time_barrier());
}

TEST(Shape, FatterNodesHelpSrm) {
  // §3: the embedding wins more when more CPUs share memory.
  Bench thin(Impl::srm, 32, 2);
  Bench fat(Impl::srm, 4, 16);
  EXPECT_LT(fat.time_bcast(1024), thin.time_bcast(1024));
}

TEST(Shape, SweepHelpers) {
  auto sizes = size_sweep(8, 64);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{8, 16, 32, 64}));
  EXPECT_EQ(cpu_sweep().front(), 16);
  EXPECT_EQ(cpu_sweep().back(), 256);
  EXPECT_EQ(iters_for(8), 4);
  EXPECT_EQ(iters_for(8u << 20), 1);
}

}  // namespace
}  // namespace srm::bench
