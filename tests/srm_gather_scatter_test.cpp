// Extended SRM collectives: scatter, gather, allgather, reduce_scatter —
// data correctness across shapes, sizes (multi-chunk node blocks), roots,
// and back-to-back sequences; plus the mini-MPI counterparts.
#include <gtest/gtest.h>

#include <vector>

#include "core/communicator.hpp"
#include "mpi/comm.hpp"
#include "util/format.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

struct Fixture {
  Fixture(int nodes, int per_node)
      : cluster(make_cfg(nodes, per_node)),
        fabric(cluster),
        comm(cluster, fabric) {}
  static ClusterConfig make_cfg(int nodes, int per_node) {
    ClusterConfig c;
    c.nodes = nodes;
    c.tasks_per_node = per_node;
    return c;
  }
  Cluster cluster;
  lapi::Fabric fabric;
  Communicator comm;
};

double element(int rank, std::size_t i) {
  return rank * 1000.0 + static_cast<double>(i);
}

class GatherScatterShapes
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(GatherScatterShapes, ScatterDeliversEachBlock) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n > 2 ? 2 : 0;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&, count = count, root](TaskCtx& t) -> CoTask {
    std::vector<double> send;
    if (t.rank == root) {
      send.resize(count * static_cast<std::size_t>(t.nranks()));
      for (int r = 0; r < t.nranks(); ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          send[static_cast<std::size_t>(r) * count + i] = element(r, i);
        }
      }
    }
    std::vector<double> recv(count, -1.0);
    co_await f.comm.scatter(t, coll::of(send.data(), count),
                            coll::of(recv.data(), count), root);
    got[static_cast<std::size_t>(t.rank)] = recv;
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)][i], element(r, i))
          << "rank " << r << " i " << i;
    }
  }
}

TEST_P(GatherScatterShapes, GatherAssemblesRankOrder) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n - 1;
  std::vector<double> out(count * static_cast<std::size_t>(n), -1.0);
  f.cluster.run([&, count = count, root](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    co_await f.comm.gather(
        t, coll::of(mine.data(), count),
        coll::of(t.rank == root ? out.data() : nullptr, count), root);
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(r) * count + i], element(r, i))
          << "rank " << r << " i " << i;
    }
  }
}

TEST_P(GatherScatterShapes, AllgatherEveryoneHasEverything) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&, count = count](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    std::vector<double> all(count * static_cast<std::size_t>(t.nranks()),
                            -1.0);
    co_await f.comm.allgather(t, coll::of(mine.data(), count),
                              coll::of(all.data(), count));
    got[static_cast<std::size_t>(t.rank)] = std::move(all);
  });
  for (int holder = 0; holder < n; ++holder) {
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < count; i += count > 8 ? 7 : 1) {
        ASSERT_EQ(got[static_cast<std::size_t>(holder)]
                     [static_cast<std::size_t>(r) * count + i],
                  element(r, i))
            << "holder " << holder << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherScatterShapes,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),
        ::testing::Values(1, 4, 16),
        // Node blocks spanning < 1 chunk, exactly 1 chunk, and many chunks
        // of the 64 KB staging buffers.
        ::testing::Values(std::size_t{1}, std::size_t{300},
                          std::size_t{4096}, std::size_t{20000})),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)), "_c",
                       std::to_string(std::get<2>(info.param)));
    });

TEST(SrmReduceScatter, SumsAndSplits) {
  Fixture f(3, 4);
  int n = 12;
  std::size_t per = 100;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(per * static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = t.rank + static_cast<double>(i);
    }
    std::vector<double> out(per, -1.0);
    co_await f.comm.reduce_scatter(t, coll::of(mine.data(), per),
                                   coll::of(out.data(), per),
                                   coll::RedOp::sum);
    got[static_cast<std::size_t>(t.rank)] = out;
  });
  double rank_sum = n * (n - 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < per; ++i) {
      std::size_t gi = static_cast<std::size_t>(r) * per + i;
      ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(r)][i],
                       rank_sum + n * static_cast<double>(gi))
          << "rank " << r << " i " << i;
    }
  }
}

TEST(SrmGatherScatter, BackToBackMixedRootsAndSizes) {
  Fixture f(3, 5);
  int n = 15;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 5; ++round) {
      std::size_t count = round % 2 == 0 ? 50 : 9000;  // 1 vs many chunks
      int root = (round * 7) % n;
      // gather then scatter back: everyone should recover its own block.
      std::vector<double> mine(count);
      for (std::size_t i = 0; i < count; ++i) {
        mine[i] = element(t.rank, i) + round;
      }
      std::vector<double> all;
      if (t.rank == root) {
        all.resize(count * static_cast<std::size_t>(n));
      }
      co_await f.comm.gather(t, coll::of(mine.data(), count),
                             coll::of(all.data(), count), root);
      std::vector<double> back(count, -1.0);
      co_await f.comm.scatter(t, coll::of(all.data(), count),
                              coll::of(back.data(), count), root);
      for (std::size_t i = 0; i < count; i += 11) {
        EXPECT_EQ(back[i], mine[i]) << "round " << round << " rank "
                                    << t.rank;
      }
    }
  });
}

TEST(SrmGatherScatter, InterleavedWithOtherCollectives) {
  Fixture f(2, 8);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(64, 1.0 * t.rank);
    std::vector<double> all(64 * 16, 0.0);
    co_await f.comm.allgather(t, coll::of(mine.data(), 64),
                              coll::of(all.data(), 64));
    double s = 0.0, total = 0.0;
    for (double v : all) s += v;
    co_await f.comm.allreduce(t, coll::of(&s, 1), coll::of(&total, 1),
                              coll::RedOp::max);
    EXPECT_DOUBLE_EQ(total, 64.0 * (15 * 16 / 2));
    co_await f.comm.barrier(t);
  });
}

// ---- mini-MPI counterparts ----

TEST(MpiGatherScatter, LinearAlgorithmsCorrect) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  minimpi::World world(cluster, cluster.params().mpi_ibm, "ibm");
  int n = 8;
  std::size_t count = 500;
  std::vector<double> gathered(count * 8, -1.0);
  std::vector<std::vector<double>> scattered(8);
  cluster.run([&](TaskCtx& t) -> CoTask {
    auto& c = world.comm(t.rank);
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    co_await c.gather(mine.data(), t.rank == 3 ? gathered.data() : nullptr,
                      count * sizeof(double), 3);
    std::vector<double> recv(count, -1.0);
    co_await c.scatter(gathered.data(), recv.data(), count * sizeof(double),
                       3);
    scattered[static_cast<std::size_t>(t.rank)] = recv;
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; i += 13) {
      ASSERT_EQ(gathered[static_cast<std::size_t>(r) * count + i],
                element(r, i));
      ASSERT_EQ(scattered[static_cast<std::size_t>(r)][i], element(r, i));
    }
  }
}

TEST(MpiGatherScatter, AllgatherAndReduceScatter) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 3;
  Cluster cluster(cc);
  minimpi::World world(cluster, cluster.params().mpi_mpich, "mpich");
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(10, 1.0 * t.rank);
    std::vector<double> all(60, -1.0);
    co_await world.allgather(t, coll::of(mine.data(), 10),
                             coll::of(all.data(), 10));
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 10], 1.0 * r);
    }
    std::vector<double> big(60, 1.0 * t.rank);
    std::vector<double> piece(10, -1.0);
    co_await world.reduce_scatter(t, coll::of(big.data(), 10),
                                  coll::of(piece.data(), 10),
                                  coll::RedOp::sum);
    for (double v : piece) EXPECT_DOUBLE_EQ(v, 15.0);  // sum of ranks 0..5
  });
}

}  // namespace
}  // namespace srm
