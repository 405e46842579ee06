// Mini-MPI baseline collectives: data correctness vs. a sequential
// reference, parameterized across topology shapes, sizes, roots, ops.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "util/format.hpp"

namespace srm::minimpi {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::MachineParams;
using machine::TaskCtx;
using sim::CoTask;

struct Fixture {
  Fixture(int nodes, int per_node)
      : cluster(make_cfg(nodes, per_node)),
        world(cluster, cluster.params().mpi_ibm, "ibm") {}
  static ClusterConfig make_cfg(int nodes, int per_node) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.tasks_per_node = per_node;
    return cfg;
  }
  Cluster cluster;
  World world;
};

// rank r contributes value r+1 at index i scaled by (i+1).
double contribution(int rank, std::size_t i) {
  return (rank + 1.0) * static_cast<double>(i + 1);
}

class MpiCollShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // nodes, ppn

TEST_P(MpiCollShapes, BcastDeliversRootData) {
  auto [nodes, ppn] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n > 3 ? 3 : 0;
  std::size_t count = 300;
  std::vector<std::vector<double>> bufs(static_cast<std::size_t>(n),
                                        std::vector<double>(count, -1.0));
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto& buf = bufs[static_cast<std::size_t>(t.rank)];
    if (t.rank == root) {
      for (std::size_t i = 0; i < count; ++i) buf[i] = contribution(root, i);
    }
    co_await f.world.comm(t.rank).bcast(buf.data(), count * sizeof(double),
                                        root);
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)][i], contribution(root, i))
          << "rank " << r << " index " << i;
    }
  }
}

TEST_P(MpiCollShapes, ReduceSumsAtRoot) {
  auto [nodes, ppn] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n - 1;
  std::size_t count = 128;
  std::vector<double> result(count, 0.0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = contribution(t.rank, i);
    co_await f.world.comm(t.rank).reduce(mine.data(), result.data(), count,
                                         coll::Dtype::f64, coll::RedOp::sum,
                                         root);
  });
  double rank_sum = n * (n + 1) / 2.0;
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_DOUBLE_EQ(result[i], rank_sum * static_cast<double>(i + 1));
  }
}

TEST_P(MpiCollShapes, AllreduceEveryoneGetsSum) {
  auto [nodes, ppn] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  std::size_t count = 64;
  std::vector<std::vector<double>> results(
      static_cast<std::size_t>(n), std::vector<double>(count, -7.0));
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = contribution(t.rank, i);
    co_await f.world.comm(t.rank).allreduce(
        mine.data(), results[static_cast<std::size_t>(t.rank)].data(), count,
        coll::Dtype::f64, coll::RedOp::sum);
  });
  double rank_sum = n * (n + 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(results[static_cast<std::size_t>(r)][i],
                       rank_sum * static_cast<double>(i + 1));
    }
  }
}

TEST_P(MpiCollShapes, BarrierHoldsEveryoneForTheLast) {
  auto [nodes, ppn] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int straggler = n - 1;
  sim::Duration late = sim::ms(3);
  std::vector<sim::Time> released(static_cast<std::size_t>(n), 0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.rank == straggler) co_await t.delay(late);
    co_await f.world.comm(t.rank).barrier();
    released[static_cast<std::size_t>(t.rank)] = t.eng->now();
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_GE(released[static_cast<std::size_t>(r)], late)
        << "rank " << r << " escaped the barrier early";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpiCollShapes,
    ::testing::Values(std::tuple{1, 2}, std::tuple{1, 16}, std::tuple{2, 1},
                      std::tuple{2, 8}, std::tuple{4, 4}, std::tuple{3, 5},
                      std::tuple{4, 16}, std::tuple{5, 3}),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)));
    });

TEST(MpiColl, LargeMessageBcastCorrect) {
  Fixture f(4, 4);
  std::size_t bytes = 2u << 20;  // rendezvous + chunked shm territory
  std::vector<std::vector<char>> bufs(16, std::vector<char>(bytes, 0));
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto& buf = bufs[static_cast<std::size_t>(t.rank)];
    if (t.rank == 0) {
      for (std::size_t i = 0; i < bytes; ++i) {
        buf[i] = static_cast<char>(i % 249);
      }
    }
    co_await f.world.comm(t.rank).bcast(buf.data(), bytes, 0);
  });
  for (int r = 1; r < 16; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)], bufs[0]) << "rank " << r;
  }
}

TEST(MpiColl, ReduceMinMaxIntTypes) {
  Fixture f(2, 4);
  std::vector<std::int32_t> mn(4, 0), mx(4, 0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<std::int32_t> mine = {t.rank, -t.rank, t.rank * 10, 5};
    auto& c = f.world.comm(t.rank);
    co_await c.reduce(mine.data(), mn.data(), 4, coll::Dtype::i32,
                      coll::RedOp::min, 0);
    co_await c.reduce(mine.data(), mx.data(), 4, coll::Dtype::i32,
                      coll::RedOp::max, 0);
  });
  EXPECT_EQ(mn, (std::vector<std::int32_t>{0, -7, 0, 5}));
  EXPECT_EQ(mx, (std::vector<std::int32_t>{7, 0, 70, 5}));
}

TEST(MpiColl, ConsecutiveCollectivesDoNotInterfere) {
  Fixture f(2, 4);
  std::vector<double> out(8, 0.0);
  std::vector<double> last(1, 0.0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto& c = f.world.comm(t.rank);
    for (int round = 0; round < 5; ++round) {
      double mine = t.rank + round * 100.0;
      double sum = 0.0;
      co_await c.allreduce(&mine, &sum, 1, coll::Dtype::f64, coll::RedOp::sum);
      if (t.rank == 0) last[0] = sum;
    }
    co_await c.barrier();
  });
  // Round 4: sum over ranks of (rank + 400) = 28 + 8*400.
  EXPECT_DOUBLE_EQ(last[0], 28.0 + 8 * 400.0);
}

}  // namespace
}  // namespace srm::minimpi
