// SRM collectives: data correctness vs. a sequential reference across
// topology shapes, message sizes (spanning every protocol switch point),
// roots, operators, datatypes, and back-to-back operation sequences.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/communicator.hpp"
#include "util/format.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

struct Fixture {
  Fixture(int nodes, int per_node, SrmConfig cfg = {})
      : cluster(make_cfg(nodes, per_node)),
        fabric(cluster),
        comm(cluster, fabric, cfg) {}
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

double contribution(int rank, std::size_t i) {
  return (rank % 17 + 1.0) * static_cast<double>(i % 29 + 1);
}

// ---------------------------------------------------------------------------
// Broadcast: sweep sizes across the protocol switch points.
// ---------------------------------------------------------------------------

class SrmBcastSize
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(SrmBcastSize, DeliversRootBytes) {
  auto [nodes, ppn, bytes] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n > 5 ? 5 : 0;
  std::vector<std::vector<char>> bufs(static_cast<std::size_t>(n),
                                      std::vector<char>(bytes, 0));
  f.cluster.run([&, bytes = bytes, root](TaskCtx& t) -> CoTask {
    auto& buf = bufs[static_cast<std::size_t>(t.rank)];
    if (t.rank == root) {
      for (std::size_t i = 0; i < bytes; ++i) {
        buf[i] = static_cast<char>((i * 131 + 17) % 251);
      }
    }
    co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)], bufs[static_cast<std::size_t>(root)])
        << "rank " << r << " bytes " << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SrmBcastSize,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4, 16),
                       // 8B; pipeline band edges 8K/32K (+/-1); the 64KB
                       // protocol switch (+/-1); deep large-protocol sizes.
                       ::testing::Values(std::size_t{8}, std::size_t{8192},
                                         std::size_t{8193},
                                         std::size_t{20000},
                                         std::size_t{32768},
                                         std::size_t{65536},
                                         std::size_t{65537},
                                         std::size_t{1 << 20})),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)), "_b",
                       std::to_string(std::get<2>(info.param)));
    });

TEST(SrmBcast, EveryRootOnAsymmetricCluster) {
  // Root on master / non-master / every node, incl. the 15-per-node shape.
  Fixture f(3, 5);
  std::size_t bytes = 3000;
  for (int root : {0, 1, 4, 5, 9, 14}) {
    std::vector<std::vector<char>> bufs(15, std::vector<char>(bytes, 0));
    f.cluster.run([&, root](TaskCtx& t) -> CoTask {
      auto& buf = bufs[static_cast<std::size_t>(t.rank)];
      if (t.rank == root) {
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<char>((i + static_cast<std::size_t>(root)) % 127);
        }
      }
      co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
    });
    for (int r = 0; r < 15; ++r) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
                bufs[static_cast<std::size_t>(root)])
          << "root " << root << " rank " << r;
    }
  }
}

TEST(SrmBcast, BackToBackAlternatingRootsAndSizes) {
  // Exercises A/B buffer alternation and credit recycling across ops with
  // changing trees.
  Fixture f(4, 4);
  std::vector<std::size_t> sizes = {64, 4096, 12000, 70000, 64, 100000, 8};
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      int root = static_cast<int>((k * 5) % 16);
      std::vector<char> buf(sizes[k], 0);
      if (t.rank == root) {
        for (std::size_t i = 0; i < sizes[k]; ++i) {
          buf[i] = static_cast<char>((i + k) % 101);
        }
      }
      co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), sizes[k]), root);
      for (std::size_t i = 0; i < sizes[k]; ++i) {
        EXPECT_EQ(buf[i], static_cast<char>((i + k) % 101))
            << "op " << k << " rank " << t.rank << " byte " << i;
      }
    }
  });
}

TEST(SrmBcast, ZeroBytesIsNoOp) {
  Fixture f(2, 2);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    co_await f.comm.bcast(t, coll::Buf::bytes(static_cast<void*>(nullptr), 0),
                          0);
  });
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

class SrmReduceSize
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(SrmReduceSize, SumsDoublesAtRoot) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n - 1;
  std::vector<double> result(count, -1.0);
  f.cluster.run([&, count = count, root](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = contribution(t.rank, i);
    co_await f.comm.reduce(t, coll::of(mine.data(), count),
                           coll::of(result.data(), count), coll::RedOp::sum,
                           root);
  });
  for (std::size_t i = 0; i < count; ++i) {
    double expect = 0.0;
    for (int r = 0; r < n; ++r) expect += contribution(r, i);
    ASSERT_DOUBLE_EQ(result[i], expect) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SrmReduceSize,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4, 16),
                       // 1 element, one chunk, chunk boundary (2048 doubles
                       // at the default 16 KB chunk), multiple chunks,
                       // partial last chunk.
                       ::testing::Values(std::size_t{1}, std::size_t{100},
                                         std::size_t{2048},
                                         std::size_t{2049},
                                         std::size_t{10000})),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)), "_c",
                       std::to_string(std::get<2>(info.param)));
    });

TEST(SrmReduce, AllOpsAllDtypes) {
  Fixture f(2, 4);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    {
      std::vector<std::int32_t> mine = {t.rank, -t.rank, 100 - t.rank};
      std::vector<std::int32_t> out(3, 0);
      co_await f.comm.reduce(t, coll::of(mine.data(), 3),
                             coll::of(out.data(), 3), coll::RedOp::max, 0);
      if (t.rank == 0) {
        EXPECT_EQ(out, (std::vector<std::int32_t>{7, 0, 100}));
      }
      co_await f.comm.reduce(t, coll::of(mine.data(), 3),
                             coll::of(out.data(), 3), coll::RedOp::min, 0);
      if (t.rank == 0) {
        EXPECT_EQ(out, (std::vector<std::int32_t>{0, -7, 93}));
      }
    }
    {
      std::vector<float> mine = {1.5f, 2.0f};
      std::vector<float> out(2, 0.f);
      co_await f.comm.reduce(t, coll::of(mine.data(), 2),
                             coll::of(out.data(), 2), coll::RedOp::sum, 3);
      if (t.rank == 3) {
        EXPECT_FLOAT_EQ(out[0], 12.0f);
        EXPECT_FLOAT_EQ(out[1], 16.0f);
      }
    }
    {
      std::vector<std::int64_t> mine = {2};
      std::vector<std::int64_t> out(1, 0);
      co_await f.comm.reduce(t, coll::of(mine.data(), 1),
                             coll::of(out.data(), 1), coll::RedOp::prod, 5);
      if (t.rank == 5) {
        EXPECT_EQ(out[0], 256);
      }
    }
  });
}

TEST(SrmReduce, RepeatedWithChangingRoots) {
  Fixture f(3, 3);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 6; ++round) {
      int root = (round * 4) % 9;
      std::size_t count = round % 2 == 0 ? 5000 : 17;
      std::vector<double> mine(count, t.rank + round * 0.5);
      std::vector<double> out(count, 0.0);
      co_await f.comm.reduce(t, coll::of(mine.data(), count),
                             coll::of(out.data(), count), coll::RedOp::sum,
                             root);
      if (t.rank == root) {
        double expect = 36.0 + 9 * round * 0.5;  // sum over ranks
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_DOUBLE_EQ(out[i], expect) << "round " << round;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Allreduce: both protocol branches.
// ---------------------------------------------------------------------------

class SrmAllreduceSize
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(SrmAllreduceSize, EveryoneGetsTheSum) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  std::vector<std::vector<double>> results(
      static_cast<std::size_t>(n), std::vector<double>(count, -3.0));
  f.cluster.run([&, count = count](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = contribution(t.rank, i);
    co_await f.comm.allreduce(
        t, coll::of(mine.data(), count),
        coll::of(results[static_cast<std::size_t>(t.rank)].data(), count),
        coll::RedOp::sum);
  });
  for (std::size_t i = 0; i < count; ++i) {
    double expect = 0.0;
    for (int r = 0; r < n; ++r) expect += contribution(r, i);
    for (int r = 0; r < n; ++r) {
      ASSERT_DOUBLE_EQ(results[static_cast<std::size_t>(r)][i], expect)
          << "rank " << r << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SrmAllreduceSize,
    ::testing::Combine(
        // Includes non-power-of-two node counts (fold path) and 16-way SMP.
        ::testing::Values(1, 2, 3, 4, 5),
        ::testing::Values(1, 3, 16),
        // RD path (<= 2048 doubles = 16 KB) and pipelined path beyond.
        ::testing::Values(std::size_t{1}, std::size_t{512},
                          std::size_t{2048}, std::size_t{2049},
                          std::size_t{40000})),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)), "_c",
                       std::to_string(std::get<2>(info.param)));
    });

TEST(SrmAllreduce, BackToBackMixedProtocols) {
  Fixture f(3, 4);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 6; ++round) {
      std::size_t count = round % 2 == 0 ? 64 : 9000;  // RD then pipelined
      std::vector<double> mine(count, 1.0 + t.rank % 3);
      std::vector<double> out(count, 0.0);
      co_await f.comm.allreduce(t, coll::of(mine.data(), count),
                                coll::of(out.data(), count),
                                coll::RedOp::sum);
      double expect = 0.0;
      for (int r = 0; r < 12; ++r) expect += 1.0 + r % 3;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_DOUBLE_EQ(out[i], expect)
            << "round " << round << " rank " << t.rank;
      }
    }
  });
}

TEST(SrmAllreduce, MinOverInts) {
  Fixture f(2, 8);
  std::vector<std::int32_t> out0(4, 0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<std::int32_t> mine = {t.rank, 100 - t.rank, 7, -t.rank * 2};
    std::vector<std::int32_t> out(4, 0);
    co_await f.comm.allreduce(t, coll::of(mine.data(), 4),
                              coll::of(out.data(), 4), coll::RedOp::min);
    EXPECT_EQ(out, (std::vector<std::int32_t>{0, 85, 7, -30}));
  });
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

class SrmBarrierShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SrmBarrierShapes, NobodyEscapesEarly) {
  auto [nodes, ppn] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  for (int straggler : {0, n / 2, n - 1}) {
    sim::Duration late = sim::ms(2);
    std::vector<sim::Time> released(static_cast<std::size_t>(n), 0);
    sim::Time start = f.cluster.engine().now();
    f.cluster.run([&, straggler](TaskCtx& t) -> CoTask {
      if (t.rank == straggler) co_await t.delay(late);
      co_await f.comm.barrier(t);
      released[static_cast<std::size_t>(t.rank)] = t.eng->now();
    });
    for (int r = 0; r < n; ++r) {
      EXPECT_GE(released[static_cast<std::size_t>(r)], start + late)
          << "straggler " << straggler << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SrmBarrierShapes,
    ::testing::Values(std::tuple{1, 1}, std::tuple{1, 16}, std::tuple{2, 8},
                      std::tuple{3, 5}, std::tuple{4, 16}, std::tuple{7, 3},
                      std::tuple{16, 16}),
    [](const auto& info) {
      return util::cat("n", std::to_string(std::get<0>(info.param)), "x",
                       std::to_string(std::get<1>(info.param)));
    });

TEST(SrmBarrier, ManyConsecutiveBarriers) {
  Fixture f(3, 4);
  std::vector<int> counts(12, 0);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int i = 0; i < 20; ++i) {
      co_await f.comm.barrier(t);
      counts[static_cast<std::size_t>(t.rank)]++;
    }
  });
  for (int c : counts) EXPECT_EQ(c, 20);
}

// ---------------------------------------------------------------------------
// Cross-cutting behaviours
// ---------------------------------------------------------------------------

TEST(SrmMixed, InterleavedOperationSequence) {
  // A realistic phase mix: bcast -> allreduce -> barrier -> reduce, twice.
  Fixture f(4, 4);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int it = 0; it < 2; ++it) {
      std::vector<double> v(1000, 0.0);
      if (t.rank == 2) {
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) + it;
      }
      co_await f.comm.bcast(t, coll::of(v.data(), v.size()), 2);
      EXPECT_DOUBLE_EQ(v[999], 999.0 + it);

      std::vector<double> sum(1000, 0.0);
      co_await f.comm.allreduce(t, coll::of(v.data(), 1000),
                                coll::of(sum.data(), 1000), coll::RedOp::sum);
      EXPECT_DOUBLE_EQ(sum[10], 16 * (10.0 + it));

      co_await f.comm.barrier(t);

      std::vector<double> mx(1000, 0.0);
      co_await f.comm.reduce(t, coll::of(sum.data(), 1000),
                             coll::of(mx.data(), 1000), coll::RedOp::max, 0);
      if (t.rank == 0) {
        EXPECT_DOUBLE_EQ(mx[10], 16 * (10.0 + it));
      }
    }
  });
}

TEST(SrmMixed, TwoCommunicatorsCoexist) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator a(cluster, fabric, {}, "commA");
  Communicator b(cluster, fabric, {}, "commB");
  cluster.run([&](TaskCtx& t) -> CoTask {
    double va = t.rank, vb = 10.0 * t.rank, sa = 0, sb = 0;
    co_await a.allreduce(t, coll::of(&va, 1), coll::of(&sa, 1),
                         coll::RedOp::sum);
    co_await b.allreduce(t, coll::of(&vb, 1), coll::of(&sb, 1),
                         coll::RedOp::sum);
    EXPECT_DOUBLE_EQ(sa, 28.0);
    EXPECT_DOUBLE_EQ(sb, 280.0);
  });
}

TEST(SrmMixed, MastersOnlyTouchTheNetwork) {
  // The paper's design invariant (§2.3): only one task per node talks to
  // the network. With the root on a master, message count per bcast equals
  // the internode tree's edges (plus credit signals) — in particular, the
  // 15 non-master tasks of each node add zero messages.
  ClusterConfig cc;
  cc.nodes = 4;
  cc.tasks_per_node = 16;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  std::uint64_t before = cluster.network().messages();
  std::vector<char> buf(1024);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<char> mine(1024, static_cast<char>(t.rank));
    co_await comm.bcast(t, coll::Buf::bytes(mine.data(), 1024), 0);
  });
  std::uint64_t used = cluster.network().messages() - before;
  // 3 data puts + 3 credit signals.
  EXPECT_EQ(used, 6u);
}

TEST(SrmMixed, SmallOpsAvoidInterrupts) {
  // §2.3: interrupts are disabled during small-message collectives; the
  // masters block in Waitcntr, so data deliveries take the polling path.
  // Only the stray post-completion credit signals may interrupt; with
  // management off, every delivery to a busy master interrupts.
  auto run = [](bool manage) {
    ClusterConfig cc;
    cc.nodes = 4;
    cc.tasks_per_node = 4;
    Cluster cluster(cc);
    lapi::Fabric fabric(cluster);
    SrmConfig cfg;
    cfg.manage_interrupts = manage;
    Communicator comm(cluster, fabric, cfg);
    cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<char> buf(512, static_cast<char>(1));
      for (int i = 0; i < 8; ++i) {
        co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
        co_await t.delay(sim::us(200));  // SMP-style busy phase between ops
      }
    });
    std::uint64_t total = 0;
    for (int r = 0; r < 16; ++r) total += fabric.ep(r).interrupts_taken();
    return total;
  };
  std::uint64_t managed = run(true);
  std::uint64_t unmanaged = run(false);
  EXPECT_LT(managed, unmanaged);
  // Data puts never interrupt when managed: at most one flush per op from a
  // straggling credit signal per node.
  EXPECT_LE(managed, 8u * 3u);
}

TEST(SrmMixed, SingleTaskClusterDegenerates) {
  Fixture f(1, 1);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    double v = 42.0, s = 0.0;
    co_await f.comm.bcast(t, coll::of(&v, 1), 0);
    co_await f.comm.allreduce(t, coll::of(&v, 1), coll::of(&s, 1),
                              coll::RedOp::sum);
    co_await f.comm.barrier(t);
    EXPECT_DOUBLE_EQ(s, 42.0);
  });
}

TEST(SrmMixed, DeterministicTimings) {
  auto run_once = [] {
    Fixture f(4, 8);
    f.cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<double> v(5000, t.rank * 1.0), s(5000, 0.0);
      co_await f.comm.allreduce(t, coll::of(v.data(), 5000),
                                coll::of(s.data(), 5000), coll::RedOp::sum);
      co_await f.comm.barrier(t);
    });
    return std::pair{f.cluster.engine().now(),
                     f.cluster.engine().events_processed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Link state: built on use.
// ---------------------------------------------------------------------------

TEST(SrmLinks, LandingPairsOnlyOnTreeEdges) {
  // A node allocates a family's landing pair for a peer only when that
  // family first lands data on the link: a root-0 staged bcast and a root-0
  // reduce on 16 nodes create one pair per edge of their inter-node trees
  // (15 of the 256 (node, peer) pairs each), and a decision table with no
  // zoo rows never creates a zoo landing pair.
  constexpr int kNodes = 16;
  constexpr int kPerNode = 4;
  constexpr std::size_t kCount = 8;  // 64 B: staged bcast, one reduce chunk
  Fixture f(kNodes, kPerNode);
  ASSERT_EQ(f.comm.decide(coll::CollKind::bcast, kCount * 8).algo,
            coll::Algo::staged);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> buf(kCount, t.rank == 0 ? 1.0 : 0.0);
    std::vector<double> out(kCount, 0.0);
    co_await f.comm.bcast(t, coll::of(buf.data(), kCount), 0);
    co_await f.comm.reduce(t, coll::of(buf.data(), kCount),
                           coll::of(out.data(), kCount), coll::RedOp::sum, 0);
  });
  // Per-node shared state without any landing pair, for the counts below.
  Fixture bare(kNodes, kPerNode);
  bare.cluster.run(
      [&](TaskCtx& t) -> CoTask { co_await bare.comm.barrier(t); });

  auto parents = [&](coll::CollKind op) {
    return f.comm.trees().embed(0, f.comm.decide(op, kCount * 8).internode)
        .internode.parent;
  };
  const std::vector<int> bc_parent = parents(coll::CollKind::bcast);
  const std::vector<int> red_parent = parents(coll::CollKind::reduce);
  int bc_edges = 0;
  int red_edges = 0;
  for (int n = 0; n < kNodes; ++n) {
    const shm::Segment& seg = f.cluster.node(n).seg;
    std::size_t pairs = 0;
    for (int p = 0; p < kNodes; ++p) {
      auto has = [&](const char* what, int peer) {
        return seg.contains(util::cat("srm/srm0/", what, std::to_string(peer),
                                      "_0"));
      };
      // bc_land<p>: data from parent p; red_land<c>: data from child c.
      bool bc = has("bc_land", p);
      bool red = has("red_land", p);
      EXPECT_EQ(bc, bc_parent[static_cast<std::size_t>(n)] == p)
          << "bc_land" << p << " on node " << n;
      EXPECT_EQ(red, red_parent[static_cast<std::size_t>(p)] == n)
          << "red_land" << p << " on node " << n;
      EXPECT_FALSE(has("zoo_land", p)) << "zoo_land" << p << " on node " << n;
      bc_edges += bc ? 1 : 0;
      red_edges += red ? 1 : 0;
      pairs += (bc ? 1 : 0) + (red ? 1 : 0);
    }
    EXPECT_EQ(seg.buffer_count(),
              bare.cluster.node(n).seg.buffer_count() + 2 * pairs)
        << "node " << n;
  }
  EXPECT_EQ(bc_edges, kNodes - 1);
  EXPECT_EQ(red_edges, kNodes - 1);
}

}  // namespace
}  // namespace srm
