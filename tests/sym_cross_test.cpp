// Symbolic-vs-real cross-check: every one of the 8 collectives runs twice
// on a small cluster — once with real buffers, once with symbolic payload
// digests — through the same Collectives entry points, on both the SRM and
// mini-MPI backends. Data-movement ops must produce block-identical digests
// (full-image checksum + window); reductions must agree element-exactly on
// the sampled windows. This is what licenses trusting a mega-scale symbolic
// run: on configurations where both planes fit, they are indistinguishable.
//
// The PlaneSwitch cases check the one plane switch in coll::Collectives on
// both backends: which plane a payload-less barrier takes, and that neither
// a symbolic-only run nor an empty real call builds real-plane state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/communicator.hpp"
#include "mpi/comm.hpp"

namespace srm {
namespace {

using coll::Buf;
using coll::Dtype;
using coll::Payload;
using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

constexpr int kNodes = 2, kPpn = 3, kRanks = 6;
constexpr std::size_t kCount = 48;  // f64 elements per rank block (> window)
constexpr std::size_t kBytes = kCount * sizeof(double);
constexpr std::uint64_t kRootSeed = 7;

std::uint64_t rank_seed(int r) { return 100 + static_cast<std::uint64_t>(r); }

enum class Op {
  bcast,
  reduce,
  allreduce,
  barrier,
  scatter,
  gather,
  allgather,
  reduce_scatter
};

// One self-contained environment per run: a fresh cluster + one backend
// driven through the shared coll::Collectives interface.
struct Env {
  explicit Env(bool use_mpi) : cluster(shape()) {
    if (use_mpi) {
      mpi = std::make_unique<minimpi::World>(
          cluster, cluster.params().mpi_ibm, "ibm");
      coll = mpi.get();
    } else {
      fabric = std::make_unique<lapi::Fabric>(cluster);
      srm = std::make_unique<Communicator>(cluster, *fabric);
      coll = srm.get();
    }
  }
  static ClusterConfig shape() {
    ClusterConfig c;
    c.nodes = kNodes;
    c.tasks_per_node = kPpn;
    return c;
  }
  Cluster cluster;
  std::unique_ptr<lapi::Fabric> fabric;
  std::unique_ptr<Communicator> srm;
  std::unique_ptr<minimpi::World> mpi;
  coll::Collectives* coll = nullptr;
};

// Runs `op` on one plane and returns the per-rank result digests (layout
// depends on the op; both planes use the same layout so results compare
// block for block).
std::vector<Payload> run_plane(bool use_mpi, bool symbolic, Op op) {
  Env env(use_mpi);
  coll::Collectives& c = *env.coll;
  std::vector<Payload> out(static_cast<std::size_t>(kRanks));

  env.cluster.run([&](TaskCtx& t) -> CoTask {
    auto ur = static_cast<std::size_t>(t.rank);
    const int root = 1;
    switch (op) {
      case Op::bcast: {
        if (symbolic) {
          Payload pay(1, kBytes);
          if (t.rank == root) pay.fill_pattern(Dtype::kByte, kRootSeed);
          co_await c.bcast(t, Buf::symbolic(pay, Dtype::kByte, kBytes), root);
          out[ur] = pay;
        } else {
          std::vector<std::byte> buf(kBytes);
          if (t.rank == root) {
            coll::fill_pattern(buf.data(), Dtype::kByte, 1, kBytes, kRootSeed);
          }
          co_await c.bcast(t, Buf::bytes(buf.data(), kBytes), root);
          out[ur] = Payload::digest_of(buf.data(), Dtype::kByte, 1, kBytes);
        }
        break;
      }
      case Op::reduce: {
        if (symbolic) {
          Payload in(1, kBytes), res(1, kBytes);
          in.fill_pattern(Dtype::f64, rank_seed(t.rank));
          co_await c.reduce(t, Buf::symbolic(in, Dtype::f64, kCount),
                            Buf::symbolic(res, Dtype::f64, kCount),
                            coll::RedOp::sum, root);
          if (t.rank == root) out[ur] = res;
        } else {
          std::vector<double> in(kCount), res(kCount, 0.0);
          coll::fill_pattern(in.data(), Dtype::f64, 1, kCount,
                             rank_seed(t.rank));
          co_await c.reduce(t, coll::of(in.data(), kCount),
                            coll::of(res.data(), kCount), coll::RedOp::sum,
                            root);
          if (t.rank == root) {
            out[ur] = Payload::digest_of(res.data(), Dtype::f64, 1, kCount);
          }
        }
        break;
      }
      case Op::allreduce: {
        if (symbolic) {
          Payload in(1, kBytes), res(1, kBytes);
          in.fill_pattern(Dtype::f64, rank_seed(t.rank));
          co_await c.allreduce(t, Buf::symbolic(in, Dtype::f64, kCount),
                               Buf::symbolic(res, Dtype::f64, kCount),
                               coll::RedOp::sum);
          out[ur] = res;
        } else {
          std::vector<double> in(kCount), res(kCount, 0.0);
          coll::fill_pattern(in.data(), Dtype::f64, 1, kCount,
                             rank_seed(t.rank));
          co_await c.allreduce(t, coll::of(in.data(), kCount),
                               coll::of(res.data(), kCount),
                               coll::RedOp::sum);
          out[ur] = Payload::digest_of(res.data(), Dtype::f64, 1, kCount);
        }
        break;
      }
      case Op::barrier: {
        // Plane selection for the payload-less op comes from history: issue
        // one symbolic op first so the barrier runs symbolically.
        if (symbolic) {
          Payload pay(1, 8);
          if (t.rank == 0) pay.fill_pattern(Dtype::kByte, 1);
          co_await c.bcast(t, Buf::symbolic(pay, Dtype::kByte, 8), 0);
        }
        co_await c.barrier(t);
        break;
      }
      case Op::scatter: {
        if (symbolic) {
          Payload send(t.rank == root ? kRanks : 0, kBytes);
          if (t.rank == root) send.fill_pattern(Dtype::f64, kRootSeed);
          Payload recv(1, kBytes);
          co_await c.scatter(t, Buf::symbolic(send, Dtype::f64, kCount),
                             Buf::symbolic(recv, Dtype::f64, kCount), root);
          out[ur] = recv;
        } else {
          std::vector<double> send;
          if (t.rank == root) {
            send.resize(kCount * kRanks);
            coll::fill_pattern(send.data(), Dtype::f64, kRanks, kCount,
                               kRootSeed);
          }
          std::vector<double> recv(kCount, 0.0);
          co_await c.scatter(t, coll::of(send.data(), kCount),
                             coll::of(recv.data(), kCount), root);
          out[ur] = Payload::digest_of(recv.data(), Dtype::f64, 1, kCount);
        }
        break;
      }
      case Op::gather: {
        if (symbolic) {
          Payload send(1, kBytes);
          send.fill_pattern(Dtype::f64, kRootSeed,
                            static_cast<std::size_t>(t.rank));
          Payload recv(t.rank == root ? kRanks : 0, kBytes);
          co_await c.gather(t, Buf::symbolic(send, Dtype::f64, kCount),
                            Buf::symbolic(recv, Dtype::f64, kCount), root);
          if (t.rank == root) out[ur] = recv;
        } else {
          std::vector<double> send(kCount);
          coll::fill_pattern(send.data(), Dtype::f64, 1, kCount, kRootSeed,
                             static_cast<std::size_t>(t.rank));
          std::vector<double> recv;
          if (t.rank == root) recv.resize(kCount * kRanks);
          co_await c.gather(t, coll::of(send.data(), kCount),
                            coll::of(recv.data(), kCount), root);
          if (t.rank == root) {
            out[ur] =
                Payload::digest_of(recv.data(), Dtype::f64, kRanks, kCount);
          }
        }
        break;
      }
      case Op::allgather: {
        if (symbolic) {
          Payload send(1, kBytes);
          send.fill_pattern(Dtype::f64, kRootSeed,
                            static_cast<std::size_t>(t.rank));
          Payload recv(kRanks, kBytes);
          co_await c.allgather(t, Buf::symbolic(send, Dtype::f64, kCount),
                               Buf::symbolic(recv, Dtype::f64, kCount));
          out[ur] = recv;
        } else {
          std::vector<double> send(kCount);
          coll::fill_pattern(send.data(), Dtype::f64, 1, kCount, kRootSeed,
                             static_cast<std::size_t>(t.rank));
          std::vector<double> recv(kCount * kRanks, 0.0);
          co_await c.allgather(t, coll::of(send.data(), kCount),
                               coll::of(recv.data(), kCount));
          out[ur] =
              Payload::digest_of(recv.data(), Dtype::f64, kRanks, kCount);
        }
        break;
      }
      case Op::reduce_scatter: {
        if (symbolic) {
          Payload in(kRanks, kBytes), res(1, kBytes);
          in.fill_pattern(Dtype::f64, rank_seed(t.rank));
          co_await c.reduce_scatter(t, Buf::symbolic(in, Dtype::f64, kCount),
                                    Buf::symbolic(res, Dtype::f64, kCount),
                                    coll::RedOp::sum);
          out[ur] = res;
        } else {
          std::vector<double> in(kCount * kRanks), res(kCount, 0.0);
          coll::fill_pattern(in.data(), Dtype::f64, kRanks, kCount,
                             rank_seed(t.rank));
          co_await c.reduce_scatter(t, coll::of(in.data(), kCount),
                                    coll::of(res.data(), kCount),
                                    coll::RedOp::sum);
          out[ur] = Payload::digest_of(res.data(), Dtype::f64, 1, kCount);
        }
        break;
      }
    }
  });
  return out;
}

bool is_reduction(Op op) {
  return op == Op::reduce || op == Op::allreduce || op == Op::reduce_scatter;
}

class SymCross : public ::testing::TestWithParam<std::tuple<bool, Op>> {};

TEST_P(SymCross, PlanesAgreeBlockForBlock) {
  auto [use_mpi, op] = GetParam();
  std::vector<Payload> real = run_plane(use_mpi, /*symbolic=*/false, op);
  std::vector<Payload> sym = run_plane(use_mpi, /*symbolic=*/true, op);
  ASSERT_EQ(real.size(), sym.size());
  for (std::size_t r = 0; r < real.size(); ++r) {
    ASSERT_EQ(real[r].nblocks(), sym[r].nblocks()) << "rank " << r;
    if (real[r].nblocks() == 0) continue;  // rank not significant for op
    if (is_reduction(op)) {
      // Reductions: windows are element-exact; full-image checksums are a
      // commutative mix on the symbolic side, so only windows compare.
      EXPECT_TRUE(sym[r].windows_equal(real[r], Dtype::f64)) << "rank " << r;
    } else {
      // Movement ops: the full digest (checksum + window) must be identical.
      EXPECT_TRUE(sym[r].identical_to(real[r])) << "rank " << r;
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<std::tuple<bool, Op>>& info) {
  static const char* names[] = {"bcast",     "reduce",    "allreduce",
                                "barrier",   "scatter",   "gather",
                                "allgather", "reduce_scatter"};
  return std::string(std::get<0>(info.param) ? "mpi_" : "srm_") +
         names[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, SymCross,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Op::bcast, Op::reduce, Op::allreduce,
                                         Op::barrier, Op::scatter, Op::gather,
                                         Op::allgather, Op::reduce_scatter)),
    param_name);

// Larger blocks spanning several transport chunks must still agree — the
// digest rides only the last chunk of each hop.
TEST(SymCrossChunked, BcastAcrossChunkBoundaries) {
  for (bool use_mpi : {false, true}) {
    const std::size_t bytes = 200 * 1024 + 13;  // > 3 x 64 KiB chunks
    auto digest = [&](bool symbolic) {
      Env env(use_mpi);
      std::vector<Payload> got(kRanks);
      env.cluster.run([&](TaskCtx& t) -> CoTask {
        auto ur = static_cast<std::size_t>(t.rank);
        if (symbolic) {
          Payload pay(1, bytes);
          if (t.rank == 0) pay.fill_pattern(Dtype::kByte, 3);
          co_await env.coll->bcast(t, Buf::symbolic(pay, Dtype::kByte, bytes),
                                   0);
          got[ur] = pay;
        } else {
          std::vector<std::byte> buf(bytes);
          if (t.rank == 0) {
            coll::fill_pattern(buf.data(), Dtype::kByte, 1, bytes, 3);
          }
          co_await env.coll->bcast(t, Buf::bytes(buf.data(), bytes), 0);
          got[ur] = Payload::digest_of(buf.data(), Dtype::kByte, 1, bytes);
        }
      });
      return got;
    };
    auto real = digest(false), sym = digest(true);
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_TRUE(sym[static_cast<std::size_t>(r)].identical_to(
          real[static_cast<std::size_t>(r)]))
          << (use_mpi ? "mpi" : "srm") << " rank " << r;
    }
  }
}

// What the real plane leaves behind in an Env: SRM's per-node shared state,
// materialized mini-MPI Comms (their send counters register at
// construction), and LAPI or mini-MPI message traffic.
struct RealFootprint {
  bool srm_state = false;
  bool mpi_comms = false;
  std::uint64_t messages = 0;
};

RealFootprint footprint(Env& env) {
  RealFootprint f;
  for (int n = 0; n < kNodes; ++n) {
    f.srm_state = f.srm_state || env.cluster.node(n).seg.contains("srm/srm0");
  }
  for (const std::string& name : env.cluster.obs().names()) {
    bool mpi = name.rfind("mpi.send.", 0) == 0;
    f.mpi_comms = f.mpi_comms || mpi;
    if (mpi || name.rfind("lapi.", 0) == 0) {
      f.messages += env.cluster.obs().count(name);
    }
  }
  return f;
}

// Collective bcast of one 8-byte block from rank 0 on either plane.
CoTask bcast8(coll::Collectives& c, TaskCtx& t, bool symbolic) {
  if (symbolic) {
    Payload pay(1, 8);
    if (t.rank == 0) pay.fill_pattern(Dtype::kByte, 1);
    co_await c.bcast(t, Buf::symbolic(pay, Dtype::kByte, 8), 0);
  } else {
    std::vector<std::byte> buf(8);
    co_await c.bcast(t, Buf::bytes(buf.data(), 8), 0);
  }
}

class PlaneSwitch : public ::testing::TestWithParam<bool> {};

TEST_P(PlaneSwitch, SymbolicOnlyRunKeepsBarrierSymbolic) {
  Env env(GetParam());
  env.cluster.run([&](TaskCtx& t) -> CoTask {
    co_await bcast8(*env.coll, t, /*symbolic=*/true);
    co_await env.coll->barrier(t);
    co_await env.coll->barrier(t);
  });
  RealFootprint f = footprint(env);
  EXPECT_FALSE(f.srm_state);
  EXPECT_FALSE(f.mpi_comms);
  EXPECT_EQ(f.messages, 0u);
}

TEST_P(PlaneSwitch, RealOpMakesLaterBarriersReal) {
  Env env(GetParam());
  env.cluster.run([&](TaskCtx& t) -> CoTask {
    co_await bcast8(*env.coll, t, /*symbolic=*/false);
    co_await bcast8(*env.coll, t, /*symbolic=*/true);
  });
  std::uint64_t before = footprint(env).messages;
  EXPECT_GT(before, 0u);
  env.cluster.run(
      [&](TaskCtx& t) -> CoTask { co_await env.coll->barrier(t); });
  EXPECT_GT(footprint(env).messages, before)
      << "the barrier after a real op must run the real protocol";
}

TEST_P(PlaneSwitch, ZeroCountRealCallMaterializesNothing) {
  Env env(GetParam());
  env.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> none;
    co_await env.coll->bcast(t, Buf::bytes(none.data(), 0), 0);
    co_await env.coll->allreduce(t, coll::of(none.data(), 0),
                                 coll::of(none.data(), 0), coll::RedOp::sum);
    co_await env.coll->allgather(t, coll::of(none.data(), 0),
                                 coll::of(none.data(), 0));
    co_await env.coll->reduce_scatter(t, coll::of(none.data(), 0),
                                      coll::of(none.data(), 0),
                                      coll::RedOp::sum);
  });
  RealFootprint f = footprint(env);
  EXPECT_FALSE(f.srm_state);
  EXPECT_FALSE(f.mpi_comms);
  EXPECT_EQ(f.messages, 0u);
  EXPECT_EQ(env.cluster.engine().now(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PlaneSwitch, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "mpi" : "srm");
    });

}  // namespace
}  // namespace srm
