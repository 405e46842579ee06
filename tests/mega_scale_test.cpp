// Mega-scale ceilings.
//
// Real plane at 256 nodes x 16 tasks (4096 ranks), both backends: small
// collectives read the backend's shared trees, so once a warm-up barrier
// has built the per-node state they add little memory, and the whole
// sequence builds a handful of trees rather than one per rank per call.
//
// Symbolic plane at 4096 nodes x 64 tasks (262,144 ranks): bcast and
// allreduce end to end. The point of the symbolic plane is that memory
// stays O(active digests), not O(ranks x message size): a 1 MiB broadcast
// to 256K ranks would need 256 GiB of real payload buffers; here the whole
// process must stay under 2 GiB peak RSS.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
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

constexpr int kNodes = 4096;
constexpr int kPpn = 64;
constexpr std::size_t kMsgBytes = 1u << 20;  // 1 MiB bcast payload
// 64 KiB allreduce block. Every rank pays a symbolic fill of kRedElems
// element hashes, so this bounds the test's CPU time (256K ranks x 8K
// elements ~ 2e9 hashes), while staying far beyond the digest window.
constexpr std::size_t kRedElems = 8u * 1024;

// Peak resident set (VmHWM) in bytes, from /proc/self/status; 0 if absent.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

constexpr int kRealNodes = 256;
constexpr int kRealPpn = 16;
// Peak-RSS growth a small real-plane phase may add. ASan parks freed
// blocks in its quarantine (256 MiB by default) instead of reusing them, so
// under ASan a phase's peak also holds up to that much of what it freed:
// mini-MPI's 1-double allreduce at 4096 ranks frees ~130 MiB of message
// envelopes and event-queue buckets, and its peak grows by 190 MiB under
// ASan against 35 MiB with the quarantine off.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kRealRssGrowth = std::uint64_t{128 + 256} << 20;
#else
constexpr std::uint64_t kRealRssGrowth = std::uint64_t{128} << 20;
#endif
// Trees a backend may hold after the sequence: one per distinct
// (shape, vertex count, root) its calls walk.
constexpr std::size_t kRealMaxTrees = 4;

// Peak-RSS growth of the two phases of small_real_sequence.
struct RealGrowth {
  std::uint64_t warmup;    // warm-up barrier, over construction
  std::uint64_t sequence;  // bcast + allreduce + barrier, over the warm-up
};

// Warm-up barrier, then an 8 B bcast from a root off node 0 and off its
// node's master, a 1-double allreduce and a barrier on @p c, checking every
// output. VmHWM is process-wide, so a phase's growth is only visible when
// nothing earlier in the process peaked higher: ctest runs every test in a
// process of its own, and in a whole-binary run the mini-MPI test (the
// smaller footprint) comes first.
RealGrowth small_real_sequence(Cluster& cluster, coll::Collectives& c) {
  std::uint64_t base = peak_rss_bytes();
  EXPECT_GT(base, 0u) << "/proc/self/status not readable";
  cluster.run([&](TaskCtx& t) -> CoTask { co_await c.barrier(t); });
  std::uint64_t warm = peak_rss_bytes();

  constexpr int kRoot = 37 * kRealPpn + 5;
  constexpr std::uint64_t kWord = 0x0123456789abcdefull;
  int bad = 0;
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::uint64_t word = t.rank == kRoot ? kWord : 0;
    co_await c.bcast(t, Buf::bytes(&word, sizeof word), kRoot);
    if (word != kWord) ++bad;

    double in = t.rank + 1.0;
    double sum = 0.0;
    co_await c.allreduce(t, coll::of(&in, 1), coll::of(&sum, 1),
                         coll::RedOp::sum);
    double n = t.nranks();
    if (sum != n * (n + 1) / 2) ++bad;

    co_await c.barrier(t);
  });
  EXPECT_EQ(bad, 0) << c.label() << ": wrong bcast or allreduce outputs";
  return {warm - base, peak_rss_bytes() - warm};
}

ClusterConfig real_shape() {
  ClusterConfig c;
  c.nodes = kRealNodes;
  c.tasks_per_node = kRealPpn;
  return c;
}

TEST(MegaScale, MpiRealSmallOpsShareTrees) {
  Cluster cluster(real_shape());
  minimpi::World world(cluster, cluster.params().mpi_ibm, "ibm");
  RealGrowth g = small_real_sequence(cluster, world);
  // mini-MPI state is a Comm per rank: the warm-up barrier is itself one
  // of the small collectives under test.
  EXPECT_LT(g.warmup, kRealRssGrowth)
      << "the warm-up barrier grew peak RSS by " << (g.warmup >> 20)
      << " MiB";
  EXPECT_LT(g.sequence, kRealRssGrowth)
      << "bcast+allreduce+barrier grew peak RSS by " << (g.sequence >> 20)
      << " MiB over the warm-up";
  EXPECT_LE(world.trees().size(), kRealMaxTrees);
}

TEST(MegaScale, SrmRealSmallOpsShareTrees) {
  Cluster cluster(real_shape());
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  // The warm-up barrier builds the per-node shared buffers (~1.2 MiB per
  // node), so only the sequence after it is bounded.
  RealGrowth g = small_real_sequence(cluster, comm);
  EXPECT_LT(g.sequence, kRealRssGrowth)
      << "bcast+allreduce+barrier grew peak RSS by " << (g.sequence >> 20)
      << " MiB over the warm-up";
  EXPECT_LE(comm.trees().size(), kRealMaxTrees);
}

ClusterConfig mega_shape() {
  ClusterConfig c;
  c.nodes = kNodes;
  c.tasks_per_node = kPpn;
  return c;
}

TEST(MegaScale, SrmSymbolicBcastAndAllreduce) {
  Cluster cluster(mega_shape());
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  ASSERT_EQ(cluster.topology().nranks(), kNodes * kPpn);

  std::uint64_t live_before = Payload::live_bytes();
  std::uint64_t live_peak = 0;
  double sum_check = 0.0;

  cluster.run([&](TaskCtx& t) -> CoTask {
    // Broadcast: one digest per rank, no per-rank megabyte buffers.
    Payload msg(1, kMsgBytes);
    if (t.rank == 0) msg.fill_pattern(Dtype::kByte, 11);
    co_await comm.bcast(t, Buf::symbolic(msg, Dtype::kByte, kMsgBytes), 0);
    if (t.rank == 1) {
      Payload want(1, kMsgBytes);
      want.fill_pattern(Dtype::kByte, 11);
      if (!msg.identical_to(want)) sum_check = -1.0;
    }

    // Allreduce: every rank contributes value (rank % 7) in element 0; the
    // window is element-exact so rank 0 can verify the global sum.
    Payload in(1, kRedElems * sizeof(double));
    Payload res(1, kRedElems * sizeof(double));
    in.fill_pattern(Dtype::f64, static_cast<std::uint64_t>(t.rank % 7));
    co_await comm.allreduce(t, Buf::symbolic(in, Dtype::f64, kRedElems),
                            Buf::symbolic(res, Dtype::f64, kRedElems),
                            coll::RedOp::sum);
    if (t.rank == 0) {
      live_peak = Payload::live_bytes();
      double got = 0.0;
      std::memcpy(&got, res.block(0).win.data(), sizeof got);
      double want = 0.0;
      for (int r = 0; r < kNodes * kPpn; ++r) {
        want += static_cast<double>(coll::pattern_value(
            static_cast<std::uint64_t>(r % 7), 0, 0));
      }
      if (got != want) sum_check = got - want;
    }
  });

  EXPECT_EQ(sum_check, 0.0) << "symbolic result does not match model";

  // Digest accounting: every live payload is a handful of 72-byte blocks,
  // so even 4 payloads per rank stay far under a real-buffer footprint.
  std::uint64_t live_during = live_peak - live_before;
  EXPECT_LT(live_during, std::uint64_t{512} << 20)
      << "digest footprint grew beyond O(active buffers)";
  EXPECT_EQ(Payload::live_bytes(), live_before);

  std::uint64_t rss = peak_rss_bytes();
  ASSERT_GT(rss, 0u) << "/proc/self/status not readable";
  EXPECT_LT(rss, std::uint64_t{2} << 30)
      << "peak RSS " << (rss >> 20) << " MiB exceeds the 2 GiB ceiling";
}

TEST(MegaScale, MpiSymbolicBcastMatchesModel) {
  Cluster cluster(mega_shape());
  minimpi::World world(cluster, cluster.params().mpi_ibm, "ibm");

  bool ok = true;
  cluster.run([&](TaskCtx& t) -> CoTask {
    Payload msg(1, kMsgBytes);
    if (t.rank == 0) msg.fill_pattern(Dtype::kByte, 5);
    co_await world.bcast(t, Buf::symbolic(msg, Dtype::kByte, kMsgBytes), 0);
    if (t.rank == t.nranks() - 1) {
      Payload want(1, kMsgBytes);
      want.fill_pattern(Dtype::kByte, 5);
      ok = msg.identical_to(want);
    }
  });
  EXPECT_TRUE(ok);

  std::uint64_t rss = peak_rss_bytes();
  ASSERT_GT(rss, 0u);
  EXPECT_LT(rss, std::uint64_t{2} << 30)
      << "peak RSS " << (rss >> 20) << " MiB exceeds the 2 GiB ceiling";
}

}  // namespace
}  // namespace srm
