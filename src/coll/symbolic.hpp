// sym::Transport: the shared symbolic transport runner.
//
// When a collective is called with symbolic Bufs, no rank allocates message
// storage: data is a coll::Payload digest (per-block checksum + sampled real
// window) and *timing* is produced by replaying the protocol's cost skeleton
// against the same machine models the real plane uses — chunked
// MemorySystem copy/combine charges inside each node, per-message sender
// overhead plus Network::inject (LogGP + NIC serialization) between nodes,
// over the internode tree the caller's Decision names. Digests ride the
// last chunk of each hop, so a correct run produces exactly the block
// placement and (for movement ops) checksums a real-copy run would.
//
// It has a single caller: the plane switch in coll::Collectives (iface.cpp),
// which owns one Transport per backend instance, built with that backend's
// cost Profile (SRM: its config's network chunk and LAPI-ish per-message
// overhead; mini-MPI: its per-call software overheads), and passes the
// Decision the backend's decide() returns (the default binomial one for
// mini-MPI), and its TreeMemo. Per-node coordination state is allocated
// lazily per (node, op) and freed when the op's last local participant
// finishes — memory stays O(nodes + active blocks) however large the
// modeled message is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "coll/buf.hpp"
#include "coll/decision.hpp"
#include "coll/ops.hpp"
#include "coll/payload.hpp"
#include "coll/tree.hpp"
#include "machine/cluster.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace srm::coll::sym {

/// The per-backend cost skeleton knobs.
struct Profile {
  /// Sender-side CPU overhead per network message (o).
  sim::Duration msg_overhead = sim::us(2);
  /// Pipeline granularity: chunk size for both network messages and
  /// intra-node staging copies.
  std::size_t chunk = 64 * 1024;
};

class Transport {
 public:
  /// @p trees: the owning backend's tree memo (outlives the Transport).
  Transport(machine::Cluster& cluster, Profile p, TreeMemo& trees);
  ~Transport();  // out of line: NodeSt is incomplete here
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // All 8 ops over symbolic Bufs. The caller (coll::Collectives) has
  // already validated the descriptors at the API boundary. Every op whose skeleton
  // walks a tree over nodes takes the backend's coll::Decision, so the
  // symbolic plane replays the algorithm and internode tree the real plane
  // would pick; the default Decision is the binomial reduce+bcast family.
  // scatter/gather move blocks root-to-node directly and take none.
  sim::CoTask bcast(machine::TaskCtx& t, Buf buf, int root, Decision dec = {});
  sim::CoTask reduce(machine::TaskCtx& t, Buf send, Buf recv, RedOp op,
                     int root, Decision dec = {});
  sim::CoTask allreduce(machine::TaskCtx& t, Buf send, Buf recv, RedOp op,
                        Decision dec = {});
  sim::CoTask barrier(machine::TaskCtx& t, Decision dec = {});
  sim::CoTask scatter(machine::TaskCtx& t, Buf send, Buf recv, int root);
  sim::CoTask gather(machine::TaskCtx& t, Buf send, Buf recv, int root);
  sim::CoTask allgather(machine::TaskCtx& t, Buf send, Buf recv,
                        Decision dec = {});
  sim::CoTask reduce_scatter(machine::TaskCtx& t, Buf send, Buf recv,
                             RedOp op, Decision dec = {});

 private:
  // Per-(node, op) coordination cell: created lazily by whoever touches it
  // first (a local participant or a remote delivery), destroyed by the last
  // local participant to finish.
  struct NodeOp;
  struct NodeSt;

  NodeOp& op_state(int node, std::uint64_t seq);
  void finish(int node, std::uint64_t seq, int nlocal);
  std::uint64_t next_seq(machine::TaskCtx& t);

  // Core phase runners, generalized over nb = blocks each rank handles
  // (1 for the plain ops; nranks for allgather's distribution phase and
  // reduce_scatter's reduction phase). `src`/`out` are significant at the
  // root rank only; every rank writes its own user payload.
  sim::CoTask bcast_run(machine::TaskCtx& t, std::uint64_t seq, int root,
                        std::size_t nb, std::size_t bb, const Payload* src,
                        std::size_t s0, Payload* dst, std::size_t d0,
                        TreeKind tk);
  sim::CoTask reduce_run(machine::TaskCtx& t, std::uint64_t seq, int root,
                         std::size_t nb, std::size_t bb, Dtype d, RedOp op,
                         const Payload& send, std::size_t s0, Payload* out,
                         std::size_t o0, TreeKind tk);
  // Zoo cost runners: the ring / recursive-halving allreduce and the
  // scatter+allgather bcast replayed at block granularity over the leaders.
  sim::CoTask ring_allreduce_run(machine::TaskCtx& t, std::uint64_t seq,
                                 std::size_t bb, Dtype d, RedOp op,
                                 const Payload& send, std::size_t s0,
                                 Payload* dst, std::size_t d0);
  sim::CoTask rhalving_allreduce_run(machine::TaskCtx& t, std::uint64_t seq,
                                     std::size_t bb, Dtype d, RedOp op,
                                     const Payload& send, std::size_t s0,
                                     Payload* dst, std::size_t d0);
  sim::CoTask sa_bcast_run(machine::TaskCtx& t, std::uint64_t seq, int root,
                           std::size_t bb, const Payload* src, std::size_t s0,
                           Payload* dst, std::size_t d0);
  sim::CoTask scatter_run(machine::TaskCtx& t, std::uint64_t seq, int root,
                          std::size_t bb, const Payload* src, std::size_t s0,
                          Payload* recv, std::size_t r0);
  sim::CoTask gather_run(machine::TaskCtx& t, std::uint64_t seq, int root,
                         std::size_t bb, const Payload& send, std::size_t s0,
                         Payload* out, std::size_t o0);
  sim::CoTask barrier_run(machine::TaskCtx& t, std::uint64_t seq,
                          TreeKind tk);

  machine::Cluster* cluster_;
  Profile p_;
  TreeMemo* trees_;
  std::vector<std::uint64_t> seq_;              // per-rank op sequence
  std::vector<std::unique_ptr<NodeSt>> nodes_;  // lazily created
};

}  // namespace srm::coll::sym
