// srm::Communicator — the paper's contribution: collective operations built
// directly on shared memory (intra-node) and one-sided RMA (inter-node).
//
// Public operations (all blocking, MPI-style semantics):
//   bcast, reduce, allreduce, barrier — plus the extended set below. The
//   whole set is exposed through the shared coll::Collectives interface, so
//   benches and examples use a Communicator and a mini-MPI World
//   interchangeably.
//
// Plane switch: coll::Collectives validates every call, runs symbolic and
// empty ones itself (the shared symbolic cost skeleton, coll/symbolic.hpp,
// with this communicator's cost profile — the config's network chunk and
// the LAPI-ish per-message overhead — and decide()'s row), and composes
// allgather/reduce_scatter from the hooks. The six v_* hooks here are the
// real protocols: they see only real, non-empty descriptors.
//
// The first *real* operation allocates, per SMP node, the shared structures
// of §2.2/§2.4:
//  * the two broadcast buffers A/B with per-process READY flags (Fig. 3);
//  * per-process reduce chunk slots with published/consumed counters (the
//    pipelined form of Fig. 2);
//  * per-process barrier flags (one cache line each);
//  * and, for the node leader, the LAPI-side structures that do not depend
//    on a peer: the reduce credit and output slots, recursive-doubling
//    exchange slots, and barrier round counters.
// Per-peer state — landing zones, data-arrival counters, free-buffer
// credits, address cells — lives in one Link record per (node, peer) pair,
// built when a protocol first touches that link (link(), landing()).
//
// Every operation reads its trees from the base's shared coll::TreeMemo and
// embeds them (Fig. 1) so at most one task per node (the "leader": the root
// on the root's node, the master elsewhere) touches the network.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/buf.hpp"
#include "coll/decision.hpp"
#include "coll/iface.hpp"
#include "coll/ops.hpp"
#include "coll/tree.hpp"
#include "core/config.hpp"
#include "lapi/lapi.hpp"
#include "machine/cluster.hpp"
#include "shm/flag.hpp"
#include "shm/mapping.hpp"
#include "sim/task.hpp"

namespace srm {

class Communicator final : public coll::Collectives {
 public:
  /// Cheap to construct at any scale: per-node shared state and per-rank
  /// bookkeeping materialize on the first *real* operation
  /// (ensure_real_state). @p name namespaces the shared segments so
  /// multiple communicators coexist.
  Communicator(machine::Cluster& cluster, lapi::Fabric& fabric,
               SrmConfig cfg = {}, std::string name = "srm0");

  std::string label() const override { return "srm"; }

  const SrmConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// The algorithm-selection table this communicator resolved at
  /// construction (explicit config table > SRM_DECISIONS env artifact >
  /// builtin profile table).
  const coll::DecisionTable& decisions() const noexcept { return table_; }

  /// Resolved decision for (@p op, @p op_bytes): the table row passed
  /// through srm::sanitize (core/config.hpp). Deterministic in
  /// operation-level arguments, so every rank takes the same branch.
  coll::Decision decide(coll::CollKind op,
                        std::size_t op_bytes) const override;

 protected:
  // ---- the real plane: the paper's protocols over raw memory ----
  //
  // Beyond the paper's four operations, scatter and gather complete the
  // common set (coll::Collectives composes allgather and reduce_scatter from
  // them) using the same two building blocks: RMA puts straight into user
  // buffers between node leaders, and shared-memory slice
  // distribution/assembly inside nodes.

  /// Broadcast @p buf from @p root into everyone's @p buf.
  sim::CoTask v_bcast(machine::TaskCtx& t, coll::Buf buf, int root) override;
  /// Reduce element-wise with @p op; the result lands in @p recv at @p root
  /// (ignored elsewhere). @p send and @p recv must not alias.
  sim::CoTask v_reduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       coll::RedOp op, int root) override;
  sim::CoTask v_allreduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                          coll::RedOp op) override;
  /// Synchronize all tasks (§2.2/§2.4 barrier).
  sim::CoTask v_barrier(machine::TaskCtx& t) override;
  /// Scatter one block per rank from @p send at @p root into everyone's
  /// @p recv. The root leader puts each node's block into that node's
  /// landing buffers; local tasks copy out their slice.
  sim::CoTask v_scatter(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                        int root) override;
  /// Gather one block per rank into @p recv at @p root (rank order). The
  /// root announces its receive buffer; node leaders assemble their node
  /// block in shared staging and put it straight into place.
  sim::CoTask v_gather(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       int root) override;

  /// Decision-table lookup for the obs span args: the sanitized algorithm
  /// name of the row the call runs (coll::Collectives::row_of: a composite
  /// names its bcast or reduce phase), with "+sc" appended when the mapped
  /// single-copy variant runs.
  std::string v_algo(const machine::TaskCtx& t,
                     const coll::CallSig& sig) const override;

 private:
  /// Build the per-node shared structures and the per-rank bookkeeping on
  /// the first real operation. Symbolic-only runs never pay this. Per-link
  /// state is not built here: link() builds it when a protocol first
  /// touches the link.
  void ensure_real_state();

  // ---- per-link network state ----
  //
  // Everything a node keeps about one peer node: the inter-node link
  // (node, peer). With arbitrary roots, consecutive operations embed
  // different trees, and two different parents' traffic must never alias
  // one buffer or counter — operations at different tree positions are not
  // mutually ordered — so network state is kept per link, not per tree
  // position. A link is built the first time a protocol touches it, and a
  // family's landing pair only when that family first lands data on it, so
  // a node holds state for the links its trees actually use: degree(node)
  // links under a fixed tree, the paper's buffer-consumption argument, plus
  // whatever links moving roots reach.

  /// An address-exchange cell: a peer puts the address of its user buffer
  /// into `addr` and bumps `arrived` (announce_addr / await_addr). `sent`
  /// is the put source on the announcing side: it stays readable until the
  /// caller's origin counter drains.
  struct AddrCell {
    AddrCell(sim::Engine& eng, std::string label)
        : arrived(eng, std::move(label)) {}
    void* addr = nullptr;
    void* sent = nullptr;
    lapi::Counter arrived;
  };

  /// Landing-pair families: the data a peer puts into this node's shared
  /// memory on a link, two slots each (landing()).
  enum Land : std::size_t { kBcLand, kRedLand, kZooLand, kLandKinds };

  struct Link {
    Link(sim::Engine& eng, const std::string& prefix, int peer, int nlocal);

    /// [family][slot]; empty until the family first lands data here.
    std::array<std::array<std::span<std::byte>, 2>, kLandKinds> land;

    // Small-protocol broadcast and scatter: per-slot arrivals from the peer
    // as our parent or root, and per-slot free credits for sending to the
    // peer as our child (start at 1: "buffer free").
    std::array<lapi::Counter, 2> bc_arrived;
    std::array<lapi::Counter, 2> bc_free;
    // Large-protocol broadcast: the child's announced user buffer, and the
    // parent's chunk arrivals (data goes straight to the user buffer).
    AddrCell bc_addr;
    lapi::Counter bc_large_arrived;
    // Reduce pipeline: the child's landing-slot arrivals. The credit for
    // sending up is per node (NodeState::red_free).
    lapi::Counter red_arrived;
    // Gather: the root's announced receive buffer (peer = the root's node),
    // and at the root the peer's chunk arrivals.
    AddrCell ga_addr;
    lapi::Counter ga_done;
    // Algorithm zoo: the peer's announced user buffer, its direct-put and
    // streamed-chunk arrivals, and the credits for streaming to it (start
    // at 2: its two landing slots).
    AddrCell zoo_addr;
    lapi::Counter zoo_got;
    lapi::Counter zoo_arr;
    lapi::Counter zoo_free;

    /// Cumulative chunks this node sent to / received from the peer, per
    /// family (landing-slot parity). Buffer-slot parity must agree between
    /// the two sides of every handshake across operations whose trees (and
    /// hence leaders) differ, so every rank of the node advances the counts
    /// identically in its own entry.
    struct Seq {
      std::uint64_t bc_sent = 0;
      std::uint64_t bc_recv = 0;
      std::uint64_t red_sent = 0;
      std::uint64_t red_recvd = 0;
      std::uint64_t zoo_sent = 0;
      std::uint64_t zoo_recvd = 0;
    };
    std::vector<Seq> seq;  // [local task]
  };

  // ---- per-node shared state (lives in the node's shm segment) ----
  struct NodeState {
    NodeState(sim::Engine& eng, const machine::MemoryParams& mp,
              const machine::Topology& topo, const SrmConfig& cfg,
              shm::Segment& seg, const std::string& prefix);

    int nlocal;
    int nnodes;

    // SMP broadcast (Fig. 3): two buffers + one READY flag per process each.
    std::array<std::span<std::byte>, 2> bc_buf;
    std::array<std::unique_ptr<shm::FlagArray>, 2> bc_ready;

    // SMP reduce pipeline: per local task, two chunk slots plus monotonic
    // publish counters. Consumption counters are per (local, slot): when the
    // node leadership changes across operations (the root moves), chunks in
    // *different* slots are consumed by *different* leaders that are not
    // mutually ordered, so only a per-slot count tells a writer that the
    // previous occupant of its slot is really gone. Staged and mapped
    // reduces share this one pair per task (a mapped leaf exports its send
    // window instead of writing a slot), so an operation in one mode can
    // wait for the previous operation's last two chunks in the other.
    std::array<std::vector<std::span<std::byte>>, 2> red_slot;  // [slot][local]
    std::unique_ptr<shm::FlagArray> red_published;
    std::array<std::unique_ptr<shm::FlagArray>, 2> red_consumed;  // [slot]

    // SMP barrier: one flag per process (own cache line), reset by master.
    std::unique_ptr<shm::FlagArray> bar_flag;

    // ---- leader-side network state ----
    //
    // Reduce pipeline: one credit counter for sending to our own parent
    // (starts at 2: the parent's two landing slots for this link); two
    // node-result slots guarded by the put origin counter.
    std::unique_ptr<lapi::Counter> red_free;
    std::array<std::span<std::byte>, 2> red_out;
    std::unique_ptr<lapi::Counter> red_out_org;

    // Allreduce recursive doubling: per round, two parity slots + arrival
    // counter; plus the non-power-of-two fold slots.
    std::vector<std::array<std::span<std::byte>, 2>> ar_buf;  // [round][parity]
    std::vector<std::unique_ptr<lapi::Counter>> ar_arrived;
    std::array<std::span<std::byte>, 2> ar_fold_in;
    std::array<std::span<std::byte>, 2> ar_fold_out;
    std::unique_ptr<lapi::Counter> ar_fold_in_arr;
    std::unique_ptr<lapi::Counter> ar_fold_out_arr;

    // Barrier: one counter per recursive-doubling round, plus fold counters.
    std::vector<std::unique_ptr<lapi::Counter>> bar_round;
    std::unique_ptr<lapi::Counter> bar_fold_in;
    std::unique_ptr<lapi::Counter> bar_fold_out;

    // Gather: two shared staging buffers for node-block assembly, with
    // per-slot monotonic filled/freed counters.
    std::array<std::span<std::byte>, 2> ga_stage;
    std::array<std::unique_ptr<shm::SharedFlag>, 2> ga_filled;
    std::array<std::unique_ptr<shm::SharedFlag>, 2> ga_freed;

    // Algorithm zoo (core/zoo.cpp): origin counter for every zoo put this
    // node's leader issues. Ops are globally serialized and each drains it
    // to zero before finishing, so leader changes across operations cannot
    // alias in-flight counts.
    std::unique_ptr<lapi::Counter> zoo_org;

    // ---- single-copy cross-mapping state (core/single_copy.cpp) ----
    //
    // One window slot per local task: the mapped protocols export user
    // buffers through it instead of staging through bc_buf, and mapped
    // reduce leaves instead of writing red_slot.
    shm::Mapping* map = nullptr;  // owned by the segment

    // The node's links, indexed by peer node; null until link() builds one.
    std::vector<std::unique_ptr<Link>> links;
  };

  // ---- per-rank protocol sequence numbers ----
  //
  // Buffer-slot parity must agree between the two sides of every handshake
  // across operations whose trees (and hence leaders) differ. Each rank
  // therefore tracks, privately and deterministically (every task sees every
  // collective with identical arguments), the cumulative chunk counts that
  // define each slot cycle; the per-link counts live in Link::seq.
  struct RankState {
    std::uint64_t smp_bc_seq = 0;   // SMP bcast chunks processed (A/B parity)
    std::uint64_t op_seq = 0;       // real ops issued (RD slot parity)
    // Cumulative gather staging chunks on this rank's node (slot parity).
    std::uint64_t ga_seq = 0;
    // Cumulative SMP-reduce chunks each local task has published into its
    // red_slot pair, staged and mapped operations alike (slot parity +
    // published/consumed counter baselines).
    std::vector<std::uint64_t> smp_red_base;
    // Expected window generation per local task's Mapping slot: bumped in
    // lockstep by every rank of the node whenever a mapped protocol makes
    // local task l export a window — the attach side passes map_gen[l]+1.
    std::vector<std::uint64_t> map_gen;
  };

  NodeState& node_state(const machine::TaskCtx& t) {
    return *nodes_[static_cast<std::size_t>(t.node())];
  }
  RankState& rank_state(const machine::TaskCtx& t) {
    return ranks_[static_cast<std::size_t>(t.rank)];
  }
  /// Node @p node's link to @p peer, built on first use.
  Link& link(int node, int peer);
  /// The calling rank's sequence entry on its node's link to @p peer.
  Link::Seq& link_seq(const machine::TaskCtx& t, int peer) {
    return link(t.node(), peer).seq[static_cast<std::size_t>(t.local())];
  }
  /// Slot @p slot of the @p kind landing pair that @p node keeps for data
  /// from @p peer, allocated with the pair on first use.
  std::byte* landing(int node, int peer, Land kind, std::size_t slot);
  /// Landing-pair slot of a link's @p seq-th chunk (the single-buffer
  /// ablation degenerates the pair to one slot).
  std::size_t link_slot(std::uint64_t seq) const {
    return cfg_.use_two_buffers ? seq % 2 : std::size_t{0};
  }
  /// Put @p addr into @p cell of @p peer's link to the caller's node: one
  /// small put to @p peer_leader, origin-tracked by @p org and counted in
  /// @p org_pending (the bumps the caller must drain).
  sim::CoTask announce_addr(machine::TaskCtx& t, AddrCell Link::*cell,
                            int peer, int peer_leader, void* addr,
                            lapi::Counter* org, std::uint64_t& org_pending);
  /// Wait for @p peer's announcement in @p cell of the caller's link to it
  /// and return the address in @p out.
  sim::CoTask await_addr(machine::TaskCtx& t, AddrCell Link::*cell, int peer,
                         std::byte*& out);
  lapi::Endpoint& ep(int rank) { return fabric_->ep(rank); }

  // ---- SMP primitives (core/smp.cpp) ----

  /// One chunk of the flat two-buffer SMP distribution (Fig. 3). The leader
  /// makes [chunk_off, chunk_off+len) of a node block available: fill mode
  /// (@p shared_src == nullptr) copies @p fill_src into the next shared
  /// buffer; shared mode means the data already sits in shared memory (a
  /// LAPI put landed it at @p shared_src), so there is no staging copy.
  /// Then every task with a non-null @p my_dst — leader included — copies
  /// the intersection with its own slice [my_lo, my_hi) to @p my_dst (which
  /// points at my_lo's data). Advances the A/B READY-flag parity. @p bcast
  /// marks the whole-chunk broadcast case (smp_bcast_chunk): it records the
  /// smp.bcast_chunk span and stage and honours the smp_bcast_tree ablation.
  sim::CoTask smp_slice_chunk(machine::TaskCtx& t, int leader_local,
                              const std::byte* fill_src,
                              const std::byte* shared_src,
                              std::size_t chunk_off, std::size_t len,
                              std::size_t my_lo, std::size_t my_hi,
                              std::byte* my_dst, bool bcast = false);

  /// SMP broadcast of one chunk: smp_slice_chunk where every task's slice is
  /// the whole chunk. In fill mode the leader's @p dst already holds @p src,
  /// so only the other tasks copy; in shared mode everyone copies out of
  /// @p shared_src. Pass src == nullptr on non-leader ranks.
  sim::CoTask smp_bcast_chunk(machine::TaskCtx& t, int leader_local,
                              const void* src, void* dst, std::size_t len,
                              const std::byte* shared_src) {
    bool in_place = shared_src == nullptr && t.local() == leader_local;
    return smp_slice_chunk(t, leader_local,
                           static_cast<const std::byte*>(src), shared_src, 0,
                           len, 0, len,
                           in_place ? nullptr : static_cast<std::byte*>(dst),
                           /*bcast=*/true);
  }

  /// Publish @p bytes of the leader's @p src to every local task's @p dst:
  /// one mapped window (smp_bcast_mapped) when @p mapped, else the staged
  /// Fig. 3 buffers, chunked to fit them.
  sim::CoTask smp_publish(machine::TaskCtx& t, int leader_local,
                          const void* src, void* dst, std::size_t bytes,
                          bool mapped = false);

  /// Tree-structured SMP broadcast chunk (ablation, §2.2: the paper found
  /// the flat variant faster despite read contention).
  sim::CoTask smp_bcast_chunk_tree(machine::TaskCtx& t, int leader_local,
                                   const void* src, void* dst,
                                   std::size_t len);

  /// Non-leader side of the pipelined SMP reduce (Fig. 2, chunked) over the
  /// intranode @p tree of local ranks: leaves copy their chunks into their
  /// shared slots, interior tasks combine their own data with their
  /// children's chunks into their own slot. @p mapped (single-copy) changes
  /// only where a leaf's data comes from: a mapped leaf exports its send
  /// buffer once and does no per-chunk work, and its parent combines
  /// straight out of that window — zero copies, only combines.
  sim::CoTask smp_reduce_participant(machine::TaskCtx& t,
                                     const coll::Tree& tree, const void* send,
                                     std::size_t count, coll::Dtype d,
                                     coll::RedOp op, bool mapped = false);

  /// Leader side of one SMP-reduce chunk: waits for the leader's children in
  /// @p tree and combines its own data with theirs straight into @p dst
  /// (no staging copy). @p c is the op-local chunk index. When @p mapped,
  /// leaf children are read from @p wins, indexed by child local rank
  /// (attach_leaf_windows).
  sim::CoTask smp_reduce_chunk_leader(
      machine::TaskCtx& t, const coll::Tree& tree, const void* send,
      void* dst, std::size_t c, std::size_t elem_off, std::size_t elems,
      coll::Dtype d, coll::RedOp op, bool mapped = false,
      std::span<const shm::Mapping::Window> wins = {});

  /// Bookkeeping every rank runs after an SMP reduce over @p tree: advance
  /// each non-leader's slot baseline by @p nchunks (a mapped leaf's window
  /// generation by one instead) and, when @p emb is given, the inter-node
  /// landing parities of the reduce pipeline.
  void finish_reduce_bookkeeping(machine::TaskCtx& t, const coll::Tree& tree,
                                 std::size_t nchunks, bool mapped,
                                 const coll::Embedding* emb);

  // ---- single-copy cross-mapped SMP primitives (core/single_copy.cpp) ----

  /// Uniform per-operation protocol switch: the mapped single-copy path runs
  /// when the master enable is set and the decision table's mapped column
  /// says so for this op and size. Every rank computes this from
  /// operation-level arguments, so all ranks of a node take the same branch.
  bool mapped_on(coll::CollKind op, std::size_t op_bytes) const {
    return cfg_.single_copy && decide(op, op_bytes).mapped;
  }

  /// Mapped SMP broadcast: the leader exports [src, src+len) and the
  /// topology tree (coll::topo_tree) cascades direct copies — each vertex
  /// attaches to its parent's window, pulls into its own @p dst at the
  /// cache-distance-scaled cost, and re-exports dst for its children. N-1
  /// copies of len where the staged Fig. 3 path makes N, and no
  /// smp_buf_bytes cap. Pass src == nullptr on non-leader ranks.
  sim::CoTask smp_bcast_mapped(machine::TaskCtx& t, int leader_local,
                               const void* src, void* dst, std::size_t len);

  /// Attach (once per operation, before the chunk loop) the windows of the
  /// caller's leaf children in @p tree; @p wins is resized to nlocal and
  /// filled at the children's local ranks. detach_leaf_windows releases
  /// them after the last chunk.
  sim::CoTask attach_leaf_windows(machine::TaskCtx& t, const coll::Tree& tree,
                                  std::vector<shm::Mapping::Window>& wins);
  void detach_leaf_windows(machine::TaskCtx& t, const coll::Tree& tree);

  /// SMP barrier (§2.2): flat flags, master gathers then resets.
  sim::CoTask smp_barrier(machine::TaskCtx& t);
  /// First half only: master returns once all locals checked in.
  sim::CoTask smp_barrier_enter(machine::TaskCtx& t);
  /// Second half: master resets the flags, releasing the locals.
  void smp_barrier_release(machine::TaskCtx& t);

  // ---- protocol stages ----
  sim::CoTask bcast_small(machine::TaskCtx& t, void* buf, std::size_t bytes,
                          const coll::Embedding& emb);
  /// Large-message broadcast (Fig. 4 right): address exchange, then chunks
  /// put directly into user buffers, pipelined down the tree, each chunk
  /// published locally through the Fig. 3 buffers. When @p src_gate is set
  /// (pipelined allreduce), the root leader consumes one count per chunk
  /// before sending it — the reduce->broadcast coupling of Fig. 5.
  sim::CoTask bcast_large(machine::TaskCtx& t, void* buf, std::size_t bytes,
                          const coll::Embedding& emb, std::size_t chunk,
                          lapi::Counter* src_gate);
  sim::CoTask reduce_impl(machine::TaskCtx& t, const void* send, void* recv,
                          std::size_t count, coll::Dtype d, coll::RedOp op,
                          int root, lapi::Counter* chunk_done);
  sim::CoTask allreduce_rd(machine::TaskCtx& t, const void* send, void* recv,
                           std::size_t count, coll::Dtype d, coll::RedOp op);
  sim::CoTask allreduce_pipelined(machine::TaskCtx& t, const void* send,
                                  void* recv, std::size_t count,
                                  coll::Dtype d, coll::RedOp op);
  sim::CoTask internode_barrier(machine::TaskCtx& t);

  // ---- algorithm zoo (core/zoo.cpp) ----
  //
  // Large-message algorithms from the tuning literature, selected by the
  // decision table: all of them reduce intra-node with the staged Fig. 2
  // pipeline into the node master's buffer, run their inter-node exchange
  // between masters over the links' zoo state, and publish the result through
  // the staged Fig. 3 buffers (smp_publish; the mapped column is ignored
  // here).

  /// Ring allreduce: reduce-scatter around the node ring (streamed through
  /// the landing slots, combining on arrival), then allgather by direct
  /// puts into announced user buffers.
  sim::CoTask ring_allreduce(machine::TaskCtx& t, const void* send,
                             void* recv, std::size_t count, coll::Dtype d,
                             coll::RedOp op);
  /// Recursive-halving reduce-scatter + recursive-doubling allgather
  /// (Rabenseifner), with the classic fold to the nearest power of two.
  sim::CoTask rhalving_allreduce(machine::TaskCtx& t, const void* send,
                                 void* recv, std::size_t count, coll::Dtype d,
                                 coll::RedOp op);
  /// Scatter + ring-allgather broadcast: the root leader scatters one block
  /// per node, then the node ring circulates blocks with each node
  /// publishing arrivals locally as they land.
  sim::CoTask bcast_scatter_ag(machine::TaskCtx& t, void* buf,
                               std::size_t bytes, const coll::Embedding& emb);

  /// Staged SMP reduce of the whole vector into the leader's @p recv
  /// (leader runs the per-chunk leader combine, everyone else the
  /// participant pipeline), including the smp_red_base bookkeeping.
  sim::CoTask zoo_node_reduce(machine::TaskCtx& t, const coll::Tree& tree,
                              const void* send, void* recv, std::size_t count,
                              coll::Dtype d, coll::RedOp op);
  /// Stream [@p src, @p src+bytes) into @p dst_node's landing slots
  /// (reduce_chunk pieces, credit-gated), where the receiving leader is
  /// expected to combine each piece on arrival and return the credit.
  /// @p seq is the cumulative chunk sequence on the me->dst_node link
  /// (landing-slot parity), advanced per chunk; @p org_inflight counts the
  /// zoo_org bumps the caller must drain.
  sim::CoTask zoo_stream_to(machine::TaskCtx& t, int dst_node,
                            const std::byte* src, std::size_t bytes,
                            std::uint64_t& seq, std::uint64_t& org_inflight);
  /// Receive @p bytes streamed by @p src_node's zoo_stream_to, combining
  /// each landed chunk into @p dst with @p op and returning the slot credit.
  /// @p seq is the cumulative chunk sequence on the src_node->me link.
  sim::CoTask zoo_recv_combine(machine::TaskCtx& t, int src_node,
                               std::byte* dst, std::size_t bytes,
                               coll::Dtype d, coll::RedOp op,
                               std::uint64_t& seq);

  machine::Cluster* cluster_;
  lapi::Fabric* fabric_;
  SrmConfig cfg_;
  coll::DecisionTable table_;  // resolved at construction (decide())
  std::string name_;
  bool state_built_ = false;       // per-node and per-rank state built?
  std::vector<NodeState*> nodes_;  // owned by each node's segment
  std::vector<RankState> ranks_;   // built with nodes_
};

}  // namespace srm
