// SRM broadcast (paper §2.4, Fig. 4).
//
// Small protocol (<= 64 KB): the parent leader puts each chunk into one of
// the two shared-memory landing buffers the child keeps for that link,
// guarded by per-buffer free-credit counters (LAPI_Waitcntr instead of
// spinning, so the dispatcher polls). The SMP broadcast then reads straight
// out of the landing buffer — no staging copy. Messages in the (8 KB, 32 KB]
// band are split into 4 KB chunks and pipelined over the two buffers.
//
// Large protocol (> 64 KB): an address-exchange stage, then chunks are put
// directly into the child leaders' *user* buffers — no intermediate buffer
// at all — and each node publishes arrived chunks to its local tasks through
// the Fig. 3 double buffers, overlapping the network with the SMP copies.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

namespace {
/// Internode children in broadcast send order (largest subtree first).
std::vector<int> bcast_children(const coll::Tree& tree, int node) {
  auto kids = tree.children[static_cast<std::size_t>(node)];
  return {kids.rbegin(), kids.rend()};
}
}  // namespace

sim::CoTask Communicator::bcast_small(machine::TaskCtx& t, void* buf,
                                      std::size_t bytes,
                                      const coll::Embedding& emb) {
  obs::Span span(*t.obs, t.rank, "bcast.small");
  chk::StageScope stage(t.chk, "bcast.small");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int my_node = t.node();
  int leader = emb.leader(my_node);
  int leader_local = t.topo->local_of(leader);
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  bool is_root_node = parent == -1;

  // Chunk geometry (§2.4): pipeline band only.
  std::size_t chunk = bytes;
  if (bytes > cfg_.bcast_pipe_min && bytes <= cfg_.bcast_pipe_max) {
    chunk = cfg_.bcast_pipe_chunk;
  }
  std::size_t nchunks = detail::chunk_count(bytes, chunk);

  // Landing-slot sequence on the link from the parent.
  std::uint64_t recv_seq = is_root_node ? 0 : link_seq(t, parent).bc_recv;
  auto finish_bookkeeping = [&] {
    if (!is_root_node) link_seq(t, parent).bc_recv += nchunks;
    for (int child : emb.internode.children[static_cast<std::size_t>(my_node)]) {
      link_seq(t, child).bc_sent += nchunks;
    }
  };

  // Single-copy path: only the *root* node stages through the shared buffer
  // (elsewhere the data already lands in shared memory); a mapped fan-out
  // from the root's user buffer removes that staging copy. One window over
  // the whole message — the pipeline-band chunking is a staging-buffer
  // artifact the mapped path doesn't need.
  bool mapped = mapped_on(coll::CollKind::bcast, bytes);

  if (t.rank != leader) {
    // Pure consumer: copy each chunk out of the landing buffer (non-root
    // nodes) or the SMP broadcast buffer (root node) when READY.
    if (is_root_node && mapped) {
      co_await smp_bcast_mapped(t, leader_local, nullptr, buf, bytes);
      finish_bookkeeping();
      co_return;
    }
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, bytes - off);
      const std::byte* shared_src = nullptr;
      if (!is_root_node) {
        shared_src =
            landing(my_node, parent, kBcLand, link_slot(recv_seq + c));
      }
      co_await smp_bcast_chunk(t, leader_local, nullptr,
                               static_cast<std::byte*>(buf) + off, len,
                               shared_src);
    }
    finish_bookkeeping();
    co_return;
  }

  auto kids = bcast_children(emb.internode, my_node);
  lapi::Endpoint& my_ep = ep(t.rank);
  // Puts sourced from the user buffer must have left the adapter before the
  // operation returns (the caller may immediately reuse the buffer).
  lapi::Counter org(*t.eng, "bcast.org@" + std::to_string(t.rank));
  std::uint64_t org_pending = 0;

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk;
    std::size_t len = std::min(chunk, bytes - off);

    const std::byte* data;
    std::size_t in_slot = 0;
    if (is_root_node) {
      data = static_cast<const std::byte*>(buf) + off;
    } else {
      // Wait for the parent's put to land in this link's buffer.
      in_slot = link_slot(recv_seq + c);
      co_await my_ep.wait_cntr(link(my_node, parent).bc_arrived[in_slot], 1);
      data = landing(my_node, parent, kBcLand, in_slot);
    }

    // Send down the tree first (nonblocking puts), then broadcast locally —
    // Fig. 4 steps 1 and 2.
    for (int child : kids) {
      std::size_t out_slot = link_slot(link_seq(t, child).bc_sent + c);
      co_await my_ep.wait_cntr(link(my_node, child).bc_free[out_slot], 1);
      // Forwards from a landing buffer need no origin tracking: the buffer
      // cannot be overwritten before this put leaves (the parent's next put
      // is gated on a credit that follows it through the same NIC FIFO).
      co_await my_ep.put(ep(emb.leader(child)),
                         landing(child, my_node, kBcLand, out_slot), data, len,
                         &link(child, my_node).bc_arrived[out_slot],
                         is_root_node ? &org : nullptr);
      if (is_root_node) ++org_pending;
    }

    if (is_root_node) {
      if (!mapped) {
        co_await smp_bcast_chunk(t, leader_local, data,
                                 static_cast<std::byte*>(buf) + off, len,
                                 nullptr);
      }
    } else {
      std::size_t flag_slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
      co_await smp_bcast_chunk(t, leader_local, nullptr,
                               static_cast<std::byte*>(buf) + off, len, data);
      // The landing buffer is free once every local consumer cleared its
      // READY flag; then tell the parent (Fig. 4 step 3: zero-byte put).
      for (int l = 0; l < ns.nlocal; ++l) {
        if (l == leader_local) continue;
        co_await (*ns.bc_ready[flag_slot])[l].await_value(0, &t.chk);
      }
      co_await my_ep.put_signal(ep(emb.leader(parent)),
                                link(parent, my_node).bc_free[in_slot]);
    }
  }
  if (is_root_node && mapped) {
    // Mapped local fan-out after the puts are on the wire: the consumers
    // pull straight from the root's user buffer while the network streams.
    co_await smp_bcast_mapped(t, leader_local, buf, buf, bytes);
  }
  if (org_pending > 0) {
    co_await my_ep.wait_cntr(org, org_pending);
  }
  finish_bookkeeping();
}

sim::CoTask Communicator::bcast_large(machine::TaskCtx& t, void* buf,
                                      std::size_t bytes,
                                      const coll::Embedding& emb,
                                      std::size_t chunk,
                                      lapi::Counter* src_gate) {
  obs::Span span(*t.obs, t.rank, "bcast.large");
  chk::StageScope stage(t.chk, "bcast.large");
  int my_node = t.node();
  int leader = emb.leader(my_node);
  int leader_local = t.topo->local_of(leader);
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  std::size_t nchunks = detail::chunk_count(bytes, chunk);

  // The SMP publish stage moves at most one shared buffer per step; network
  // chunks larger than that are published in sub-chunks. The mapped path
  // exports the whole network chunk as one window instead — no staging
  // buffer, so no sub-chunking and one copy per consumer instead of two.
  bool mapped = mapped_on(coll::CollKind::bcast, bytes);
  auto* base = static_cast<std::byte*>(buf);

  if (t.rank != leader) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, bytes - off);
      co_await smp_publish(t, leader_local, nullptr, base + off, len, mapped);
    }
    co_return;
  }

  lapi::Endpoint& my_ep = ep(t.rank);
  auto kids = bcast_children(emb.internode, my_node);
  // Every put below is sourced from the user buffer (or this frame), so all
  // of them must have left the adapter before the operation returns.
  lapi::Counter org(*t.eng, "bcast_large.org@" + std::to_string(t.rank));
  std::uint64_t org_pending = 0;

  // Stage 1 (initialization): leaves announce their user-buffer address to
  // the parent with a small put.
  if (parent != -1) {
    co_await announce_addr(t, &Link::bc_addr, parent, emb.leader(parent), buf,
                           &org, org_pending);
  }

  std::vector<std::byte*> child_addr(kids.size(), nullptr);

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk;
    std::size_t len = std::min(chunk, bytes - off);
    if (parent != -1) {
      // Stage 2: wait for this chunk to land in our user buffer.
      co_await my_ep.wait_cntr(link(my_node, parent).bc_large_arrived, 1);
    } else if (src_gate != nullptr) {
      // Pipelined allreduce: wait until the reduce phase finished this chunk.
      co_await my_ep.wait_cntr(*src_gate, 1);
    }
    // Forward straight from the user buffer — no intermediate buffers.
    for (std::size_t k = 0; k < kids.size(); ++k) {
      int child = kids[k];
      if (c == 0) co_await await_addr(t, &Link::bc_addr, child, child_addr[k]);
      co_await my_ep.put(ep(emb.leader(child)), child_addr[k] + off,
                         static_cast<const std::byte*>(buf) + off, len,
                         &link(child, my_node).bc_large_arrived, &org);
      ++org_pending;
    }
    // Stages 3/4: SMP broadcast of the arrived chunk, pipelined through the
    // two shared buffers while the network keeps streaming.
    co_await smp_publish(t, leader_local, base + off, base + off, len,
                         mapped);
  }
  if (org_pending > 0) {
    co_await my_ep.wait_cntr(org, org_pending);
  }
}

}  // namespace srm
