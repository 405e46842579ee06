// SRM scatter / gather.
//
// These extend the paper's operation set using its two building blocks:
//
//  * scatter: the root puts each node's contiguous block (ranks are placed
//    in blocks, so a node's data is contiguous in the root buffer) into that
//    node's per-link landing buffers — the same credit-guarded pair the
//    small broadcast uses — and the node distributes slices out of shared
//    memory, each task copying only its own piece.
//
//  * gather: the root announces its receive buffer (address-exchange put,
//    as in the large broadcast); every node assembles its block chunk-wise
//    in two shared staging buffers (per-slot filled/freed counters), and the
//    leader puts finished chunks straight into their final location in the
//    root's buffer — no intermediate copies on the network path.
//
// coll::Collectives composes allgather (gather to rank 0 + broadcast) and
// reduce_scatter (reduce to rank 0 + scatter) from these and the paper's
// operations, so both benefit from the optimized halves.
#include <cstring>
#include <deque>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

sim::CoTask Communicator::v_scatter(machine::TaskCtx& t, coll::Buf sbuf,
                                    coll::Buf rbuf, int root) {
  // Root range / descriptor invariants are enforced at the API boundary
  // (coll::Collectives); this plane only runs the protocol.
  ensure_real_state();
  obs::Span span(*t.obs, t.rank, "srm.scatter");
  chk::StageScope stage(t.chk, "srm.scatter");
  rank_state(t).op_seq++;
  const void* send = sbuf.data;
  void* recv = rbuf.data;

  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int root_node = t.topo->node_of(root);
  int my_node = t.node();
  int leader_local =
      my_node == root_node ? t.topo->local_of(root) : 0;
  bool is_leader = t.local() == leader_local;

  std::size_t block = rbuf.block_bytes();          // one rank's data
  std::size_t node_block = block * static_cast<std::size_t>(t.nlocal());
  std::size_t chunk = cfg_.smp_buf_bytes;
  std::size_t nchunks = detail::chunk_count(node_block, chunk);
  std::size_t my_lo = static_cast<std::size_t>(t.local()) * block;
  std::size_t my_hi = my_lo + block;

  // Single-copy path (root node only — elsewhere the data already lands in
  // shared memory): the root exports one window over its own node's block
  // and every local pulls its slice straight out, flat — a hierarchy buys
  // nothing when each reader wants a disjoint slice.
  bool mapped = mapped_on(coll::CollKind::scatter, node_block) && t.nlocal() > 1;

  if (t.rank == root) {
    lapi::Endpoint& my_ep = ep(t.rank);
    lapi::Counter org(*t.eng, "scatter.org@" + std::to_string(t.rank));
    std::uint64_t org_pending = 0;
    const std::byte* sp = static_cast<const std::byte*>(send);
    const std::byte* own_block =
        sp + static_cast<std::size_t>(root_node) * node_block;
    if (mapped) {
      // Export before the network loop so the local pulls overlap the puts.
      co_await ns.map->publish(t, const_cast<std::byte*>(own_block),
                               node_block);
    }
    // Chunk-major across nodes so all links stream concurrently.
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      for (int nd = 0; nd < t.nnodes(); ++nd) {
        if (nd == root_node) continue;
        std::size_t slot = link_slot(link_seq(t, nd).bc_sent + c);
        co_await my_ep.wait_cntr(link(root_node, nd).bc_free[slot], 1);
        co_await my_ep.put(
            ep(t.topo->master_of(nd)), landing(nd, root_node, kBcLand, slot),
            sp + static_cast<std::size_t>(nd) * node_block + off, len,
            &link(nd, root_node).bc_arrived[slot], &org);
        ++org_pending;
      }
      if (!mapped) {
        // Distribute the root node's own block slice-wise.
        co_await smp_slice_chunk(t, leader_local, own_block + off, nullptr,
                                 off, len, my_lo, my_hi,
                                 static_cast<std::byte*>(recv));
      }
    }
    if (mapped) {
      // Own slice: plain local copy out of the (own) window.
      co_await t.nd->mem.charge_copy(static_cast<double>(block));
      std::memcpy(recv, own_block + my_lo, block);
      chk::note_read(t.chk, own_block + my_lo, block);
      co_await ns.map->retract(t, t.nlocal() - 1);
    }
    if (org_pending > 0) co_await my_ep.wait_cntr(org, org_pending);
  } else if (mapped && my_node == root_node) {
    // Root-node consumer: pull the slice straight from the root's buffer.
    shm::Mapping::Window w;
    co_await ns.map->attach(
        t, leader_local,
        rs.map_gen[static_cast<std::size_t>(leader_local)] + 1, &w);
    co_await t.nd->mem.charge_copy(
        static_cast<double>(block),
        t.P->topo.copy_factor(leader_local, t.local(), true));
    std::memcpy(recv, w.data + my_lo, block);
    chk::note_read(t.chk, w.data + my_lo, block);
    ns.map->detach(t, leader_local);
  } else if (is_leader) {
    lapi::Endpoint& my_ep = ep(t.rank);
    std::uint64_t recv_seq = link_seq(t, root_node).bc_recv;
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      std::size_t slot = link_slot(recv_seq + c);
      std::size_t flag_slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
      co_await my_ep.wait_cntr(link(my_node, root_node).bc_arrived[slot], 1);
      co_await smp_slice_chunk(t, leader_local, nullptr,
                               landing(my_node, root_node, kBcLand, slot), off,
                               len, my_lo, my_hi,
                               static_cast<std::byte*>(recv));
      for (int l = 0; l < ns.nlocal; ++l) {
        if (l == leader_local) continue;
        co_await (*ns.bc_ready[flag_slot])[l].await_value(0, &t.chk);
      }
      co_await my_ep.put_signal(ep(root),
                                link(root_node, my_node).bc_free[slot]);
    }
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      const std::byte* shared_src = nullptr;
      if (my_node != root_node) {
        shared_src = landing(my_node, root_node, kBcLand,
                             link_slot(link_seq(t, root_node).bc_recv + c));
      }
      co_await smp_slice_chunk(t, leader_local, nullptr, shared_src, off,
                               len, my_lo, my_hi,
                               static_cast<std::byte*>(recv));
    }
  }

  // Per-link sequence bookkeeping (every rank, deterministically).
  if (my_node == root_node) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd != root_node) link_seq(t, nd).bc_sent += nchunks;
    }
    // Mapped path: one window export by the root, mirrored by every rank of
    // the node. (The staged smp_bc_seq parity does not advance — nobody on
    // this node touched the shared A/B buffers.)
    if (mapped) rs.map_gen[static_cast<std::size_t>(leader_local)] += 1;
  } else {
    link_seq(t, root_node).bc_recv += nchunks;
  }
}

sim::CoTask Communicator::v_gather(machine::TaskCtx& t, coll::Buf sbuf,
                                   coll::Buf rbuf, int root) {
  ensure_real_state();
  obs::Span span(*t.obs, t.rank, "srm.gather");
  chk::StageScope stage(t.chk, "srm.gather");
  rank_state(t).op_seq++;
  const void* send = sbuf.data;
  void* recv = rbuf.data;

  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int root_node = t.topo->node_of(root);
  int my_node = t.node();
  int leader_local = my_node == root_node ? t.topo->local_of(root) : 0;
  bool is_leader = t.local() == leader_local;

  std::size_t block = sbuf.block_bytes();
  std::size_t node_block = block * static_cast<std::size_t>(t.nlocal());
  std::size_t chunk = cfg_.smp_buf_bytes;
  std::size_t nchunks = detail::chunk_count(node_block, chunk);
  std::size_t my_lo = static_cast<std::size_t>(t.local()) * block;
  std::size_t my_hi = my_lo + block;
  std::size_t node_base =
      static_cast<std::size_t>(my_node) * node_block;  // in the root buffer

  auto slot_of = [this](std::uint64_t a) {
    return cfg_.use_two_buffers ? a % 2 : std::size_t{0};
  };
  int p = t.nlocal();

  lapi::Endpoint& my_ep = ep(t.rank);

  // Stage 0 (root): announce the receive buffer to every other leader.
  if (t.rank == root) {
    lapi::Counter org(*t.eng, "gather.addr_org@" + std::to_string(t.rank));
    std::uint64_t org_pending = 0;
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      co_await announce_addr(t, &Link::ga_addr, nd, t.topo->master_of(nd),
                             recv, &org, org_pending);
    }
    if (org_pending > 0) co_await my_ep.wait_cntr(org, org_pending);
  }

  // Single-copy path (root node only): instead of staging slices through
  // ga_stage, every local exports a window over its send block and the root
  // pulls each block straight into its final place in recv — N-1 copies
  // where the staged assembly makes 2 per byte.
  bool mapped = mapped_on(coll::CollKind::gather, node_block) &&
                t.nlocal() > 1 && my_node == root_node;
  if (mapped) {
    if (!is_leader) {
      co_await ns.map->publish(t, const_cast<void*>(send), block);
      co_await ns.map->retract(t, 1);
    } else {
      std::byte* rp = static_cast<std::byte*>(recv) + node_base;
      for (int l = 0; l < p; ++l) {
        auto li = static_cast<std::size_t>(l);
        std::size_t dst_off = static_cast<std::size_t>(l) * block;
        if (l == leader_local) {
          co_await t.nd->mem.charge_copy(static_cast<double>(block));
          std::memcpy(rp + dst_off, send, block);
          continue;
        }
        shm::Mapping::Window w;
        co_await ns.map->attach(t, l, rs.map_gen[li] + 1, &w);
        co_await t.nd->mem.charge_copy(
            static_cast<double>(block),
            t.P->topo.copy_factor(l, t.local(), true));
        std::memcpy(rp + dst_off, w.data, block);
        chk::note_read(t.chk, w.data, block);
        ns.map->detach(t, l);
      }
    }
    // Every rank of the node mirrors the leaf exports; ga_seq does not
    // advance — nobody here touched the staging pair.
    for (int l = 0; l < p; ++l) {
      if (l != leader_local) rs.map_gen[static_cast<std::size_t>(l)] += 1;
    }
    // The root still has to wait for the remote nodes' puts below.
    if (t.rank == root) {
      for (int nd = 0; nd < t.nnodes(); ++nd) {
        if (nd == root_node) continue;
        co_await my_ep.wait_cntr(link(root_node, nd).ga_done, nchunks);
      }
    }
    co_return;
  }

  // Stage 1 (everyone): assemble the node block in the shared staging pair.
  // All p locals bump the filled counter for every chunk (with or without a
  // contribution), so the expected count per chunk is exactly p.
  std::byte* root_dst = nullptr;  // leaders learn where chunks go
  if (is_leader && my_node != root_node) {
    co_await await_addr(t, &Link::ga_addr, root_node, root_dst);
  }

  lapi::Counter out_org(*t.eng, "gather.out_org@" + std::to_string(t.rank));
  std::deque<std::size_t> inflight_slots;  // staging slots with a put in air
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk;
    std::size_t len = std::min(chunk, node_block - off);
    std::uint64_t a = rs.ga_seq + c;  // lifetime chunk index on this node
    std::size_t slot = slot_of(a);

    // Writer side: wait until all previous occupants of this slot are gone.
    co_await ns.ga_freed[slot]->await_at_least(
        cfg_.use_two_buffers ? a / 2 : a, &t.chk);
    std::size_t lo = std::max(my_lo, off);
    std::size_t hi = std::min(my_hi, off + len);
    if (lo < hi) {
      co_await t.nd->mem.charge_copy(static_cast<double>(hi - lo));
      chk::note_write(t.chk, ns.ga_stage[slot].data() + (lo - off), hi - lo);
      std::memcpy(ns.ga_stage[slot].data() + (lo - off),
                  static_cast<const std::byte*>(send) + (lo - my_lo),
                  hi - lo);
    }
    ns.ga_filled[slot]->add(1, &t.chk);

    if (!is_leader) continue;

    // Leader side: wait for all p contributions of this chunk, then move it.
    std::uint64_t prior =
        (cfg_.use_two_buffers ? a / 2 : a) * static_cast<std::uint64_t>(p);
    co_await ns.ga_filled[slot]->await_at_least(
        prior + static_cast<std::uint64_t>(p), &t.chk);
    if (my_node == root_node) {
      // The root copies straight into its receive buffer. The stage slices
      // are dirty in p different caches; charge the stream at the average
      // pull distance (exactly 1.0 on a single-domain topology).
      double f = 0.0;
      for (int l = 0; l < p; ++l) {
        f += t.P->topo.copy_factor(l, t.local(), /*dirty=*/true);
      }
      co_await t.nd->mem.charge_copy(
          static_cast<double>(len), f / static_cast<double>(p));
      chk::note_read(t.chk, ns.ga_stage[slot].data(), len);
      std::memcpy(static_cast<std::byte*>(recv) + node_base + off,
                  ns.ga_stage[slot].data(), len);
      ns.ga_freed[slot]->add(1, &t.chk);
    } else {
      co_await my_ep.put(ep(root), root_dst + node_base + off,
                         ns.ga_stage[slot].data(), len,
                         &link(root_node, my_node).ga_done, &out_org);
      inflight_slots.push_back(slot);
      // Keep at most two chunks in flight; origin-counter bumps arrive in
      // injection order, so the front of the queue is the slot that the
      // oldest put has finished reading.
      if (inflight_slots.size() >= 2) {
        co_await my_ep.wait_cntr(out_org, 1);
        ns.ga_freed[inflight_slots.front()]->add(1, &t.chk);
        inflight_slots.pop_front();
      }
    }
  }
  while (!inflight_slots.empty()) {
    co_await my_ep.wait_cntr(out_org, 1);
    ns.ga_freed[inflight_slots.front()]->add(1, &t.chk);
    inflight_slots.pop_front();
  }

  // Root: wait for every remote node's chunks to land.
  if (t.rank == root) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      co_await my_ep.wait_cntr(link(root_node, nd).ga_done, nchunks);
    }
  }

  rs.ga_seq += nchunks;
}

}  // namespace srm
