// Shared-memory (intra-node) primitives of SRM (paper §2.2).
#include <cstring>
#include <optional>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

// ---------------------------------------------------------------------------
// SMP broadcast: flat, two buffers, READY flags (Fig. 3)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_bcast_chunk_tree(machine::TaskCtx& t,
                                               int leader_local,
                                               const void* src, void* dst,
                                               std::size_t len) {
  // Ablation variant (§2.2): same shared buffer, but READY flags cascade
  // down a binomial tree — each process signals its tree children only after
  // finishing its own copy, serializing levels instead of letting the SMP
  // hardware arbitrate concurrent readers.
  chk::StageScope stage(t.chk, "smp.bcast_tree");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  std::size_t slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
  rs.smp_bc_seq++;
  shm::FlagArray& ready = *ns.bc_ready[slot];
  std::byte* sbuf = ns.bc_buf[slot].data();
  const coll::Tree& tree =
      trees().tree(coll::TreeKind::binomial, ns.nlocal, leader_local);

  if (t.local() == leader_local) {
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      co_await ready[l].await_value(0, &t.chk);
    }
    co_await t.nd->mem.charge_copy(static_cast<double>(len));
    std::memcpy(sbuf, src, len);
    chk::note_write(t.chk, sbuf, len);
  } else {
    co_await ready[t.local()].await_value(1, &t.chk);
    co_await t.nd->mem.charge_copy(
        static_cast<double>(len),
        t.P->topo.copy_factor(leader_local, t.local(), /*dirty=*/true));
    std::memcpy(dst, sbuf, len);
    chk::note_read(t.chk, sbuf, len);
  }
  // Signal own children, then (non-leaders) mark own flag consumed.
  const auto& kids = tree.children[static_cast<std::size_t>(t.local())];
  if (!kids.empty()) {
    co_await t.delay(t.P->mem.flag_poll * kids.size());
  }
  for (int c : kids) ready[c].set(1, &t.chk);
  if (t.local() != leader_local) ready[t.local()].set(0, &t.chk);
}

sim::CoTask Communicator::smp_slice_chunk(machine::TaskCtx& t,
                                          int leader_local,
                                          const std::byte* fill_src,
                                          const std::byte* shared_src,
                                          std::size_t chunk_off,
                                          std::size_t len, std::size_t my_lo,
                                          std::size_t my_hi, std::byte* my_dst,
                                          bool bcast) {
  std::optional<obs::Span> span;
  if (bcast) span.emplace(*t.obs, t.rank, "smp.bcast_chunk");
  chk::StageScope stage(t.chk, bcast ? "smp.bcast_chunk" : "smp.slice_chunk");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  SRM_CHECK(len <= cfg_.smp_buf_bytes);
  if (bcast && cfg_.smp_bcast_tree && shared_src == nullptr) {
    co_await smp_bcast_chunk_tree(t, leader_local, fill_src, my_dst, len);
    co_return;
  }
  std::size_t slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
  rs.smp_bc_seq++;
  shm::FlagArray& ready = *ns.bc_ready[slot];
  const std::byte* read_buf =
      shared_src != nullptr ? shared_src : ns.bc_buf[slot].data();
  bool leader = t.local() == leader_local;

  if (ns.nlocal == 1) {
    // Single task per node: no shared staging needed — take the slice
    // straight from wherever the data lives.
    if (shared_src == nullptr) read_buf = fill_src;
  } else if (leader) {
    // Acquire the flag set: every consumer must have cleared its flag.
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      co_await ready[l].await_value(0, &t.chk);
    }
    if (shared_src == nullptr && fill_src != nullptr) {
      // Copy the chunk into the shared buffer (skipped when a LAPI put
      // already deposited it in shared memory — the zero-copy case).
      co_await t.nd->mem.charge_copy(static_cast<double>(len));
      std::memcpy(ns.bc_buf[slot].data(), fill_src, len);
      chk::note_read(t.chk, fill_src, len);
      chk::note_write(t.chk, ns.bc_buf[slot].data(), len);
    }
    // Set READY for every other process (one cache-line store each).
    co_await t.delay(t.P->mem.flag_poll *
                     static_cast<sim::Duration>(ns.nlocal - 1));
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      ready[l].set(1, &t.chk);
    }
  } else {
    co_await ready[t.local()].await_value(1, &t.chk);
  }

  // Copy out the intersection of the chunk with my slice. The leader's copy
  // comes after releasing the others, so all copies overlap (they contend
  // on the bus). The staging buffer is dirty in the leader's cache when the
  // leader filled it; a DMA-landed chunk (shared_src) is memory-resident.
  std::size_t lo = std::max(my_lo, chunk_off);
  std::size_t hi = std::min(my_hi, chunk_off + len);
  if (lo < hi && my_dst != nullptr && read_buf != nullptr) {
    const std::byte* from = read_buf + (lo - chunk_off);
    co_await t.nd->mem.charge_copy(
        static_cast<double>(hi - lo),
        t.P->topo.copy_factor(leader_local, t.local(),
                              /*dirty=*/shared_src == nullptr));
    std::memcpy(my_dst + (lo - my_lo), from, hi - lo);
    chk::note_read(t.chk, from, hi - lo);
  }
  if (ns.nlocal > 1 && !leader) ready[t.local()].set(0, &t.chk);
}

sim::CoTask Communicator::smp_publish(machine::TaskCtx& t, int leader_local,
                                      const void* src, void* dst,
                                      std::size_t bytes, bool mapped) {
  bool leader = t.local() == leader_local;
  if (mapped) {
    co_await smp_bcast_mapped(t, leader_local, leader ? src : nullptr, dst,
                              bytes);
    co_return;
  }
  std::size_t done = 0;
  while (done < bytes) {
    std::size_t sub = std::min(cfg_.smp_buf_bytes, bytes - done);
    const void* s =
        leader ? static_cast<const std::byte*>(src) + done : nullptr;
    co_await smp_bcast_chunk(t, leader_local, s,
                             static_cast<std::byte*>(dst) + done, sub,
                             nullptr);
    done += sub;
  }
}

// ---------------------------------------------------------------------------
// SMP reduce: binomial tree, chunk slots, published/consumed counters (Fig. 2)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_reduce_participant(machine::TaskCtx& t,
                                                 const coll::Tree& tree,
                                                 const void* send,
                                                 std::size_t count,
                                                 coll::Dtype d,
                                                 coll::RedOp op,
                                                 bool mapped) {
  const char* name = mapped ? "smp.reduce_mapped" : "smp.reduce";
  obs::Span span(*t.obs, t.rank, name);
  chk::StageScope stage(t.chk, name);
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int me = t.local();
  SRM_CHECK(tree.parent[static_cast<std::size_t>(me)] != -1);
  std::size_t esize = coll::dtype_size(d);
  std::size_t chunk_elems = cfg_.reduce_chunk / esize;
  std::size_t nchunks = detail::chunk_count(count, chunk_elems);
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (mapped && kids.empty()) {
    // Mapped leaf: no copy at all. Export the send buffer once; the parent
    // pulls every chunk straight out of the window and detaches after the
    // last.
    co_await ns.map->publish(t, const_cast<void*>(send), count * esize);
    co_await ns.map->retract(t, 1);
    co_return;
  }
  std::vector<shm::Mapping::Window> wins;
  if (mapped) co_await attach_leaf_windows(t, tree, wins);

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk_elems;
    std::size_t elems = std::min(chunk_elems, count - off);
    std::uint64_t abs = rs.smp_red_base[static_cast<std::size_t>(me)] + c;
    // Slot reuse: chunk `abs` shares a slot with chunk `abs - 2`; wait until
    // whoever was leading that operation consumed it (per-slot count).
    if (abs >= 2) {
      co_await (*ns.red_consumed[abs % 2])[me].await_at_least(abs / 2,
                                                              &t.chk);
    }
    std::byte* slot = ns.red_slot[abs % 2][static_cast<std::size_t>(me)].data();
    const std::byte* mine =
        static_cast<const std::byte*>(send) + off * esize;
    double bytes = static_cast<double>(elems * esize);

    if (kids.empty()) {
      // Staged leaf: the one memory copy of Fig. 2.
      co_await t.nd->mem.charge_copy(bytes);
      std::memcpy(slot, mine, elems * esize);
      chk::note_write(t.chk, slot, elems * esize);
    } else {
      // Interior: fuse own data with the first child straight into the slot,
      // then fold the remaining children in place.
      bool first = true;
      for (int kid : kids) {
        auto ki = static_cast<std::size_t>(kid);
        // A mapped leaf child's whole send buffer is its window, ready since
        // the publish we attached to: no per-chunk wait and no slot.
        bool window = mapped && tree.children[ki].empty();
        std::uint64_t kid_abs = rs.smp_red_base[ki] + c;
        if (!window) {
          co_await (*ns.red_published)[kid].await_at_least(kid_abs + 1,
                                                           &t.chk);
        }
        const std::byte* ksrc = window ? wins[ki].data + off * esize
                                       : ns.red_slot[kid_abs % 2][ki].data();
        // The child just wrote its data: a dirty pull across its distance.
        co_await t.nd->mem.charge_combine(
            bytes, t.P->topo.copy_factor(kid, me, /*dirty=*/true));
        if (first) {
          coll::combine_out(op, d, slot, mine, ksrc, elems);
          first = false;
        } else {
          coll::combine(op, d, slot, ksrc, elems);
        }
        chk::note_read(t.chk, ksrc, elems * esize);
        chk::note_write(t.chk, slot, elems * esize);
        if (!window) (*ns.red_consumed[kid_abs % 2])[kid].add(1, &t.chk);
      }
    }
    (*ns.red_published)[me].add(1, &t.chk);
  }
  if (mapped) detach_leaf_windows(t, tree);
}

sim::CoTask Communicator::smp_reduce_chunk_leader(
    machine::TaskCtx& t, const coll::Tree& tree, const void* send, void* dst,
    std::size_t c, std::size_t elem_off, std::size_t elems, coll::Dtype d,
    coll::RedOp op, bool mapped, std::span<const shm::Mapping::Window> wins) {
  obs::Span span(*t.obs, t.rank, mapped ? "smp.reduce_mapped" : "smp.reduce");
  chk::StageScope stage(
      t.chk, mapped ? "smp.reduce_mapped_leader" : "smp.reduce_leader");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int me = t.local();
  SRM_CHECK(tree.root == me);
  std::size_t esize = coll::dtype_size(d);
  const std::byte* mine =
      static_cast<const std::byte*>(send) + elem_off * esize;
  double bytes = static_cast<double>(elems * esize);
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (kids.empty()) {
    // Single task on the node: the node result is just our own data.
    co_await t.nd->mem.charge_copy(bytes);
    std::memcpy(dst, mine, elems * esize);
    chk::note_write(t.chk, dst, elems * esize);
    co_return;
  }
  bool first = true;
  for (int kid : kids) {
    auto ki = static_cast<std::size_t>(kid);
    bool window = mapped && tree.children[ki].empty();
    std::uint64_t kid_abs = rs.smp_red_base[ki] + c;
    if (!window) {
      co_await (*ns.red_published)[kid].await_at_least(kid_abs + 1, &t.chk);
    }
    const std::byte* ksrc = window ? wins[ki].data + elem_off * esize
                                   : ns.red_slot[kid_abs % 2][ki].data();
    co_await t.nd->mem.charge_combine(
        bytes, t.P->topo.copy_factor(kid, me, /*dirty=*/true));
    if (first) {
      // The last combine writes directly to the destination — the paper's
      // "result ... directly in the destination rather than an intermediate
      // buffer" optimization.
      coll::combine_out(op, d, dst, mine, ksrc, elems);
      first = false;
    } else {
      coll::combine(op, d, dst, ksrc, elems);
    }
    chk::note_read(t.chk, ksrc, elems * esize);
    chk::note_write(t.chk, dst, elems * esize);
    if (!window) (*ns.red_consumed[kid_abs % 2])[kid].add(1, &t.chk);
  }
}

void Communicator::finish_reduce_bookkeeping(machine::TaskCtx& t,
                                             const coll::Tree& tree,
                                             std::size_t nchunks, bool mapped,
                                             const coll::Embedding* emb) {
  RankState& rs = rank_state(t);
  for (int v = 0; v < t.nlocal(); ++v) {
    if (v == tree.root) continue;
    auto vi = static_cast<std::size_t>(v);
    if (mapped && tree.children[vi].empty()) {
      rs.map_gen[vi] += 1;  // mapped leaf: one window export per operation
    } else {
      rs.smp_red_base[vi] += nchunks;  // one slot publish per chunk
    }
  }
  if (emb == nullptr) return;
  int my_node = t.node();
  int parent = emb->internode.parent[static_cast<std::size_t>(my_node)];
  if (parent != -1) link_seq(t, parent).red_sent += nchunks;
  for (int child :
       emb->internode.children[static_cast<std::size_t>(my_node)]) {
    link_seq(t, child).red_recvd += nchunks;
  }
}

// ---------------------------------------------------------------------------
// SMP barrier: flat flags, one per process, master gathers then resets (§2.2)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_barrier_enter(machine::TaskCtx& t) {
  obs::Span span(*t.obs, t.rank, "barrier.smp");
  chk::StageScope stage(t.chk, "barrier.smp");
  NodeState& ns = node_state(t);
  shm::FlagArray& flags = *ns.bar_flag;
  if (t.local() == 0) {
    for (int l = 1; l < ns.nlocal; ++l) {
      co_await t.delay(t.P->mem.flag_poll);  // read one more cache line
      co_await flags[l].await_value(1, &t.chk);
    }
  } else {
    flags[t.local()].set(1, &t.chk);
    co_await flags[t.local()].await_value(0, &t.chk);
  }
}

void Communicator::smp_barrier_release(machine::TaskCtx& t) {
  NodeState& ns = node_state(t);
  SRM_CHECK(t.local() == 0);
  for (int l = 1; l < ns.nlocal; ++l) {
    (*ns.bar_flag)[l].set(0, &t.chk);
  }
}

sim::CoTask Communicator::smp_barrier(machine::TaskCtx& t) {
  co_await smp_barrier_enter(t);
  if (t.local() == 0) smp_barrier_release(t);
}

}  // namespace srm
