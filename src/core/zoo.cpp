// Algorithm zoo: large-message collectives from the tuning literature,
// selected by the decision table (coll/decision.hpp) rather than the paper's
// fixed crossover constants.
//
// All three algorithms keep the paper's SMP discipline — staged Fig. 2
// reduce into the node master, staged Fig. 3 publish of the result — and
// replace only the inter-node exchange between the node leaders:
//
//  * ring allreduce: reduce-scatter around the node ring, streamed through
//    the two per-peer landing slots with credit counters (the reduce
//    pipeline's flow control, §2.4), then an allgather of the reduced
//    blocks by direct puts into announced user buffers.
//  * recursive-halving allreduce (Rabenseifner): halve-and-exchange
//    reduce-scatter, recursive-doubling allgather, classic fold to the
//    nearest power of two. Exchanges go through a per-operation scratch
//    buffer whose address is re-announced every round — the announcement
//    doubles as the consumed-signal, so no slot credits are needed.
//  * scatter+allgather broadcast: the root leader scatters one block per
//    node, the ring circulates blocks with each node publishing arrivals
//    locally as they land; the root re-injects from its own buffer instead
//    of receiving, so its predecessor sends nothing.
//
// Zero-length blocks (more nodes than elements) are skipped symmetrically
// on both sides of every handshake so all counters stay balanced.
#include <cstring>
#include <vector>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

namespace {
/// Chunks a byte range splits into, with zero-length transfers carrying no
/// chunks at all (detail::chunk_count maps 0 to one chunk).
std::size_t nz_chunks(std::size_t bytes, std::size_t chunk) {
  return bytes == 0 ? 0 : (bytes + chunk - 1) / chunk;
}
}  // namespace

sim::CoTask Communicator::zoo_node_reduce(machine::TaskCtx& t,
                                          const coll::Tree& tree,
                                          const void* send, void* recv,
                                          std::size_t count, coll::Dtype d,
                                          coll::RedOp op) {
  std::size_t esize = coll::dtype_size(d);
  std::size_t chunk_elems = cfg_.reduce_chunk / esize;
  std::size_t nchunks = detail::chunk_count(count, chunk_elems);
  int leader_local = tree.root;

  if (t.local() != leader_local) {
    co_await smp_reduce_participant(t, tree, send, count, d, op);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t elem_off = c * chunk_elems;
      std::size_t elems = std::min(chunk_elems, count - elem_off);
      co_await smp_reduce_chunk_leader(
          t, tree, send, static_cast<std::byte*>(recv) + elem_off * esize, c,
          elem_off, elems, d, op);
    }
  }
  // Slot-parity bookkeeping, advanced identically on every rank.
  finish_reduce_bookkeeping(t, tree, nchunks, /*mapped=*/false, nullptr);
}

sim::CoTask Communicator::zoo_stream_to(machine::TaskCtx& t, int dst_node,
                                        const std::byte* src,
                                        std::size_t bytes, std::uint64_t& seq,
                                        std::uint64_t& org_inflight) {
  if (bytes == 0) co_return;
  NodeState& ns = node_state(t);
  lapi::Endpoint& my_ep = ep(t.rank);
  int me = t.node();
  Link& out = link(me, dst_node);
  Link& in = link(dst_node, me);
  int dst_leader = t.topo->master_of(dst_node);
  std::size_t nchunks = nz_chunks(bytes, cfg_.reduce_chunk);
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * cfg_.reduce_chunk;
    std::size_t len = std::min(cfg_.reduce_chunk, bytes - off);
    // Consume a landing-slot credit for this link, returned by the
    // receiver's combine (starts at 2: two chunks in flight per edge).
    co_await my_ep.wait_cntr(out.zoo_free, 1);
    co_await my_ep.put(ep(dst_leader), landing(dst_node, me, kZooLand, seq % 2),
                       src + off, len, &in.zoo_arr, ns.zoo_org.get());
    ++seq;
    ++org_inflight;
  }
}

sim::CoTask Communicator::zoo_recv_combine(machine::TaskCtx& t,
                                           int src_node, std::byte* dst,
                                           std::size_t bytes, coll::Dtype d,
                                           coll::RedOp op,
                                           std::uint64_t& seq) {
  if (bytes == 0) co_return;
  lapi::Endpoint& my_ep = ep(t.rank);
  int me = t.node();
  Link& in = link(me, src_node);
  Link& out = link(src_node, me);
  int src_leader = t.topo->master_of(src_node);
  std::size_t esize = coll::dtype_size(d);
  std::size_t nchunks = nz_chunks(bytes, cfg_.reduce_chunk);
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * cfg_.reduce_chunk;
    std::size_t len = std::min(cfg_.reduce_chunk, bytes - off);
    co_await my_ep.wait_cntr(in.zoo_arr, 1);
    const std::byte* land = landing(me, src_node, kZooLand, seq % 2);
    co_await t.nd->mem.charge_combine(static_cast<double>(len));
    chk::note_read(t.chk, land, len);
    chk::note_write(t.chk, dst + off, len);
    coll::combine(op, d, dst + off, land, len / esize);
    ++seq;
    // Return the slot credit to the sender's stream.
    co_await my_ep.put_signal(ep(src_leader), out.zoo_free);
  }
}

sim::CoTask Communicator::ring_allreduce(machine::TaskCtx& t,
                                         const void* send, void* recv,
                                         std::size_t count, coll::Dtype d,
                                         coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "allreduce.ring");
  chk::StageScope stage(t.chk, "allreduce.ring");
  std::size_t esize = coll::dtype_size(d);
  std::size_t bytes = count * esize;
  const coll::Tree& itree = trees().tree(cfg_.intranode_tree, t.nlocal(), 0);

  co_await zoo_node_reduce(t, itree, send, recv, count, d, op);

  int n = t.nnodes();
  int v = t.node();
  int succ = (v + 1) % n;
  int pred = (v + n - 1) % n;
  std::size_t rblk = (count + static_cast<std::size_t>(n) - 1) /
                     static_cast<std::size_t>(n);
  auto blo = [&](int i) {
    return std::min(count, static_cast<std::size_t>(i) * rblk);
  };
  auto blen = [&](int i) {  // bytes
    std::size_t hi = std::min(count, (static_cast<std::size_t>(i) + 1) * rblk);
    return (hi - blo(i)) * esize;
  };
  if (t.is_master() && n > 1) {
    NodeState& ns = node_state(t);
    lapi::Endpoint& my_ep = ep(t.rank);
    // The ring attributes arrivals to blocks by their order on the link
    // (one counter per peer). Interrupt-mode reception breaks that order —
    // an arrival taken via interrupt can be overtaken by a later one
    // processed at polling cost — so run the exchange in polled mode
    // (§2.3 management of LAPI interrupts); this is a correctness
    // requirement here, not the staged paths' latency tweak.
    my_ep.set_interrupts(false);
    auto* base = static_cast<std::byte*>(recv);
    std::uint64_t org_inflight = 0;
    std::uint64_t sent_seq = link_seq(t, succ).zoo_sent;
    std::uint64_t recv_seq = link_seq(t, pred).zoo_recvd;

    // Reduce-scatter: n-1 ring steps. The stream to the successor and the
    // combine of the predecessor's stream must run concurrently — a
    // sequential schedule would deadlock on the two-slot credits once a
    // block exceeds two chunks.
    for (int s = 0; s < n - 1; ++s) {
      int sb = (v - s + n) % n;      // block we forward
      int rb = (v - s - 1 + n) % n;  // block we combine
      auto snd = detail::spawn_joined(
          *t.eng, zoo_stream_to(t, succ, base + blo(sb) * esize, blen(sb),
                                sent_seq, org_inflight));
      auto rcv = detail::spawn_joined(
          *t.eng, zoo_recv_combine(t, pred, base + blo(rb) * esize, blen(rb),
                                   d, op, recv_seq));
      co_await snd->wait();
      co_await rcv->wait();
    }

    // The allgather overwrites blocks whose reduce-scatter puts may still
    // sit in the adapter: drain the origin counter first.
    if (org_inflight > 0) {
      co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
      org_inflight = 0;
    }

    // Allgather: announce the receive buffer to the predecessor (it puts
    // straight into our user memory), then circulate the owned blocks —
    // after the reduce-scatter, node v owns the fully reduced block v+1.
    bool incoming = false;
    for (int s = 0; s <= n - 2; ++s) {
      if (blen((v - s + n) % n) > 0) incoming = true;
    }
    if (incoming) {
      co_await announce_addr(t, &Link::zoo_addr, pred, t.topo->master_of(pred),
                             recv, ns.zoo_org.get(), org_inflight);
    }

    std::byte* succ_addr = nullptr;
    for (int s = 0; s <= n - 2; ++s) {
      int sb = (v + 1 - s + n) % n;  // block we own and forward
      int rb = (v - s + n) % n;      // block arriving from the predecessor
      if (blen(sb) > 0) {
        if (succ_addr == nullptr) {
          co_await await_addr(t, &Link::zoo_addr, succ, succ_addr);
        }
        co_await my_ep.put(ep(t.topo->master_of(succ)),
                           succ_addr + blo(sb) * esize, base + blo(sb) * esize,
                           blen(sb), &link(succ, v).zoo_got,
                           ns.zoo_org.get());
        ++org_inflight;
      }
      if (blen(rb) > 0) co_await my_ep.wait_cntr(link(v, pred).zoo_got, 1);
    }
    if (org_inflight > 0) {
      co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
    }
    my_ep.set_interrupts(true);
  }

  // Publish the full vector to the local tasks.
  co_await smp_publish(t, 0, recv, recv, bytes);

  // Streamed-chunk parity bookkeeping, advanced identically on every rank.
  if (n > 1) {
    std::uint64_t sent = 0;
    std::uint64_t recvd = 0;
    for (int s = 0; s < n - 1; ++s) {
      sent += nz_chunks(blen((v - s + n) % n), cfg_.reduce_chunk);
      recvd += nz_chunks(blen((pred - s + n) % n), cfg_.reduce_chunk);
    }
    link_seq(t, succ).zoo_sent += sent;
    link_seq(t, pred).zoo_recvd += recvd;
  }
}

sim::CoTask Communicator::rhalving_allreduce(machine::TaskCtx& t,
                                             const void* send, void* recv,
                                             std::size_t count, coll::Dtype d,
                                             coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "allreduce.rhalving");
  chk::StageScope stage(t.chk, "allreduce.rhalving");
  std::size_t esize = coll::dtype_size(d);
  std::size_t bytes = count * esize;
  const coll::Tree& itree = trees().tree(cfg_.intranode_tree, t.nlocal(), 0);

  co_await zoo_node_reduce(t, itree, send, recv, count, d, op);

  int n = t.nnodes();
  int v = t.node();

  if (t.is_master() && n > 1) {
    NodeState& ns = node_state(t);
    lapi::Endpoint& my_ep = ep(t.rank);
    // Per-peer counters attribute arrivals by link order; keep reception
    // polled so that order is FIFO (see ring_allreduce).
    my_ep.set_interrupts(false);
    auto* base = static_cast<std::byte*>(recv);
    std::uint64_t org_inflight = 0;
    std::vector<std::byte> scratch(bytes);

    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    int rem = n - pof2;

    auto node_of = [&](int w) { return w < rem ? w * 2 + 1 : w + rem; };
    // Advertise @p addr to @p peer. Announcements double as flow control: a
    // peer may not put until we re-advertised (i.e. finished reusing) the
    // target memory.
    auto announce = [&](int peer, void* addr) {
      return announce_addr(t, &Link::zoo_addr, peer, t.topo->master_of(peer),
                           addr, ns.zoo_org.get(), org_inflight);
    };
    // Put [src, src+len) at offset @p off of the buffer @p peer last
    // advertised, once the advertisement arrived.
    auto direct_put = [&](int peer, std::size_t off, const std::byte* src,
                          std::size_t len) -> sim::CoTask {
      std::byte* dst = nullptr;
      co_await await_addr(t, &Link::zoo_addr, peer, dst);
      co_await my_ep.put(ep(t.topo->master_of(peer)),
                         dst + off, src, len, &link(peer, v).zoo_got,
                         ns.zoo_org.get());
      ++org_inflight;
    };

    // Fold to the nearest power of two: the first 2*rem nodes pair up,
    // evens push their vector to the odd partner and drop out.
    int w;
    if (v < 2 * rem) {
      if (v % 2 == 0) {
        if (bytes > 0) co_await direct_put(v + 1, 0, base, bytes);
        w = -1;
      } else {
        if (bytes > 0) {
          co_await announce(v - 1, scratch.data());
          co_await my_ep.wait_cntr(link(v, v - 1).zoo_got, 1);
          co_await t.nd->mem.charge_combine(static_cast<double>(bytes));
          chk::note_read(t.chk, scratch.data(), bytes);
          chk::note_write(t.chk, base, bytes);
          coll::combine(op, d, base, scratch.data(), count);
        }
        w = v / 2;
      }
    } else {
      w = v - rem;
    }

    int nrounds = 0;
    while ((1 << (nrounds + 1)) <= pof2) ++nrounds;

    if (w != -1) {
      // Reduce-scatter by recursive halving: each round swaps half of the
      // active range with the partner and combines the kept half. Partners
      // share the same active range (their relabeled ranks differ only in
      // the round's bit), so both derive the split identically.
      std::size_t lo = 0;
      std::size_t hi = count;
      std::vector<std::size_t> rlo(static_cast<std::size_t>(nrounds));
      std::vector<std::size_t> rhi(static_cast<std::size_t>(nrounds));
      for (int r = 0; r < nrounds; ++r) {
        int pnode = node_of(w ^ (1 << r));
        auto ri = static_cast<std::size_t>(r);
        rlo[ri] = lo;
        rhi[ri] = hi;
        std::size_t half = (hi - lo + 1) / 2;  // lower-half length
        std::size_t slo;                       // range we give up
        std::size_t shi;
        if ((w & (1 << r)) == 0) {  // keep lower, send upper
          slo = lo + half;
          shi = hi;
          hi = lo + half;
        } else {  // keep upper, send lower
          slo = lo;
          shi = lo + half;
          lo = lo + half;
        }
        std::size_t keep_b = (hi - lo) * esize;
        std::size_t send_b = (shi - slo) * esize;
        if (keep_b > 0) co_await announce(pnode, scratch.data());
        if (send_b > 0) {
          co_await direct_put(pnode, 0, base + slo * esize, send_b);
        }
        if (keep_b > 0) {
          co_await my_ep.wait_cntr(link(v, pnode).zoo_got, 1);
          co_await t.nd->mem.charge_combine(static_cast<double>(keep_b));
          chk::note_read(t.chk, scratch.data(), keep_b);
          chk::note_write(t.chk, base + lo * esize, keep_b);
          coll::combine(op, d, base + lo * esize, scratch.data(), hi - lo);
        }
      }

      // Incoming allgather puts overwrite ranges whose reduce-scatter puts
      // may still sit in the adapter: drain the origin counter between the
      // phases.
      if (org_inflight > 0) {
        co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
        org_inflight = 0;
      }

      // Allgather by recursive doubling: undo the rounds in reverse,
      // swapping whole ranges by direct puts into each other's receive
      // buffers at matching offsets.
      for (int r = nrounds - 1; r >= 0; --r) {
        int pnode = node_of(w ^ (1 << r));
        auto ri = static_cast<std::size_t>(r);
        std::size_t mine_b = (hi - lo) * esize;
        std::size_t peer_b = (rhi[ri] - rlo[ri]) * esize - mine_b;
        if (peer_b > 0) co_await announce(pnode, recv);
        if (mine_b > 0) {
          co_await direct_put(pnode, lo * esize, base + lo * esize, mine_b);
        }
        if (peer_b > 0) co_await my_ep.wait_cntr(link(v, pnode).zoo_got, 1);
        lo = rlo[ri];
        hi = rhi[ri];
      }

      // Unfold: hand the full vector back to the folded-out even partner.
      if (w < rem && bytes > 0) {
        co_await direct_put(node_of(w) - 1, 0, base, bytes);
      }
    } else {
      // Folded out: drain the fold put (the unfold overwrites its source),
      // announce the receive buffer, and wait for the final vector.
      if (org_inflight > 0) {
        co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
        org_inflight = 0;
      }
      if (bytes > 0) {
        co_await announce(v + 1, recv);
        co_await my_ep.wait_cntr(link(v, v + 1).zoo_got, 1);
      }
    }

    if (org_inflight > 0) {
      co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
    }
    my_ep.set_interrupts(true);
  }

  co_await smp_publish(t, 0, recv, recv, bytes);
}

sim::CoTask Communicator::bcast_scatter_ag(machine::TaskCtx& t, void* buf,
                                           std::size_t bytes,
                                           const coll::Embedding& emb) {
  obs::Span span(*t.obs, t.rank, "bcast.scatter_ag");
  chk::StageScope stage(t.chk, "bcast.scatter_ag");
  int n = t.nnodes();
  int v = t.node();
  int leader = emb.leader(v);
  int leader_local = t.topo->local_of(leader);
  auto* base = static_cast<std::byte*>(buf);

  if (n == 1) {
    co_await smp_publish(t, leader_local, buf, buf, bytes);
    co_return;
  }

  int root_node = emb.internode.root;
  int succ = (v + 1) % n;
  int pred = (v + n - 1) % n;
  std::size_t rblk =
      (bytes + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
  auto blo = [&](int i) {
    return std::min(bytes, static_cast<std::size_t>(i) * rblk);
  };
  auto blen = [&](int i) {
    std::size_t hi = std::min(bytes, (static_cast<std::size_t>(i) + 1) * rblk);
    return hi - blo(i);
  };

  if (t.rank != leader) {
    // Consumers follow the leader's publish schedule: own block first, then
    // the ring arrivals in order.
    for (int s = 0; s < n; ++s) {
      int b = (v - s + n) % n;
      if (blen(b) == 0) continue;
      co_await smp_publish(t, leader_local, nullptr, base + blo(b), blen(b));
    }
    co_return;
  }

  NodeState& ns = node_state(t);
  lapi::Endpoint& my_ep = ep(t.rank);
  // The scatter and ring arrivals are attributed to blocks purely by link
  // order; polled reception keeps processing FIFO (see ring_allreduce).
  my_ep.set_interrupts(false);
  std::uint64_t org_inflight = 0;
  // The root holds the whole message and re-injects blocks from its own
  // buffer; its predecessor therefore sends nothing around the ring.
  bool send_ring = succ != root_node;

  std::byte* succ_addr = nullptr;
  auto forward = [&](int b) -> sim::CoTask {
    if (succ_addr == nullptr) {
      co_await await_addr(t, &Link::zoo_addr, succ, succ_addr);
    }
    co_await my_ep.put(ep(emb.leader(succ)),
                       succ_addr + blo(b), base + blo(b), blen(b),
                       &link(succ, v).zoo_got, ns.zoo_org.get());
    ++org_inflight;
  };

  if (v == root_node) {
    // Scatter: one direct put per node block, into the announced buffers.
    // Arrival rides zoo_arr so ring traffic (zoo_got) cannot satisfy the
    // scatter wait on the receiving side.
    for (int i = 0; i < n; ++i) {
      if (i == root_node || blen(i) == 0) continue;
      std::byte* dst = nullptr;
      co_await await_addr(t, &Link::zoo_addr, i, dst);
      co_await my_ep.put(ep(emb.leader(i)),
                         dst + blo(i), base + blo(i), blen(i),
                         &link(i, v).zoo_arr, ns.zoo_org.get());
      ++org_inflight;
    }
    // Ring re-injection: send block (root - s) to the successor at step s,
    // publishing each block locally in the same order.
    for (int s = 0; s < n; ++s) {
      int b = (v - s + n) % n;
      if (blen(b) == 0) continue;
      if (send_ring && s <= n - 2) co_await forward(b);
      co_await smp_publish(t, leader_local, base + blo(b), base + blo(b),
                           blen(b));
    }
  } else {
    // Announce the buffer to whoever puts into it: the predecessor (ring)
    // and the root (scatter) — only when a nonzero transfer will happen, so
    // the address-arrival counters stay balanced. When the predecessor is
    // the root, it consumes both announcements from the same cell.
    bool incoming = false;
    for (int b = 0; b < n; ++b) {
      if (b != v && blen(b) > 0) incoming = true;
    }
    if (incoming) {
      co_await announce_addr(t, &Link::zoo_addr, pred, emb.leader(pred), buf,
                             ns.zoo_org.get(), org_inflight);
    }
    if (blen(v) > 0) {
      co_await announce_addr(t, &Link::zoo_addr, root_node,
                             emb.leader(root_node), buf, ns.zoo_org.get(),
                             org_inflight);
    }

    // Step 0: wait for the scatter block, forward it, publish it.
    if (blen(v) > 0) {
      co_await my_ep.wait_cntr(link(v, root_node).zoo_arr, 1);
      if (send_ring) co_await forward(v);
      co_await smp_publish(t, leader_local, base + blo(v), base + blo(v),
                           blen(v));
    }
    // Ring arrivals: block (v - s) lands at step s; forward it (unless we
    // feed the root) and publish it.
    for (int s = 1; s < n; ++s) {
      int b = (v - s + n) % n;
      if (blen(b) == 0) continue;
      co_await my_ep.wait_cntr(link(v, pred).zoo_got, 1);
      if (send_ring && s <= n - 2) co_await forward(b);
      co_await smp_publish(t, leader_local, base + blo(b), base + blo(b),
                           blen(b));
    }
  }

  if (org_inflight > 0) {
    co_await my_ep.wait_cntr(*ns.zoo_org, org_inflight);
  }
  my_ep.set_interrupts(true);
}

}  // namespace srm
