#include "mpi/comm.hpp"

#include <algorithm>
#include <cstring>

#include "coll/tree.hpp"

namespace srm::minimpi {

namespace {
/// Tag space reserved for collective internals.
constexpr int kCollTagBase = 1 << 20;
}  // namespace

// ---------------------------------------------------------------------------
// Receiver-side structures
// ---------------------------------------------------------------------------

/// Bounded chunk queue modelling the intra-node shared-memory channel.
struct Comm::ShmPipe {
  ShmPipe(sim::Engine& eng, std::size_t chunk_, int slots_)
      : chunk(chunk_), slots(slots_), wq(eng, "mpi.shm_pipe") {}
  std::size_t chunk;
  int slots;
  std::deque<std::vector<std::byte>> full;  // written, not yet drained
  sim::WaitQueue wq;
};

/// Shared rendezvous handshake state.
struct Comm::RndvState {
  explicit RndvState(sim::Engine& eng)
      : cts(eng, "mpi.rndv.cts"), data_done(eng, "mpi.rndv.data") {}
  void* rbuf = nullptr;
  sim::Trigger cts;        // fired at the sender when CTS arrives
  sim::Trigger data_done;  // fired at the receiver when data is deposited
};

Comm::Comm(World& world, machine::TaskCtx& ctx)
    : world_(&world),
      ctx_(&ctx),
      mp_(&world.profile()),
      shm_ctr_(ctx.obs != nullptr ? &ctx.obs->counter("mpi.send.shm", ctx.rank)
                                  : nullptr),
      eager_ctr_(ctx.obs != nullptr
                     ? &ctx.obs->counter("mpi.send.eager", ctx.rank)
                     : nullptr),
      rndv_ctr_(ctx.obs != nullptr
                    ? &ctx.obs->counter("mpi.send.rndv", ctx.rank)
                    : nullptr),
      arrival_wq_(*ctx.eng, "mpi.arrivals@" + std::to_string(ctx.rank)) {}

void Comm::enqueue(Envelope env) {
  arrived_.push_back(std::move(env));
  arrival_wq_.notify();
}

std::shared_ptr<chk::MsgClock> Comm::hb_fork() {
  if (!chk::on(ctx_->chk)) return nullptr;
  return std::make_shared<chk::MsgClock>(
      ctx_->chk.checker->fork(ctx_->chk.actor));
}

void Comm::hb_acquire(const std::shared_ptr<chk::MsgClock>& m) {
  if (m != nullptr && chk::on(ctx_->chk)) {
    ctx_->chk.checker->acquire_msg(ctx_->chk.actor, *m, "mpi.recv");
  }
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

sim::CoTask Comm::send(int dst, int tag, const void* buf, std::size_t bytes) {
  SRM_CHECK(dst >= 0 && dst < nranks());
  SRM_CHECK(tag >= 0);
  co_await ctx_->delay(mp_->call_overhead);
  Comm& target = world_->comm(dst);
  if (ctx_->topo->same_node(rank(), dst)) {
    if (shm_ctr_ != nullptr) shm_ctr_->add(static_cast<double>(bytes));
    co_await send_shm(target, tag, buf, bytes);
  } else if (bytes <= world_->eager_limit()) {
    if (eager_ctr_ != nullptr) eager_ctr_->add(static_cast<double>(bytes));
    co_await send_eager(target, tag, buf, bytes);
  } else {
    if (rndv_ctr_ != nullptr) rndv_ctr_->add(static_cast<double>(bytes));
    co_await send_rndv(target, tag, buf, bytes);
  }
}

sim::CoTask Comm::send_shm(Comm& dst, int tag, const void* buf,
                           std::size_t bytes) {
  auto pipe = std::make_shared<ShmPipe>(*ctx_->eng, mp_->shm_chunk,
                                        mp_->shm_slots);
  // The envelope (header in shared memory) becomes visible to the receiver
  // after one cache-line propagation.
  Envelope env{rank(), tag, bytes, Envelope::Kind::shm, pipe, {}, {}, {}};
  env.hb = hb_fork();
  Comm* target = &dst;
  ctx_->eng->call_at(ctx_->eng->now() + ctx_->P->mem.flag_propagation,
                     [target, env = std::move(env)]() mutable {
                       target->enqueue(std::move(env));
                     });
  // Pipelined copy into bounded shm slots (first of the two copies).
  const std::byte* src = static_cast<const std::byte*>(buf);
  std::size_t off = 0;
  do {
    std::size_t len = std::min(pipe->chunk, bytes - off);
    co_await pipe->wq.wait_until([&pipe] {
      return static_cast<int>(pipe->full.size()) < pipe->slots;
    });
    co_await ctx_->delay(mp_->shm_per_chunk);
    co_await ctx_->nd->mem.charge_copy(static_cast<double>(len));
    pipe->full.emplace_back(src + off, src + off + len);
    pipe->wq.notify();
    off += len;
  } while (off < bytes);
}

sim::CoTask Comm::send_eager(Comm& dst, int tag, const void* buf,
                             std::size_t bytes) {
  co_await ctx_->delay(ctx_->P->net.o_send + mp_->layer_overhead);
  // The NIC reads the user buffer during injection (no origin copy charge);
  // staging the real bytes models the data leaving the sender's control.
  Envelope env{rank(), tag, bytes, Envelope::Kind::eager, {}, {}, {}, {}};
  env.hb = hb_fork();
  const std::byte* p = static_cast<const std::byte*>(buf);
  env.staged.assign(p, p + bytes);
  Comm* target = &dst;
  auto res = ctx_->cluster->network().inject(
      ctx_->node(), dst.ctx_->node(), static_cast<double>(bytes),
      [target, env = std::move(env)]() mutable {
        target->enqueue(std::move(env));
      });
  // Blocking send returns when the buffer has fully left the NIC.
  sim::Trigger injected(*ctx_->eng);
  ctx_->eng->call_at(res.egress_end, [&injected] { injected.fire(); });
  co_await injected.wait();
}

sim::CoTask Comm::send_rndv(Comm& dst, int tag, const void* buf,
                            std::size_t bytes) {
  co_await ctx_->delay(ctx_->P->net.o_send + mp_->layer_overhead);
  auto st = std::make_shared<RndvState>(*ctx_->eng);
  // RTS: header-only control message.
  Envelope env{rank(), tag, bytes, Envelope::Kind::rts, {}, {}, st, {}};
  env.hb = hb_fork();
  Comm* target = &dst;
  ctx_->cluster->network().inject(ctx_->node(), dst.ctx_->node(), 64.0,
                                  [target, env = std::move(env)]() mutable {
                                    target->enqueue(std::move(env));
                                  });
  co_await st->cts.wait();
  // CTS carries the posted receive buffer: stream data straight into it.
  co_await ctx_->delay(ctx_->P->net.o_send);
  void* rbuf = st->rbuf;
  // The user buffer is reusable when send() returns (egress complete), so
  // snapshot it then; the deposit reads the snapshot.
  auto staging = std::make_shared<std::vector<std::byte>>();
  auto res = ctx_->cluster->network().inject(
      ctx_->node(), dst.ctx_->node(), static_cast<double>(bytes),
      [st, rbuf, staging, bytes] {
        if (bytes > 0) std::memcpy(rbuf, staging->data(), bytes);
        st->data_done.fire();
      });
  // Snapshot and unblock in ONE event: if these were two same-timestamp
  // events, a perturbed tie-break could resume the sender (which may free
  // or overwrite the buffer) before the snapshot reads it.
  const std::byte* sp = static_cast<const std::byte*>(buf);
  sim::Trigger injected(*ctx_->eng);
  ctx_->eng->call_at(res.egress_end, [staging, sp, bytes, &injected] {
    staging->assign(sp, sp + bytes);
    injected.fire();
  });
  co_await injected.wait();
}

sim::CoTask Comm::recv(int src, int tag, void* buf, std::size_t bytes) {
  SRM_CHECK(src == kAnySource || (src >= 0 && src < nranks()));
  co_await ctx_->delay(mp_->call_overhead);
  auto matches = [this, src, tag](const Envelope& e) {
    return (src == kAnySource || e.src == src) &&
           (tag == kAnyTag || e.tag == tag);
  };
  std::size_t idx = 0;
  co_await arrival_wq_.wait_until(
      [this, &matches, &idx] {
        for (std::size_t i = 0; i < arrived_.size(); ++i) {
          if (matches(arrived_[i])) {
            idx = i;
            return true;
          }
        }
        return false;
      },
      ctx_->rank);
  // Tag matching: one queue probe per envelope examined before the match.
  co_await ctx_->delay(mp_->match_cost * (idx + 1));
  Envelope env = std::move(arrived_[idx]);
  arrived_.erase(arrived_.begin() + static_cast<std::ptrdiff_t>(idx));
  SRM_CHECK_MSG(env.bytes == bytes, "receive size mismatch: posted "
                                        << bytes << ", matched " << env.bytes);

  switch (env.kind) {
    case Envelope::Kind::shm: {
      // Second copy of the 2-copy shm channel: slots -> user buffer.
      std::byte* dstp = static_cast<std::byte*>(buf);
      std::size_t off = 0;
      auto& pipe = *env.pipe;
      do {
        co_await pipe.wq.wait_until([&pipe] { return !pipe.full.empty(); });
        auto chunk = std::move(pipe.full.front());
        pipe.full.pop_front();
        pipe.wq.notify();
        co_await ctx_->delay(mp_->shm_per_chunk);
        co_await ctx_->nd->mem.charge_copy(static_cast<double>(chunk.size()));
        // A zero-byte message still moves one (empty) chunk and pays its
        // charge, but has no buffer to copy between.
        if (!chunk.empty()) {
          std::memcpy(dstp + off, chunk.data(), chunk.size());
        }
        off += chunk.size();
      } while (off < bytes);
      break;
    }
    case Envelope::Kind::eager: {
      // Layered receive path plus the eager staging -> user copy.
      co_await ctx_->delay(mp_->layer_overhead);
      if (bytes > 0) {
        co_await ctx_->nd->mem.charge_copy(static_cast<double>(bytes));
        std::memcpy(buf, env.staged.data(), bytes);
      }
      break;
    }
    case Envelope::Kind::rts: {
      co_await ctx_->delay(mp_->rndv_post_cost + mp_->layer_overhead);
      env.rndv->rbuf = buf;
      co_await ctx_->delay(ctx_->P->net.o_send);
      auto st = env.rndv;
      ctx_->cluster->network().inject(ctx_->node(),
                                      world_->comm(env.src).ctx_->node(), 64.0,
                                      [st] { st->cts.fire(); });
      co_await st->data_done.wait();
      break;
    }
  }
  // Happens-before: matching + data deposit complete — the receiver has
  // observed everything the sender did before this send.
  hb_acquire(env.hb);
}

namespace {
sim::CoTask isend_body(Comm* self, int dst, int tag, const void* buf,
                       std::size_t bytes, std::shared_ptr<sim::Trigger> done) {
  co_await self->send(dst, tag, buf, bytes);
  done->fire();
}
sim::CoTask irecv_body(Comm* self, int src, int tag, void* buf,
                       std::size_t bytes, std::shared_ptr<sim::Trigger> done) {
  co_await self->recv(src, tag, buf, bytes);
  done->fire();
}
}  // namespace

Request Comm::isend(int dst, int tag, const void* buf, std::size_t bytes) {
  auto done = std::make_shared<sim::Trigger>(*ctx_->eng);
  ctx_->eng->spawn(isend_body(this, dst, tag, buf, bytes, done));
  return Request{done};
}

Request Comm::irecv(int src, int tag, void* buf, std::size_t bytes) {
  auto done = std::make_shared<sim::Trigger>(*ctx_->eng);
  ctx_->eng->spawn(irecv_body(this, src, tag, buf, bytes, done));
  return Request{done};
}

sim::CoTask Comm::wait(Request req) {
  SRM_CHECK(req.done != nullptr);
  co_await req.done->wait();
}

sim::CoTask Comm::sendrecv(int dst, int stag, const void* sbuf,
                           std::size_t sbytes, int src, int rtag, void* rbuf,
                           std::size_t rbytes) {
  Request s = isend(dst, stag, sbuf, sbytes);
  co_await recv(src, rtag, rbuf, rbytes);
  co_await wait(std::move(s));
}

// ---------------------------------------------------------------------------
// Collectives (MPICH-era algorithms over point-to-point)
// ---------------------------------------------------------------------------

sim::CoTask Comm::bcast(void* buf, std::size_t bytes, int root) {
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  const coll::Tree& tree =
      world_->trees().tree(coll::TreeKind::binomial, nranks(), root);
  int me = rank();
  int parent = tree.parent[static_cast<std::size_t>(me)];
  if (parent != -1) {
    co_await recv(parent, tag, buf, bytes);
  }
  // Forward to the largest subtree first.
  const auto& kids = tree.children[static_cast<std::size_t>(me)];
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    co_await send(*it, tag, buf, bytes);
  }
}

sim::CoTask Comm::reduce(const void* send_buf, void* recv_buf,
                         std::size_t count, coll::Dtype d, coll::RedOp op,
                         int root) {
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  std::size_t bytes = count * coll::dtype_size(d);
  const coll::Tree& tree =
      world_->trees().tree(coll::TreeKind::binomial, nranks(), root);
  int me = rank();

  // Accumulator: the recv buffer at the root, a temporary elsewhere.
  std::vector<std::byte> local;
  void* accum;
  if (me == root) {
    accum = recv_buf;
  } else {
    local.resize(bytes);
    accum = local.data();
  }
  co_await ctx_->nd->mem.charge_copy(static_cast<double>(bytes));
  std::memcpy(accum, send_buf, bytes);

  // Children arrive smallest-subtree-first (construction order).
  std::vector<std::byte> tmp(bytes);
  for (int child : tree.children[static_cast<std::size_t>(me)]) {
    co_await recv(child, tag, tmp.data(), bytes);
    co_await ctx_->nd->mem.charge_combine(static_cast<double>(bytes));
    coll::combine(op, d, accum, tmp.data(), count);
  }
  int parent = tree.parent[static_cast<std::size_t>(me)];
  if (parent != -1) {
    co_await send(parent, tag, accum, bytes);
  }
}

sim::CoTask Comm::allreduce(const void* send_buf, void* recv_buf,
                            std::size_t count, coll::Dtype d,
                            coll::RedOp op) {
  std::size_t bytes = count * coll::dtype_size(d);
  // Era-accurate algorithm switch: recursive doubling for small payloads
  // (log P rounds of full-size exchanges are prohibitive for large ones),
  // reduce followed by broadcast beyond — MPICH-1 used reduce+bcast at
  // every size.
  if (bytes > mp_->allreduce_rd_max) {
    co_await reduce(send_buf, recv_buf, count, d, op, 0);
    co_await bcast(recv_buf, bytes, 0);
    co_return;
  }
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  int n = nranks();
  int me = rank();

  co_await ctx_->nd->mem.charge_copy(static_cast<double>(bytes));
  std::memcpy(recv_buf, send_buf, bytes);

  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  int rem = n - pof2;

  std::vector<std::byte> tmp(bytes);
  // Fold phase: the first 2*rem ranks pair up; evens push their data to the
  // odd partner and sit out the recursive doubling.
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await send(me + 1, tag, recv_buf, bytes);
      newrank = -1;
    } else {
      co_await recv(me - 1, tag, tmp.data(), bytes);
      co_await ctx_->nd->mem.charge_combine(static_cast<double>(bytes));
      coll::combine(op, d, recv_buf, tmp.data(), count);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      int newdst = newrank ^ mask;
      int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      co_await sendrecv(dst, tag, recv_buf, bytes, dst, tag, tmp.data(),
                        bytes);
      co_await ctx_->nd->mem.charge_combine(static_cast<double>(bytes));
      coll::combine(op, d, recv_buf, tmp.data(), count);
    }
  }

  // Unfold: odd partners return the final result to the evens.
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await recv(me + 1, tag, recv_buf, bytes);
    } else {
      co_await send(me - 1, tag, recv_buf, bytes);
    }
  }
}

sim::CoTask Comm::barrier() {
  // MPICH-1-era barrier: zero-byte binomial gather to rank 0 followed by a
  // zero-byte binomial release (the dissemination/recursive-doubling
  // barrier only reached mainstream MPI implementations with MPICH2).
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  const coll::Tree& tree =
      world_->trees().tree(coll::TreeKind::binomial, nranks(), 0);
  int me = rank();
  int parent = tree.parent[static_cast<std::size_t>(me)];
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  for (int child : kids) {
    co_await recv(child, tag, nullptr, 0);
  }
  if (parent != -1) {
    co_await send(parent, tag, nullptr, 0);
    co_await recv(parent, tag, nullptr, 0);
  }
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    co_await send(*it, tag, nullptr, 0);
  }
}

sim::CoTask Comm::scatter(const void* sendbuf, void* recvbuf,
                          std::size_t bytes_per, int root) {
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  int me = rank();
  if (me == root) {
    const std::byte* sp = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < nranks(); ++r) {
      if (r == root) continue;
      co_await send(r, tag, sp + static_cast<std::size_t>(r) * bytes_per,
                    bytes_per);
    }
    co_await ctx_->nd->mem.charge_copy(static_cast<double>(bytes_per));
    std::memcpy(recvbuf, sp + static_cast<std::size_t>(root) * bytes_per,
                bytes_per);
  } else {
    co_await recv(root, tag, recvbuf, bytes_per);
  }
}

sim::CoTask Comm::gather(const void* sendbuf, void* recvbuf,
                         std::size_t bytes_per, int root) {
  int tag = kCollTagBase + static_cast<int>(coll_seq_++ & 0xffff);
  int me = rank();
  if (me == root) {
    std::byte* rp = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < nranks(); ++r) {
      if (r == root) continue;
      co_await recv(r, tag, rp + static_cast<std::size_t>(r) * bytes_per,
                    bytes_per);
    }
    co_await ctx_->nd->mem.charge_copy(static_cast<double>(bytes_per));
    std::memcpy(rp + static_cast<std::size_t>(root) * bytes_per, sendbuf,
                bytes_per);
  } else {
    co_await send(root, tag, sendbuf, bytes_per);
  }
}

// ---------------------------------------------------------------------------
// World: the Collectives face — forward to the calling rank's Comm under an
// "mpi.*" span.
// ---------------------------------------------------------------------------

sim::CoTask World::v_bcast(machine::TaskCtx& t, coll::Buf buf, int root) {
  obs::Span span(*t.obs, t.rank, "mpi.bcast");
  co_await comm(t.rank).bcast(buf.data, buf.block_bytes(), root);
}

sim::CoTask World::v_reduce(machine::TaskCtx& t, coll::Buf send,
                            coll::Buf recv, coll::RedOp op, int root) {
  obs::Span span(*t.obs, t.rank, "mpi.reduce");
  co_await comm(t.rank).reduce(send.data, recv.data, send.count, send.dtype,
                               op, root);
}

sim::CoTask World::v_allreduce(machine::TaskCtx& t, coll::Buf send,
                               coll::Buf recv, coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "mpi.allreduce");
  co_await comm(t.rank).allreduce(send.data, recv.data, send.count,
                                  send.dtype, op);
}

sim::CoTask World::v_barrier(machine::TaskCtx& t) {
  obs::Span span(*t.obs, t.rank, "mpi.barrier");
  co_await comm(t.rank).barrier();
}

sim::CoTask World::v_scatter(machine::TaskCtx& t, coll::Buf send,
                             coll::Buf recv, int root) {
  obs::Span span(*t.obs, t.rank, "mpi.scatter");
  co_await comm(t.rank).scatter(send.data, recv.data, recv.block_bytes(),
                                root);
}

sim::CoTask World::v_gather(machine::TaskCtx& t, coll::Buf send,
                            coll::Buf recv, int root) {
  obs::Span span(*t.obs, t.rank, "mpi.gather");
  co_await comm(t.rank).gather(send.data, recv.data, send.block_bytes(),
                               root);
}

// ---------------------------------------------------------------------------

World::World(machine::Cluster& cluster, const machine::MpiParams& profile,
             std::string name)
    // Symbolic cost skeleton: every hop pays the MPI software stack
    // (per-call + MPL/MPCI layering) as its per-message overhead; movement
    // pipelines at the same default granularity the SRM plane uses.
    : coll::Collectives(
          cluster,
          coll::sym::Profile{profile.call_overhead + profile.layer_overhead,
                             64 * 1024},
          "mpi"),
      cluster_(&cluster),
      profile_(profile),
      name_(std::move(name)),
      eager_limit_(machine::MachineParams::eager_limit(
          profile, cluster.topology().nranks())) {
  // Comms materialize lazily via comm() — a symbolic mega-scale World must
  // not pay per-rank point-to-point state for ranks that never message.
  comms_.resize(static_cast<std::size_t>(cluster.topology().nranks()));
}

}  // namespace srm::minimpi
