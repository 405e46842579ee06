#include "core/communicator.hpp"

#include <cstdlib>

#include "util/align.hpp"

namespace srm {

namespace {

/// Minimal JSON string escaping for the span args (paths may carry
/// backslashes on exotic setups; quotes are the only realistic hazard).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

ResolvedTable resolve_table(const SrmConfig& cfg, std::string_view profile) {
  if (!cfg.decisions.empty()) {
    return {cfg.decisions, "config", cfg.decisions.profile};
  }
  if (const char* env = std::getenv("SRM_DECISIONS");
      env != nullptr && env[0] != '\0') {
    return {coll::DecisionTable::load(env), "env", env};
  }
  if (const coll::DecisionTable* bt = coll::DecisionTable::builtin(profile)) {
    return {*bt, "builtin", std::string(profile)};
  }
  return {coll::DecisionTable::ibm_sp(), "builtin", "ibm_sp"};
}

Communicator::NodeState::NodeState(sim::Engine& eng,
                                   const machine::MemoryParams& mp,
                                   const machine::Topology& topo,
                                   const SrmConfig& cfg, bool zoo,
                                   shm::Segment& seg,
                                   const std::string& prefix)
    : nlocal(topo.tasks_per_node()), nnodes(topo.nodes()) {
  auto counter = [&eng, &prefix](const std::string& label) {
    return std::make_unique<lapi::Counter>(eng, prefix + "/" + label);
  };

  // --- SMP broadcast buffers + READY flags (Fig. 3) ---
  for (int b = 0; b < 2; ++b) {
    bc_buf[static_cast<std::size_t>(b)] =
        seg.buffer(prefix + "/bc_buf" + std::to_string(b), cfg.smp_buf_bytes);
    bc_ready[static_cast<std::size_t>(b)] = std::make_unique<shm::FlagArray>(
        eng, mp, nlocal, 0, prefix + "/bc_ready" + std::to_string(b));
  }

  // --- SMP reduce slots + chunk counters ---
  for (int s = 0; s < 2; ++s) {
    auto& slots = red_slot[static_cast<std::size_t>(s)];
    slots.reserve(static_cast<std::size_t>(nlocal));
    for (int l = 0; l < nlocal; ++l) {
      slots.push_back(seg.buffer(
          prefix + "/red_slot" + std::to_string(s) + "_" + std::to_string(l),
          cfg.reduce_chunk));
    }
  }
  red_published = std::make_unique<shm::FlagArray>(eng, mp, nlocal, 0,
                                                   prefix + "/red_published");
  for (int s2 = 0; s2 < 2; ++s2) {
    red_consumed[static_cast<std::size_t>(s2)] =
        std::make_unique<shm::FlagArray>(
            eng, mp, nlocal, 0, prefix + "/red_consumed" + std::to_string(s2));
  }

  // --- SMP barrier flags ---
  bar_flag = std::make_unique<shm::FlagArray>(eng, mp, nlocal, 0,
                                              prefix + "/bar_flag");

  // --- broadcast network state (per link, see header) ---
  bc_land.resize(static_cast<std::size_t>(nnodes));
  bc_arrived.resize(static_cast<std::size_t>(nnodes));
  bc_free.resize(static_cast<std::size_t>(nnodes));
  for (int p = 0; p < nnodes; ++p) {
    for (int s = 0; s < 2; ++s) {
      bc_land[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)] =
          seg.buffer(prefix + "/bc_land" + std::to_string(p) + "_" +
                         std::to_string(s),
                     cfg.smp_buf_bytes);
      std::string link = std::to_string(p) + "_" + std::to_string(s);
      bc_arrived[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)] =
          counter("bc_arrived" + link);
      auto& cr =
          bc_free[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
      cr = counter("bc_free" + link);
      cr->set(1);  // both remote landing buffers start free
    }
  }
  bc_addr.assign(static_cast<std::size_t>(nnodes), nullptr);
  bc_addr_arrived.resize(static_cast<std::size_t>(nnodes));
  bc_large_arrived.resize(static_cast<std::size_t>(nnodes));
  for (int p = 0; p < nnodes; ++p) {
    bc_addr_arrived[static_cast<std::size_t>(p)] =
        counter("bc_addr_arrived" + std::to_string(p));
    bc_large_arrived[static_cast<std::size_t>(p)] =
        counter("bc_large_arrived" + std::to_string(p));
  }

  // --- reduce network state ---
  red_land.resize(static_cast<std::size_t>(nnodes));
  red_arrived.resize(static_cast<std::size_t>(nnodes));
  for (int c = 0; c < nnodes; ++c) {
    for (int s = 0; s < 2; ++s) {
      red_land[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
          seg.buffer(prefix + "/red_land" + std::to_string(c) + "_" +
                         std::to_string(s),
                     cfg.reduce_chunk);
    }
    red_arrived[static_cast<std::size_t>(c)] =
        counter("red_arrived" + std::to_string(c));
  }
  red_free = counter("red_free");
  red_free->set(2);  // two landing slots at the parent start free
  for (int s = 0; s < 2; ++s) {
    red_out[static_cast<std::size_t>(s)] = seg.buffer(
        prefix + "/red_out" + std::to_string(s), cfg.reduce_chunk);
  }
  red_out_org = counter("red_out_org");

  // --- allreduce recursive-doubling state ---
  int rounds = nnodes > 1 ? util::log2_ceil(static_cast<unsigned>(nnodes)) : 0;
  ar_buf.resize(static_cast<std::size_t>(rounds));
  ar_arrived.resize(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < 2; ++p) {
      ar_buf[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)] =
          seg.buffer(prefix + "/ar_buf" + std::to_string(r) + "_" +
                         std::to_string(p),
                     cfg.reduce_chunk);
    }
    ar_arrived[static_cast<std::size_t>(r)] =
        counter("ar_arrived" + std::to_string(r));
  }
  for (int p = 0; p < 2; ++p) {
    ar_fold_in[static_cast<std::size_t>(p)] = seg.buffer(
        prefix + "/ar_fold_in" + std::to_string(p), cfg.reduce_chunk);
    ar_fold_out[static_cast<std::size_t>(p)] = seg.buffer(
        prefix + "/ar_fold_out" + std::to_string(p), cfg.reduce_chunk);
  }
  ar_fold_in_arr = counter("ar_fold_in_arr");
  ar_fold_out_arr = counter("ar_fold_out_arr");

  // --- barrier round counters ---
  bar_round.resize(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    bar_round[static_cast<std::size_t>(r)] =
        counter("bar_round" + std::to_string(r));
  }
  bar_fold_in = counter("bar_fold_in");
  bar_fold_out = counter("bar_fold_out");

  // --- gather staging + counters ---
  for (int s = 0; s < 2; ++s) {
    ga_stage[static_cast<std::size_t>(s)] = seg.buffer(
        prefix + "/ga_stage" + std::to_string(s), cfg.smp_buf_bytes);
    ga_filled[static_cast<std::size_t>(s)] = std::make_unique<shm::SharedFlag>(
        eng, mp, 0, prefix + "/ga_filled" + std::to_string(s));
    ga_freed[static_cast<std::size_t>(s)] = std::make_unique<shm::SharedFlag>(
        eng, mp, 0, prefix + "/ga_freed" + std::to_string(s));
  }
  ga_addr.assign(static_cast<std::size_t>(nnodes), nullptr);
  ga_addr_arr.resize(static_cast<std::size_t>(nnodes));
  ga_done.resize(static_cast<std::size_t>(nnodes));
  for (int p = 0; p < nnodes; ++p) {
    ga_addr_arr[static_cast<std::size_t>(p)] =
        counter("ga_addr_arr" + std::to_string(p));
    ga_done[static_cast<std::size_t>(p)] =
        counter("ga_done" + std::to_string(p));
  }

  // --- algorithm-zoo network state (per peer node) ---
  //
  // Only built when the communicator's decision table can actually dispatch
  // a zoo algorithm: the block is another O(nodes) counters plus two
  // reduce_chunk landing slots per peer on every node, and the paper-table
  // profiles (ibm_sp) never route to it.
  if (zoo) {
    zoo_addr.assign(static_cast<std::size_t>(nnodes), nullptr);
    zoo_addr_arr.resize(static_cast<std::size_t>(nnodes));
    zoo_got.resize(static_cast<std::size_t>(nnodes));
    zoo_land.resize(static_cast<std::size_t>(nnodes));
    zoo_arr.resize(static_cast<std::size_t>(nnodes));
    zoo_free.resize(static_cast<std::size_t>(nnodes));
    for (int p = 0; p < nnodes; ++p) {
      auto pi = static_cast<std::size_t>(p);
      zoo_addr_arr[pi] = counter("zoo_addr_arr" + std::to_string(p));
      zoo_got[pi] = counter("zoo_got" + std::to_string(p));
      for (int s = 0; s < 2; ++s) {
        zoo_land[pi][static_cast<std::size_t>(s)] =
            seg.buffer(prefix + "/zoo_land" + std::to_string(p) + "_" +
                           std::to_string(s),
                       cfg.reduce_chunk);
      }
      zoo_arr[pi] = counter("zoo_arr" + std::to_string(p));
      zoo_free[pi] = counter("zoo_free" + std::to_string(p));
      zoo_free[pi]->set(2);  // both landing slots start free
    }
    zoo_org = counter("zoo_org");
  }

  // --- single-copy cross-mapping windows ---
  map = &seg.object<shm::Mapping>(prefix + "/map", eng, mp, nlocal,
                                  prefix + "/map");
}

Communicator::Communicator(machine::Cluster& cluster, lapi::Fabric& fabric,
                           SrmConfig cfg, std::string name)
    : cluster_(&cluster),
      fabric_(&fabric),
      cfg_(cfg),
      name_(std::move(name)),
      sym_(cluster, coll::sym::Profile{cluster.params().net.o_send,
                                       cfg.bcast_net_chunk}) {
  ResolvedTable rt = resolve_table(cfg, cluster.params().profile);
  table_ = std::move(rt.table);
  // Record which precedence branch supplied the table. A mis-set
  // SRM_DECISIONS silently changing every dispatch is otherwise invisible
  // in a trace; this span makes the provenance a first-class artifact.
  std::size_t sid = cluster.obs().span_begin(
      0, "srm.decisions",
      "{\"source\":" + json_str(rt.source) +
          ",\"detail\":" + json_str(rt.detail) +
          ",\"profile\":" + json_str(table_.profile) + "}");
  cluster.obs().span_end(sid);
  // Every protocol moves data in pieces of these sizes; sanitize() keeps
  // each dispatched message within the buffer it stages through. An rd
  // allreduce (up to one reduce chunk) publishes its whole result through
  // one shared broadcast buffer, so that buffer must hold a reduce chunk.
  SRM_CHECK(cfg_.reduce_chunk > 0 && cfg_.reduce_chunk % 8 == 0);
  SRM_CHECK(cfg_.smp_buf_bytes >= cfg_.reduce_chunk);
  SRM_CHECK(cfg_.bcast_pipe_chunk > 0 && cfg_.bcast_net_chunk > 0);
  // Only the per-rank scalar bookkeeping is eager; the per-node shared
  // structures and per-link parity vectors wait for the first real op.
  ranks_.resize(static_cast<std::size_t>(cluster.topology().nranks()));
}

void Communicator::ensure_real_state() {
  if (real_ready_) return;
  real_ready_ = true;
  // The zoo block of NodeState is only worth its O(nodes) counters and
  // landing slots if some table row can actually route to a zoo algorithm.
  bool zoo = false;
  for (coll::CollKind op : coll::kAllOps) {
    for (const auto& row : table_.rows(op)) {
      zoo = zoo || row.d.algo == coll::Algo::ring ||
            row.d.algo == coll::Algo::rhalving ||
            row.d.algo == coll::Algo::scatter_ag;
    }
  }
  const auto& topo = cluster_->topology();
  nodes_.reserve(static_cast<std::size_t>(topo.nodes()));
  for (int n = 0; n < topo.nodes(); ++n) {
    auto& node = cluster_->node(n);
    nodes_.push_back(&node.seg.object<NodeState>(
        "srm/" + name_, cluster_->engine(), cluster_->params().mem, topo,
        cfg_, zoo, node.seg, "srm/" + name_));
  }
  for (auto& r : ranks_) {
    r.red_sent.assign(static_cast<std::size_t>(topo.nodes()), 0);
    r.red_recvd.assign(static_cast<std::size_t>(topo.nodes()), 0);
    r.bc_sent.assign(static_cast<std::size_t>(topo.nodes()), 0);
    r.bc_recv.assign(static_cast<std::size_t>(topo.nodes()), 0);
    r.smp_red_base.assign(static_cast<std::size_t>(topo.tasks_per_node()), 0);
    r.map_gen.assign(static_cast<std::size_t>(topo.tasks_per_node()), 0);
    r.zoo_sent.assign(static_cast<std::size_t>(topo.nodes()), 0);
    r.zoo_recvd.assign(static_cast<std::size_t>(topo.nodes()), 0);
  }
}

// ---------------------------------------------------------------------------
// Decision lookup
// ---------------------------------------------------------------------------

coll::Decision Communicator::decide(coll::CollKind op,
                                    std::size_t op_bytes) const {
  return sanitize(op, table_.decide(op, op_bytes), op_bytes, cfg_);
}

std::string Communicator::v_algo(const machine::TaskCtx& t,
                                 const coll::CallSig& sig) const {
  std::size_t bytes = sig.count * coll::dtype_size(sig.dtype);
  // scatter/gather key their mapped switch on the node block they stage.
  std::size_t key = bytes;
  if (sig.op == coll::CollKind::scatter || sig.op == coll::CollKind::gather) {
    key = bytes * static_cast<std::size_t>(t.nlocal());
  }
  coll::Decision d = decide(sig.op, key);
  std::string algo = coll::algo_name(d.algo);
  // The "+sc" suffix marks calls whose intra-node phases run the mapped
  // single-copy variants; composite ops (allreduce/allgather/...) consult
  // their sub-operations' rows instead, so only the direct consumers of the
  // mapped column report it.
  bool consults_mapped = sig.op == coll::CollKind::bcast ||
                         sig.op == coll::CollKind::reduce ||
                         sig.op == coll::CollKind::scatter ||
                         sig.op == coll::CollKind::gather;
  if (consults_mapped && cfg_.single_copy && d.mapped) algo += "+sc";
  return algo;
}

// ---------------------------------------------------------------------------
// Plane dispatch (coll::Collectives hooks)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::v_bcast(machine::TaskCtx& t, coll::Buf buf,
                                  int root) {
  if (buf.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.bcast");
    chk::StageScope stage(t.chk, "srm.bcast");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.bcast(t, buf, root,
                        decide(coll::CollKind::bcast, buf.count * buf.esize()));
  } else {
    if (buf.count != 0) ensure_real_state();
    co_await real_bcast(t, buf.data, buf.count * buf.esize(), root);
  }
}

sim::CoTask Communicator::v_reduce(machine::TaskCtx& t, coll::Buf send,
                                   coll::Buf recv, coll::RedOp op, int root) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.reduce");
    chk::StageScope stage(t.chk, "srm.reduce");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.reduce(
        t, send, recv, op, root,
        decide(coll::CollKind::reduce, send.count * send.esize()));
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_reduce(t, send.data, recv.data, send.count, send.dtype, op,
                         root);
  }
}

sim::CoTask Communicator::v_allreduce(machine::TaskCtx& t, coll::Buf send,
                                      coll::Buf recv, coll::RedOp op) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.allreduce");
    chk::StageScope stage(t.chk, "srm.allreduce");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.allreduce(
        t, send, recv, op,
        decide(coll::CollKind::allreduce, send.count * send.esize()));
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_allreduce(t, send.data, recv.data, send.count, send.dtype,
                            op);
  }
}

sim::CoTask Communicator::v_barrier(machine::TaskCtx& t) {
  if (sym_used_ && !real_ready_) {
    obs::Span span(*t.obs, t.rank, "srm.barrier");
    chk::StageScope stage(t.chk, "srm.barrier");
    rank_state(t).op_seq++;
    co_await sym_.barrier(t, decide(coll::CollKind::barrier, 0));
  } else {
    ensure_real_state();
    co_await real_barrier(t);
  }
}

sim::CoTask Communicator::v_scatter(machine::TaskCtx& t, coll::Buf send,
                                    coll::Buf recv, int root) {
  if (recv.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.scatter");
    chk::StageScope stage(t.chk, "srm.scatter");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.scatter(t, send, recv, root);
  } else {
    if (recv.count != 0) ensure_real_state();
    co_await real_scatter(t, send.data, recv.data,
                          recv.count * recv.esize(), root);
  }
}

sim::CoTask Communicator::v_gather(machine::TaskCtx& t, coll::Buf send,
                                   coll::Buf recv, int root) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.gather");
    chk::StageScope stage(t.chk, "srm.gather");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.gather(t, send, recv, root);
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_gather(t, send.data, recv.data,
                         send.count * send.esize(), root);
  }
}

sim::CoTask Communicator::v_allgather(machine::TaskCtx& t, coll::Buf send,
                                      coll::Buf recv) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.allgather");
    chk::StageScope stage(t.chk, "srm.allgather");
    sym_used_ = true;
    // The composite replays its broadcast phase over that phase's row.
    std::size_t total = send.count * send.esize() *
                        static_cast<std::size_t>(t.nranks());
    co_await sym_.allgather(t, send, recv,
                            decide(coll::CollKind::bcast, total));
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_allgather(t, send.data, recv.data,
                            send.count * send.esize());
  }
}

sim::CoTask Communicator::v_reduce_scatter(machine::TaskCtx& t,
                                           coll::Buf send, coll::Buf recv,
                                           coll::RedOp op) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.reduce_scatter");
    chk::StageScope stage(t.chk, "srm.reduce_scatter");
    sym_used_ = true;
    // The composite replays its reduce phase over that phase's row.
    std::size_t total = recv.count * recv.esize() *
                        static_cast<std::size_t>(t.nranks());
    co_await sym_.reduce_scatter(t, send, recv, op,
                                 decide(coll::CollKind::reduce, total));
  } else {
    if (recv.count != 0) ensure_real_state();
    co_await real_reduce_scatter(t, send.data, recv.data, recv.count,
                                 recv.dtype, op);
  }
}

// ---------------------------------------------------------------------------
// Real plane
// ---------------------------------------------------------------------------

sim::CoTask Communicator::real_bcast(machine::TaskCtx& t, void* buf,
                                     std::size_t bytes, int root) {
  SRM_CHECK(root >= 0 && root < t.nranks());
  SRM_CHECK(bytes == 0 || buf != nullptr);
  obs::Span span(*t.obs, t.rank, "srm.bcast");
  chk::StageScope stage(t.chk, "srm.bcast");
  rank_state(t).op_seq++;
  if (bytes == 0) co_return;
  coll::Decision dec = decide(coll::CollKind::bcast, bytes);
  coll::Embedding emb =
      coll::embed(*t.topo, root, dec.internode, cfg_.intranode_tree);
  bool small = dec.algo == coll::Algo::staged;
  bool leader = emb.leader[static_cast<std::size_t>(t.node())] == t.rank;
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  switch (dec.algo) {
    case coll::Algo::staged:
      co_await bcast_small(t, buf, bytes, emb);
      break;
    case coll::Algo::scatter_ag:
      co_await bcast_scatter_ag(t, buf, bytes, emb);
      break;
    default:
      co_await bcast_large(t, buf, bytes, emb, cfg_.bcast_net_chunk, nullptr);
      break;
  }
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::real_reduce(machine::TaskCtx& t, const void* send,
                                      void* recv, std::size_t count,
                                      coll::Dtype d, coll::RedOp op,
                                      int root) {
  SRM_CHECK(root >= 0 && root < t.nranks());
  SRM_CHECK(send != recv);
  obs::Span span(*t.obs, t.rank, "srm.reduce");
  chk::StageScope stage(t.chk, "srm.reduce");
  rank_state(t).op_seq++;
  if (count == 0) co_return;
  // Interrupt management (§2.3): off during small-message collectives on the
  // tasks that face the network.
  bool small = count * coll::dtype_size(d) <= cfg_.reduce_chunk;
  bool leader = t.node() == t.topo->node_of(root) ? t.rank == root
                                                  : t.is_master();
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  co_await reduce_impl(t, send, recv, count, d, op, root, nullptr);
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::real_allreduce(machine::TaskCtx& t,
                                         const void* send, void* recv,
                                         std::size_t count, coll::Dtype d,
                                         coll::RedOp op) {
  SRM_CHECK(send != recv);
  obs::Span span(*t.obs, t.rank, "srm.allreduce");
  chk::StageScope stage(t.chk, "srm.allreduce");
  rank_state(t).op_seq++;
  if (count == 0) co_return;
  std::size_t bytes = count * coll::dtype_size(d);
  coll::Decision dec = decide(coll::CollKind::allreduce, bytes);
  switch (dec.algo) {
    case coll::Algo::rd: {
      bool leader = t.is_master();
      bool manage = cfg_.manage_interrupts && leader && t.nnodes() > 1;
      if (manage) ep(t.rank).set_interrupts(false);
      co_await allreduce_rd(t, send, recv, count, d, op);
      if (manage) ep(t.rank).set_interrupts(true);
      break;
    }
    case coll::Algo::ring:
      co_await ring_allreduce(t, send, recv, count, d, op);
      break;
    case coll::Algo::rhalving:
      co_await rhalving_allreduce(t, send, recv, count, d, op);
      break;
    default:
      co_await allreduce_pipelined(t, send, recv, count, d, op);
      break;
  }
}

sim::CoTask Communicator::real_barrier(machine::TaskCtx& t) {
  obs::Span span(*t.obs, t.rank, "srm.barrier");
  chk::StageScope stage(t.chk, "srm.barrier");
  rank_state(t).op_seq++;
  bool manage = cfg_.manage_interrupts && t.is_master() && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  co_await smp_barrier_enter(t);
  if (t.is_master()) {
    if (t.nnodes() > 1) co_await internode_barrier(t);
    smp_barrier_release(t);
  }
  if (manage) ep(t.rank).set_interrupts(true);
}

}  // namespace srm
