#include "core/communicator.hpp"

#include <cstdlib>

#include "util/align.hpp"
#include "util/format.hpp"

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

/// Name of per-link state: "<prefix>/<what><peer>", plus "_<slot>" for a
/// slot of a pair.
std::string link_label(const std::string& prefix, const char* what, int peer,
                       int slot = -1) {
  std::string s = util::cat(prefix, "/", what, std::to_string(peer));
  if (slot >= 0) s = util::cat(s, "_", std::to_string(slot));
  return s;
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
                                   const SrmConfig& cfg, shm::Segment& seg,
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

  // --- reduce network state (the landing side is per link) ---
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
  zoo_org = counter("zoo_org");

  // --- single-copy cross-mapping windows ---
  map = &seg.object<shm::Mapping>(prefix + "/map", eng, mp, nlocal,
                                  prefix + "/map");
  links.resize(static_cast<std::size_t>(nnodes));
}

Communicator::Link::Link(sim::Engine& eng, const std::string& prefix,
                         int peer, int nlocal)
    : bc_arrived{lapi::Counter(eng, link_label(prefix, "bc_arrived", peer, 0)),
                 lapi::Counter(eng, link_label(prefix, "bc_arrived", peer, 1))},
      bc_free{lapi::Counter(eng, link_label(prefix, "bc_free", peer, 0)),
              lapi::Counter(eng, link_label(prefix, "bc_free", peer, 1))},
      bc_addr(eng, link_label(prefix, "bc_addr_arrived", peer)),
      bc_large_arrived(eng, link_label(prefix, "bc_large_arrived", peer)),
      red_arrived(eng, link_label(prefix, "red_arrived", peer)),
      ga_addr(eng, link_label(prefix, "ga_addr_arr", peer)),
      ga_done(eng, link_label(prefix, "ga_done", peer)),
      zoo_addr(eng, link_label(prefix, "zoo_addr_arr", peer)),
      zoo_got(eng, link_label(prefix, "zoo_got", peer)),
      zoo_arr(eng, link_label(prefix, "zoo_arr", peer)),
      zoo_free(eng, link_label(prefix, "zoo_free", peer)),
      seq(static_cast<std::size_t>(nlocal)) {
  for (lapi::Counter& cr : bc_free) cr.set(1);  // landing buffers start free
  zoo_free.set(2);  // both landing slots start free
}

Communicator::Communicator(machine::Cluster& cluster, lapi::Fabric& fabric,
                           SrmConfig cfg, std::string name)
    : coll::Collectives(cluster,
                        coll::sym::Profile{cluster.params().net.o_send,
                                           cfg.bcast_net_chunk},
                        "srm"),
      cluster_(&cluster),
      fabric_(&fabric),
      cfg_(cfg),
      name_(std::move(name)) {
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
}

void Communicator::ensure_real_state() {
  if (state_built_) return;
  state_built_ = true;
  const auto& topo = cluster_->topology();
  nodes_.reserve(static_cast<std::size_t>(topo.nodes()));
  for (int n = 0; n < topo.nodes(); ++n) {
    auto& node = cluster_->node(n);
    nodes_.push_back(&node.seg.object<NodeState>(
        "srm/" + name_, cluster_->engine(), cluster_->params().mem, topo,
        cfg_, node.seg, "srm/" + name_));
  }
  ranks_.resize(static_cast<std::size_t>(topo.nranks()));
  for (auto& r : ranks_) {
    r.smp_red_base.assign(static_cast<std::size_t>(topo.tasks_per_node()), 0);
    r.map_gen.assign(static_cast<std::size_t>(topo.tasks_per_node()), 0);
  }
}

Communicator::Link& Communicator::link(int node, int peer) {
  auto& slot = nodes_[static_cast<std::size_t>(node)]
                   ->links[static_cast<std::size_t>(peer)];
  if (slot == nullptr) {
    slot = std::make_unique<Link>(cluster_->engine(), util::cat("srm/", name_),
                                  peer, cluster_->topology().tasks_per_node());
  }
  return *slot;
}

std::byte* Communicator::landing(int node, int peer, Land kind,
                                 std::size_t slot) {
  auto& pair = link(node, peer).land[kind];
  if (pair[0].empty()) {
    static constexpr std::array<const char*, kLandKinds> kName = {
        "bc_land", "red_land", "zoo_land"};
    std::size_t bytes =
        kind == kBcLand ? cfg_.smp_buf_bytes : cfg_.reduce_chunk;
    shm::Segment& seg = cluster_->node(node).seg;
    for (std::size_t s = 0; s < 2; ++s) {
      pair[s] = seg.buffer(link_label(util::cat("srm/", name_), kName[kind],
                                      peer, static_cast<int>(s)),
                           bytes);
    }
  }
  return pair[slot].data();
}

sim::CoTask Communicator::announce_addr(machine::TaskCtx& t,
                                        AddrCell Link::*cell, int peer,
                                        int peer_leader, void* addr,
                                        lapi::Counter* org,
                                        std::uint64_t& org_pending) {
  AddrCell& mine = link(t.node(), peer).*cell;
  AddrCell& theirs = link(peer, t.node()).*cell;
  mine.sent = addr;
  ++org_pending;
  return ep(t.rank).put(ep(peer_leader), &theirs.addr, &mine.sent,
                        sizeof(void*), &theirs.arrived, org);
}

sim::CoTask Communicator::await_addr(machine::TaskCtx& t, AddrCell Link::*cell,
                                     int peer, std::byte*& out) {
  AddrCell& c = link(t.node(), peer).*cell;
  co_await ep(t.rank).wait_cntr(c.arrived, 1);
  out = static_cast<std::byte*>(c.addr);
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
  RowKey row = row_of(sig, t.nranks());
  // scatter/gather key their mapped switch on the node block they stage.
  if (row.op == coll::CollKind::scatter || row.op == coll::CollKind::gather) {
    row.bytes *= static_cast<std::size_t>(t.nlocal());
  }
  coll::Decision d = decide(row.op, row.bytes);
  std::string algo = coll::algo_name(d.algo);
  // The "+sc" suffix marks calls whose intra-node phases run the mapped
  // single-copy variants; allreduce consults its sub-operations' rows
  // instead, so only the direct consumers of the mapped column report it.
  bool consults_mapped = row.op == coll::CollKind::bcast ||
                         row.op == coll::CollKind::reduce ||
                         row.op == coll::CollKind::scatter ||
                         row.op == coll::CollKind::gather;
  if (consults_mapped && cfg_.single_copy && d.mapped) algo += "+sc";
  return algo;
}

// ---------------------------------------------------------------------------
// Real plane
// ---------------------------------------------------------------------------

sim::CoTask Communicator::v_bcast(machine::TaskCtx& t, coll::Buf buf,
                                  int root) {
  ensure_real_state();
  obs::Span span(*t.obs, t.rank, "srm.bcast");
  chk::StageScope stage(t.chk, "srm.bcast");
  rank_state(t).op_seq++;
  std::size_t bytes = buf.block_bytes();
  coll::Decision dec = decide(coll::CollKind::bcast, bytes);
  coll::Embedding emb = trees().embed(root, dec.internode);
  bool small = dec.algo == coll::Algo::staged;
  bool leader = emb.leader(t.node()) == t.rank;
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  switch (dec.algo) {
    case coll::Algo::staged:
      co_await bcast_small(t, buf.data, bytes, emb);
      break;
    case coll::Algo::scatter_ag:
      co_await bcast_scatter_ag(t, buf.data, bytes, emb);
      break;
    default:
      co_await bcast_large(t, buf.data, bytes, emb, cfg_.bcast_net_chunk,
                           nullptr);
      break;
  }
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::v_reduce(machine::TaskCtx& t, coll::Buf send,
                                   coll::Buf recv, coll::RedOp op, int root) {
  SRM_CHECK(send.data != recv.data);
  ensure_real_state();
  obs::Span span(*t.obs, t.rank, "srm.reduce");
  chk::StageScope stage(t.chk, "srm.reduce");
  rank_state(t).op_seq++;
  // Interrupt management (§2.3): off during small-message collectives on the
  // tasks that face the network.
  bool small = send.block_bytes() <= cfg_.reduce_chunk;
  bool leader = t.node() == t.topo->node_of(root) ? t.rank == root
                                                  : t.is_master();
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  co_await reduce_impl(t, send.data, recv.data, send.count, send.dtype, op,
                       root, nullptr);
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::v_allreduce(machine::TaskCtx& t, coll::Buf send,
                                      coll::Buf recv, coll::RedOp op) {
  SRM_CHECK(send.data != recv.data);
  ensure_real_state();
  obs::Span span(*t.obs, t.rank, "srm.allreduce");
  chk::StageScope stage(t.chk, "srm.allreduce");
  rank_state(t).op_seq++;
  std::size_t count = send.count;
  coll::Dtype d = send.dtype;
  coll::Decision dec = decide(coll::CollKind::allreduce, send.block_bytes());
  switch (dec.algo) {
    case coll::Algo::rd: {
      bool leader = t.is_master();
      bool manage = cfg_.manage_interrupts && leader && t.nnodes() > 1;
      if (manage) ep(t.rank).set_interrupts(false);
      co_await allreduce_rd(t, send.data, recv.data, count, d, op);
      if (manage) ep(t.rank).set_interrupts(true);
      break;
    }
    case coll::Algo::ring:
      co_await ring_allreduce(t, send.data, recv.data, count, d, op);
      break;
    case coll::Algo::rhalving:
      co_await rhalving_allreduce(t, send.data, recv.data, count, d, op);
      break;
    default:
      co_await allreduce_pipelined(t, send.data, recv.data, count, d, op);
      break;
  }
}

sim::CoTask Communicator::v_barrier(machine::TaskCtx& t) {
  ensure_real_state();
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
