// Single-copy cross-mapped SMP primitives (ROADMAP item 2).
//
// The Fig. 2/3 protocols stage every payload through shared intermediate
// buffers: for a broadcast that is one copy in plus one copy out per
// consumer (N total), for a reduce one staging copy per leaf. Mapped
// operations remove the staging hop with shm::Mapping windows — tasks
// export their *user* buffers into the node's shared namespace and peers
// copy or combine straight across address spaces:
//
//  * broadcast (smp_bcast_mapped below): N-1 copies instead of N, no
//    smp_buf_bytes size cap;
//  * reduce: zero copies — leaves just export their send buffers and the
//    interior of the tree combines directly out of the windows. This is not
//    a separate protocol: the staged Fig. 2 primitives in core/smp.cpp take
//    a `mapped` flag and read a leaf child's chunk from its window instead
//    of its red_slot. Interior vertices still publish through the one
//    red_slot pair per task, so mapped and staged reduces share the same
//    slot cycle (smp_red_base) and its published/consumed counters. Only
//    the window attach/detach helpers live here.
//
// Transfers follow coll::topo_tree, so each cache-domain boundary of
// machine::TopologyParams is crossed by exactly one window pull, charged at
// the coherence-aware cost (the factor argument of charge_copy /
// charge_combine: the source line is dirty in the writer's cache, and
// crossing an L3 slice or socket boundary stretches the stream). Below the
// decision table's mapped crossover the publish/attach handshake costs
// dominate and the staged path wins — that crossover is the
// abl_single_copy bench's subject.
//
// Window generations are mirrored privately by every rank
// (RankState::map_gen), the same trick the staged protocols use for A/B
// parity: collectives are deterministic, so each rank knows exactly how
// many times each window was published without asking.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

// ---------------------------------------------------------------------------
// Mapped SMP broadcast: cascade of direct window pulls over the topology tree
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_bcast_mapped(machine::TaskCtx& t,
                                           int leader_local, const void* src,
                                           void* dst, std::size_t len) {
  obs::Span span(*t.obs, t.rank, "smp.bcast_mapped");
  chk::StageScope stage(t.chk, "smp.bcast_mapped");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  if (ns.nlocal == 1) co_return;  // nothing to fan out
  coll::Tree tree = coll::topo_tree(t.P->topo, ns.nlocal, leader_local);
  int me = t.local();
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (me == leader_local) {
    // The data already sits in the leader's buffer (user data at the root,
    // a landed network chunk elsewhere): export it, wait out the readers.
    SRM_CHECK(src != nullptr);
    if (!kids.empty()) {
      co_await ns.map->publish(t, const_cast<void*>(src), len);
      co_await ns.map->retract(t, static_cast<int>(kids.size()));
    }
  } else {
    int parent = tree.parent[static_cast<std::size_t>(me)];
    shm::Mapping::Window w;
    co_await ns.map->attach(
        t, parent, rs.map_gen[static_cast<std::size_t>(parent)] + 1, &w);
    SRM_CHECK(w.bytes >= len);
    // The one copy this vertex ever makes: straight from the parent's user
    // buffer, at the cache-distance cost (the parent just wrote it: dirty).
    co_await t.nd->mem.charge_copy(
        static_cast<double>(len), t.P->topo.copy_factor(parent, me, true));
    std::memcpy(dst, w.data, len);
    chk::note_read(t.chk, w.data, len);
    ns.map->detach(t, parent);
    if (!kids.empty()) {
      co_await ns.map->publish(t, dst, len);
      co_await ns.map->retract(t, static_cast<int>(kids.size()));
    }
  }
  // Mirror the generation advance of every exporting vertex (all ranks of
  // the node run this loop with the same tree — deterministic).
  for (int v = 0; v < ns.nlocal; ++v) {
    if (!tree.children[static_cast<std::size_t>(v)].empty()) {
      rs.map_gen[static_cast<std::size_t>(v)]++;
    }
  }
}

// ---------------------------------------------------------------------------
// Mapped SMP reduce: the leaf windows a vertex combines straight out of
// ---------------------------------------------------------------------------

sim::CoTask Communicator::attach_leaf_windows(
    machine::TaskCtx& t, const coll::Tree& tree,
    std::vector<shm::Mapping::Window>& wins) {
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  wins.assign(static_cast<std::size_t>(ns.nlocal), {});
  for (int kid : tree.children[static_cast<std::size_t>(t.local())]) {
    auto ki = static_cast<std::size_t>(kid);
    if (!tree.children[ki].empty()) continue;  // interior kid: red_slot pair
    co_await ns.map->attach(t, kid, rs.map_gen[ki] + 1, &wins[ki]);
  }
}

void Communicator::detach_leaf_windows(machine::TaskCtx& t,
                                       const coll::Tree& tree) {
  NodeState& ns = node_state(t);
  for (int kid : tree.children[static_cast<std::size_t>(t.local())]) {
    if (!tree.children[static_cast<std::size_t>(kid)].empty()) continue;
    ns.map->detach(t, kid);
  }
}

}  // namespace srm
