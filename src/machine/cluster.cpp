#include "machine/cluster.hpp"

#include <cstring>
#include <string>

#include "util/format.hpp"

namespace srm::machine {

sim::CoTask TaskCtx::copy(void* dst, const void* src, std::size_t bytes) const {
  co_await nd->mem.charge_copy(static_cast<double>(bytes));
  std::memmove(dst, src, bytes);
  // Every charged copy is an access event; unregistered (private) buffers
  // are ignored by the checker.
  chk::note_read(chk, src, bytes);
  chk::note_write(chk, dst, bytes);
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      topo_(cfg.nodes, cfg.tasks_per_node),
      chk_(eng_, topo_.nranks()),
      obs_(eng_),
      net_(eng_, cfg.params.net, cfg.nodes, &obs_) {
  nodes_.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int n = 0; n < cfg.nodes; ++n) {
    nodes_.push_back(std::make_unique<Node>(n, eng_, cfg.params.mem, obs_));
    nodes_.back()->seg.set_checker(&chk_,
                                   util::cat("n", std::to_string(n), ":"));
  }
  ctxs_.resize(static_cast<std::size_t>(topo_.nranks()));
  for (int r = 0; r < topo_.nranks(); ++r) {
    TaskCtx& c = ctxs_[static_cast<std::size_t>(r)];
    c.rank = r;
    c.cluster = this;
    c.eng = &eng_;
    c.P = &cfg_.params;
    c.nd = nodes_[static_cast<std::size_t>(topo_.node_of(r))].get();
    c.topo = &topo_;
    c.obs = &obs_;
    c.chk = chk::TaskChk{&chk_, r};
  }
}

void Cluster::run(const Program& program) {
  for (int r = 0; r < topo_.nranks(); ++r) {
    eng_.spawn(program(ctxs_[static_cast<std::size_t>(r)]));
  }
  eng_.run();
}

}  // namespace srm::machine
