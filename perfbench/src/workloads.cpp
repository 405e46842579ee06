#include "workloads.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

using srm::bench::Impl;

namespace {

// SplitMix64: the workload generator. Only generated inputs reach the
// simulator; its own schedule is deterministic.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

bool rooted(Op op) {
  return op == Op::bcast || op == Op::reduce || op == Op::scatter ||
         op == Op::gather;
}

/// A batch of @p warmup + @p iters identical calls.
Point batch(Impl impl, Profile prof, int nodes, int tpn, bool symbolic,
            Call c, int warmup, int iters, Rng& rng) {
  Point p;
  p.impl = impl;
  p.profile = prof;
  p.nodes = nodes;
  p.tpn = tpn;
  p.symbolic = symbolic;
  p.data_seed = rng.next();
  p.warmup = warmup;
  p.calls.assign(static_cast<std::size_t>(warmup + iters), c);
  p.cell = "P" + std::to_string(nodes * tpn) + "/" + op_name(c.op) + "/" +
           std::to_string(c.bytes) + "/r" + std::to_string(c.root);
  return p;
}

int iters_for(std::size_t bytes) { return bytes <= 64 * 1024 ? 3 : 2; }

// The paper grid's message sizes: the full 8 B - 1 MB sweep costs minutes
// of host time, so the grid keeps the latency, pipelined and bandwidth
// regimes where they are affordable.
std::vector<std::size_t> grid_sizes(int P, bool smoke) {
  if (smoke) return {8, 4096};
  if (P > 64) return {8, 16 * 1024};
  return {8, 1024, 16 * 1024, 256 * 1024};
}

// Figs 6-12 of the paper: SRM vs IBM-MPI vs MPICH on the ibm_sp machine,
// real payload plane, with every SRM and IBM-MPI point repeated on the
// symbolic plane.
Workload paper_grid(std::uint64_t seed, bool smoke) {
  Rng rng{seed};
  // Slopes: pass medians from 10-14 s runs of the three gated workloads
  // taken in turn for 15 minutes on a shared 4-vCPU Xeon VM, while the
  // sample's median ranged 0.54-0.79 ms: small_msg 2.05, paper_grid 1.48,
  // modern_smp 1.53 (correlations 0.90-0.94).
  Workload w{"paper_grid", 1.5, {}};
  std::vector<int> nodes = smoke ? std::vector<int>{2} : std::vector<int>{4, 16};
  int tpn = smoke ? 4 : 16;
  for (int n : nodes) {
    const int P = n * tpn;
    for (Op op : {Op::bcast, Op::reduce, Op::allreduce}) {
      for (std::size_t s : grid_sizes(P, smoke)) {
        Call c{op, s, rooted(op) ? rng.below(P) : 0};
        std::uint64_t data = rng.next();
        for (Impl impl : {Impl::srm, Impl::mpi_ibm, Impl::mpi_mpich}) {
          for (bool sym : {false, true}) {
            if (sym && impl == Impl::mpi_mpich) continue;
            Point p = batch(impl, Profile::ibm_sp, n, tpn, sym, c, 1,
                            iters_for(s), rng);
            p.data_seed = data;
            w.points.push_back(std::move(p));
          }
        }
      }
    }
    for (Impl impl : {Impl::srm, Impl::mpi_ibm, Impl::mpi_mpich}) {
      w.points.push_back(batch(impl, Profile::ibm_sp, n, tpn, false,
                               Call{Op::barrier, 0, 0}, 2, 8, rng));
    }
  }
  return w;
}

// 8-byte bcast, 1-double allreduce and barrier interleaved in a seeded
// order with seeded roots; SRM and IBM-MPI run the identical sequence.
Workload small_msg(std::uint64_t seed, bool smoke) {
  Rng rng{seed};
  Workload w{"small_msg", 2.0, {}};
  int nodes = smoke ? 2 : 16;
  int tpn = smoke ? 4 : 16;
  int P = nodes * tpn;
  int sequences = smoke ? 4 : 8;
  int warmup = 2;
  int len = smoke ? 6 : 12;
  for (int q = 0; q < sequences; ++q) {
    // Equal thirds of each call kind in a seeded order (Fisher-Yates), so
    // seeds vary the interleaving and roots but not the mix.
    std::vector<Call> calls;
    for (int i = 0; i < len; ++i) {
      switch (i % 3) {
        case 0: calls.push_back({Op::bcast, 8, rng.below(P)}); break;
        case 1: calls.push_back({Op::allreduce, 8, 0}); break;
        default: calls.push_back({Op::barrier, 0, 0}); break;
      }
    }
    for (int i = len - 1; i > 0; --i) {
      std::swap(calls[static_cast<std::size_t>(i)],
                calls[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    std::uint64_t data = rng.next();
    for (Impl impl : {Impl::srm, Impl::mpi_ibm}) {
      Point p;
      p.impl = impl;
      p.nodes = nodes;
      p.tpn = tpn;
      p.data_seed = data;
      p.warmup = warmup;
      p.calls = calls;
      p.cell = "P" + std::to_string(P) + "/mix" + std::to_string(q);
      w.points.push_back(std::move(p));
    }
  }
  return w;
}

// SRM on the symbolic plane at 256 nodes x 64 tasks (16,384 ranks).
Workload mega_symbolic(std::uint64_t seed, bool smoke) {
  Rng rng{seed};
  // Estimated from the passes of one run only; the workload is not gated.
  Workload w{"mega_symbolic", 2.0, {}};
  int nodes = smoke ? 8 : 256;
  int tpn = smoke ? 8 : 64;
  // One call per point: at 16,384 ranks even an 8-byte call costs tens of
  // host ms. A 64 KB reduction hashes 1 GB of pattern per call, so only
  // bcast (one filled root) goes up to 64 KB.
  for (Op op : {Op::bcast, Op::reduce, Op::allreduce}) {
    std::vector<std::size_t> sizes = {8, 512, 4096};
    if (smoke) sizes = {8, 4096};
    if (op == Op::bcast && !smoke) sizes.push_back(64 * 1024);
    for (std::size_t s : sizes) {
      Call c{op, s, rooted(op) ? rng.below(nodes * tpn) : 0};
      w.points.push_back(
          batch(Impl::srm, Profile::ibm_sp, nodes, tpn, true, c, 0, 1, rng));
    }
  }
  return w;
}

// The modern_smp profile with single-copy windows enabled, sized to reach
// every row of its builtin DecisionTable.
Workload modern_smp(std::uint64_t seed, bool smoke) {
  Rng rng{seed};
  Workload w{"modern_smp", 1.5, {}};
  std::vector<int> nodes = smoke ? std::vector<int>{2} : std::vector<int>{4, 16};
  int tpn = smoke ? 4 : 16;
  const std::size_t K = 1024;
  struct Cell {
    Op op;
    std::vector<std::size_t> sizes;
  };
  for (int n : nodes) {
    int P = n * tpn;
    // P=256 keeps the shapes whose host cost stays tens of ms; the
    // nranks-block all-to-all ops run at P=64 only.
    const bool big = P > 64;
    std::vector<Cell> cells =
        smoke ? std::vector<Cell>{{Op::bcast, {2 * K, 256 * K}},
                                  {Op::reduce, {2 * K}},
                                  {Op::allreduce, {2 * K, 1024 * K}},
                                  {Op::barrier, {0}},
                                  {Op::scatter, {2 * K}},
                                  {Op::gather, {2 * K}},
                                  {Op::allgather, {16 * K}},
                                  {Op::reduce_scatter, {16 * K}}}
        : big ? std::vector<Cell>{{Op::bcast, {2 * K, 32 * K, 256 * K}},
                                  {Op::reduce, {2 * K, 64 * K}},
                                  {Op::allreduce, {2 * K, 64 * K}},
                                  {Op::barrier, {0}},
                                  {Op::scatter, {2 * K}},
                                  {Op::gather, {2 * K}}}
              : std::vector<Cell>{{Op::bcast, {2 * K, 32 * K, 256 * K, 1024 * K}},
                                  {Op::reduce, {2 * K, 64 * K, 1024 * K}},
                                  {Op::allreduce, {2 * K, 64 * K, 1024 * K}},
                                  {Op::barrier, {0}},
                                  {Op::scatter, {2 * K}},
                                  {Op::gather, {2 * K}},
                                  {Op::allgather, {2 * K, 16 * K}},
                                  {Op::reduce_scatter, {2 * K, 16 * K}}};
    for (const Cell& cell : cells) {
      for (std::size_t s : cell.sizes) {
        Call c{cell.op, s, rooted(cell.op) ? rng.below(P) : 0};
        Point p = batch(Impl::srm, Profile::modern_smp, n, tpn, false, c, 1,
                        cell.op == Op::barrier ? 8 : iters_for(s), rng);
        p.single_copy = true;
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::bcast: return "bcast";
    case Op::reduce: return "reduce";
    case Op::allreduce: return "allreduce";
    case Op::barrier: return "barrier";
    case Op::scatter: return "scatter";
    case Op::gather: return "gather";
    case Op::allgather: return "allgather";
    case Op::reduce_scatter: return "reduce_scatter";
  }
  return "?";
}

std::string Point::label() const {
  return std::string(srm::bench::impl_name(impl)) +
         (symbolic ? "/sym/" : "/real/") + cell;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "paper_grid") return paper_grid(seed, smoke);
  if (name == "small_msg") return small_msg(seed, smoke);
  if (name == "mega_symbolic") return mega_symbolic(seed, smoke);
  if (name == "modern_smp") return modern_smp(seed, smoke);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
