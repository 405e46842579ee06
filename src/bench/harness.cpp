#include "bench/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "coll/payload.hpp"
#include "util/format.hpp"

namespace srm::bench {

namespace {

bool env_symbolic() {
  const char* v = std::getenv("SRM_SYMBOLIC");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

const char* impl_name(Impl i) {
  switch (i) {
    case Impl::srm: return "SRM";
    case Impl::mpi_ibm: return "IBM-MPI";
    case Impl::mpi_mpich: return "MPICH";
  }
  return "?";
}

Bench::Bench(Impl impl, int nodes, int tasks_per_node, SrmConfig srm_cfg,
             machine::MachineParams params)
    : impl_(impl), symbolic_(env_symbolic()) {
  machine::ClusterConfig cc;
  cc.nodes = nodes;
  cc.tasks_per_node = tasks_per_node;
  cc.params = params;
  cluster_ = std::make_unique<machine::Cluster>(cc);
  switch (impl) {
    case Impl::srm:
      fabric_ = std::make_unique<lapi::Fabric>(*cluster_);
      srm_ = std::make_unique<Communicator>(*cluster_, *fabric_, srm_cfg);
      coll_ = srm_.get();
      break;
    case Impl::mpi_ibm:
      mpi_ = std::make_unique<minimpi::World>(*cluster_, params.mpi_ibm,
                                              "ibm");
      coll_ = mpi_.get();
      break;
    case Impl::mpi_mpich:
      mpi_ = std::make_unique<minimpi::World>(*cluster_, params.mpi_mpich,
                                              "mpich");
      coll_ = mpi_.get();
      break;
  }
  if (sv::selfcheck_enabled()) force_selfcheck();
}

Bench::~Bench() {
  if (sv_finish() != 0) {
    std::fflush(nullptr);
    std::_Exit(3);
  }
}

void Bench::force_selfcheck() {
  sv_armed_ = true;
  coll_->set_trace_sink(&sv_rec_);
}

int Bench::sv_finish() {
  if (sv_done_ || !sv_armed_) return 0;
  sv_done_ = true;
  coll_->set_trace_sink(nullptr);
  if (sv_rec_.empty()) return 0;

  std::string program = std::string("bench:") + coll_->label();
  sv::Diag d = sv::align_ranks(sv_rec_.by_rank());
  if (d.ok && !sv_custom_ && !sv_rec_.by_rank()[0].empty()) {
    sv::Skeleton sk{program, sv::Node{}};
    sk.root.kind = sv::Node::Kind::seq;
    sk.root.kids = sv_frags_;
    d = sv::match_skeleton(sk, sv_rec_.by_rank()[0]);
  }
  d.program = program;
  if (!d.ok) {
    std::fprintf(stderr, "%s\n", d.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "[sv] %s: ok (%zu ranks, %zu calls per rank%s)\n",
               program.c_str(), sv_rec_.by_rank().size(),
               sv_rec_.by_rank()[0].size(),
               sv_custom_ ? ", alignment only" : "");
  return 0;
}

sv::SigPat Bench::planed(sv::SigPat p) const {
  return symbolic_ ? sv::symbolic(p) : sv::real(p);
}

namespace {

/// Instrumentation-only synchronization: every rank suspends until all have
/// arrived, then all resume at the same virtual instant at zero modelled
/// cost. Any real barrier releases ranks in a wave whose shape correlates
/// with the measured operation's own wave and hides part of its latency;
/// a simulator can sidestep that entirely.
struct PerfectSync {
  explicit PerfectSync(sim::Engine& eng, int n)
      : remaining(n), all_here(eng) {}
  int remaining;
  sim::Trigger all_here;

  sim::CoTask arrive() {
    if (--remaining == 0) {
      all_here.fire();
    } else {
      co_await all_here.wait();
    }
  }
};

sim::CoTask measured_body(
    machine::TaskCtx& t, coll::Collectives& coll,
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup, PerfectSync& sync, std::vector<sim::Time>& start,
    std::vector<sim::Time>& end) {
  for (int i = 0; i < warmup; ++i) co_await op(t, coll);
  co_await sync.arrive();
  start[static_cast<std::size_t>(t.rank)] = t.eng->now();
  for (int i = 0; i < iters; ++i) co_await op(t, coll);
  end[static_cast<std::size_t>(t.rank)] = t.eng->now();
}

/// A 1-byte symbolic bcast from rank 0: gives a fresh communicator a
/// symbolic history.
sim::CoTask symbolic_history(machine::TaskCtx& t, coll::Collectives& c) {
  coll::Payload pay(1, 1);
  if (t.rank == 0) pay.fill_pattern(coll::Dtype::kByte, 1);
  co_await c.bcast(t, coll::Buf::symbolic(pay, coll::Dtype::kByte, 1), 0);
}

}  // namespace

double Bench::time_collective(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup) {
  // Unknown body: the self-check can still cross-align ranks, but has no
  // declared skeleton fragment to match against.
  sv_custom_ = true;
  return timed(op, iters, warmup);
}

double Bench::timed_sig(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup, sv::SigPat sig) {
  if (sv_armed_)
    sv_frags_.push_back(sv::loop(warmup + iters, sv::call(sig)));
  return timed(op, iters, warmup);
}

double Bench::timed(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup) {
  auto n = static_cast<std::size_t>(cluster_->topology().nranks());
  std::vector<sim::Time> start(n, 0), end(n, 0);
  PerfectSync sync(cluster_->engine(), static_cast<int>(n));
  cluster_->run([&](machine::TaskCtx& t) {
    return measured_body(t, *coll_, op, iters, warmup, sync, start, end);
  });
  sim::Time t0 = *std::max_element(start.begin(), start.end());
  sim::Time t1 = *std::max_element(end.begin(), end.end());
  SRM_CHECK(t1 >= t0);
  return sim::to_us(t1 - t0) / iters;
}

double Bench::time_bcast(std::size_t bytes, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [bytes, symbolic](machine::TaskCtx& t,
                        coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload pay(1, bytes);
          if (t.rank == 0) pay.fill_pattern(coll::Dtype::kByte, 7);
          co_await c.bcast(
              t, coll::Buf::symbolic(pay, coll::Dtype::kByte, bytes), 0);
        } else {
          std::vector<char> buf(std::max<std::size_t>(bytes, 1),
                                static_cast<char>(t.rank));
          co_await c.bcast(t, coll::Buf::bytes(buf.data(), bytes), 0);
        }
      },
      iters, 2, planed(sv::sig_bcast(coll::Dtype::kByte, bytes, 0)));
}

double Bench::time_reduce(std::size_t count, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [count, symbolic](machine::TaskCtx& t,
                        coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload in(1, count * sizeof(double)), out(in);
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.reduce(t,
                            coll::Buf::symbolic(in, coll::Dtype::f64, count),
                            coll::Buf::symbolic(out, coll::Dtype::f64, count),
                            coll::RedOp::sum, 0);
        } else {
          std::vector<double> in(count, 1.0 * t.rank), out(count, 0.0);
          co_await c.reduce(t, coll::of(in.data(), count),
                            coll::of(out.data(), count), coll::RedOp::sum, 0);
        }
      },
      iters, 2,
      planed(sv::sig_reduce(coll::Dtype::f64, count, coll::RedOp::sum, 0)));
}

double Bench::time_allreduce(std::size_t count, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [count, symbolic](machine::TaskCtx& t,
                        coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload in(1, count * sizeof(double)), out(in);
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.allreduce(
              t, coll::Buf::symbolic(in, coll::Dtype::f64, count),
              coll::Buf::symbolic(out, coll::Dtype::f64, count),
              coll::RedOp::sum);
        } else {
          std::vector<double> in(count, 1.0 * t.rank), out(count, 0.0);
          co_await c.allreduce(t, coll::of(in.data(), count),
                               coll::of(out.data(), count),
                               coll::RedOp::sum);
        }
      },
      iters, 2,
      planed(sv::sig_allreduce(coll::Dtype::f64, count, coll::RedOp::sum)));
}

double Bench::time_barrier(int iters) {
  // The plane switch runs a barrier on the plane of the communicator's
  // history, and a fresh Bench has none: in symbolic mode, one untimed
  // symbolic call first makes the timed barriers symbolic.
  if (symbolic_) {
    if (sv_armed_) {
      sv_frags_.push_back(
          sv::call(sv::symbolic(sv::sig_bcast(coll::Dtype::kByte, 1, 0))));
    }
    cluster_->run(
        [&](machine::TaskCtx& t) { return symbolic_history(t, *coll_); });
  }
  return timed_sig(
      [](machine::TaskCtx& t, coll::Collectives& c) -> sim::CoTask {
        co_await c.barrier(t);
      },
      iters, 3, sv::sig_barrier());
}

double Bench::time_scatter(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [bytes_per, symbolic](machine::TaskCtx& t,
                            coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(t.rank == 0 ? nranks : 0, bytes_per);
          coll::Payload recv(1, bytes_per);
          if (t.rank == 0) send.fill_pattern(coll::Dtype::kByte, 11);
          co_await c.scatter(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per), 0);
        } else {
          std::vector<char> send;
          if (t.rank == 0) send.assign(bytes_per * nranks, 'x');
          std::vector<char> recv(bytes_per, 0);
          co_await c.scatter(t, coll::Buf::bytes(send.data(), bytes_per),
                             coll::Buf::bytes(recv.data(), bytes_per), 0);
        }
      },
      iters, 2, planed(sv::sig_scatter(coll::Dtype::kByte, bytes_per, 0)));
}

double Bench::time_gather(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [bytes_per, symbolic](machine::TaskCtx& t,
                            coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(1, bytes_per);
          coll::Payload recv(t.rank == 0 ? nranks : 0, bytes_per);
          send.fill_pattern(coll::Dtype::kByte,
                            static_cast<std::uint64_t>(t.rank));
          co_await c.gather(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per), 0);
        } else {
          std::vector<char> send(bytes_per, static_cast<char>(t.rank));
          std::vector<char> recv;
          if (t.rank == 0) recv.resize(bytes_per * nranks);
          co_await c.gather(t, coll::Buf::bytes(send.data(), bytes_per),
                            coll::Buf::bytes(recv.data(), bytes_per), 0);
        }
      },
      iters, 2, planed(sv::sig_gather(coll::Dtype::kByte, bytes_per, 0)));
}

double Bench::time_allgather(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  return timed_sig(
      [bytes_per, symbolic](machine::TaskCtx& t,
                            coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(1, bytes_per);
          coll::Payload recv(nranks, bytes_per);
          send.fill_pattern(coll::Dtype::kByte,
                            static_cast<std::uint64_t>(t.rank));
          co_await c.allgather(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per));
        } else {
          std::vector<char> send(bytes_per, static_cast<char>(t.rank));
          std::vector<char> recv(bytes_per * nranks, 0);
          co_await c.allgather(t, coll::Buf::bytes(send.data(), bytes_per),
                               coll::Buf::bytes(recv.data(), bytes_per));
        }
      },
      iters, 2, planed(sv::sig_allgather(coll::Dtype::kByte, bytes_per)));
}

double Bench::time_reduce_scatter(std::size_t bytes_per, int iters) {
  std::size_t count = std::max<std::size_t>(bytes_per / sizeof(double), 1);
  bool symbolic = symbolic_;
  return timed_sig(
      [count, symbolic](machine::TaskCtx& t,
                        coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload in(nranks, count * sizeof(double));
          coll::Payload out(1, count * sizeof(double));
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.reduce_scatter(
              t, coll::Buf::symbolic(in, coll::Dtype::f64, count),
              coll::Buf::symbolic(out, coll::Dtype::f64, count),
              coll::RedOp::sum);
        } else {
          std::vector<double> in(count * nranks, 1.0 * t.rank),
              out(count, 0.0);
          co_await c.reduce_scatter(t, coll::of(in.data(), count),
                                    coll::of(out.data(), count),
                                    coll::RedOp::sum);
        }
      },
      iters, 2,
      planed(sv::sig_reduce_scatter(coll::Dtype::f64, count,
                                    coll::RedOp::sum)));
}

std::string Bench::stats_json(const std::string& bench) const {
  const auto& topo = cluster_->topology();
  std::ostringstream os;
  os << "{\"bench\":\"" << bench << "\",\"impl\":\"" << impl_name(impl_)
     << "\",\"label\":\"" << coll_->label() << "\",\"nodes\":" << topo.nodes()
     << ",\"tasks_per_node\":" << topo.tasks_per_node()
     << ",\"virtual_time_us\":" << sim::to_us(cluster_->engine().now())
     << ",\"events\":" << cluster_->engine().events_processed()
     << ",\"net\":{\"messages\":" << cluster_->network().messages()
     << ",\"bytes\":" << cluster_->network().bytes()
     << "},\"obs\":" << cluster_->obs().counters_json() << "}";
  return os.str();
}

void Bench::emit_stats(const std::string& bench) const {
  std::string json = stats_json(bench);
  std::printf("BENCH_JSON %s\n", json.c_str());
  std::ofstream out("BENCH_" + bench + ".json");
  out << json << "\n";
}

void Bench::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << cluster_->obs().chrome_trace_json() << "\n";
}

std::vector<Candidate> candidates(coll::CollKind op, std::size_t bytes) {
  using coll::Algo;
  using coll::TreeKind;
  const auto bin = TreeKind::binomial;
  const auto bine = TreeKind::bine;
  std::vector<Candidate> out;
  switch (op) {
    case coll::CollKind::bcast:
      out.push_back({"staged", {Algo::staged, false, bin}});
      out.push_back({"staged+bine", {Algo::staged, false, bine}});
      out.push_back({"staged+sc", {Algo::staged, true, bin}});
      out.push_back({"direct", {Algo::direct, false, bin}});
      out.push_back({"direct+sc", {Algo::direct, true, bin}});
      out.push_back({"scatter_ag", {Algo::scatter_ag, false, bin}});
      break;
    case coll::CollKind::reduce:
      out.push_back({"staged", {Algo::staged, false, bin}});
      out.push_back({"staged+bine", {Algo::staged, false, bine}});
      out.push_back({"staged+sc", {Algo::staged, true, bin}});
      break;
    case coll::CollKind::allreduce:
      // No rd+bine variant: recursive doubling is a butterfly, the
      // internode tree never enters its dispatch.
      out.push_back({"rd", {Algo::rd, false, bin}});
      out.push_back({"pipeline", {Algo::pipeline, false, bin}});
      out.push_back({"ring", {Algo::ring, false, bin}});
      out.push_back({"rhalving", {Algo::rhalving, false, bin}});
      break;
    case coll::CollKind::scatter:
      out.push_back({"staged", {Algo::staged, false, bin}});
      out.push_back({"staged+sc", {Algo::staged, true, bin}});
      break;
    case coll::CollKind::gather:
      out.push_back({"staged", {Algo::staged, false, bin}});
      out.push_back({"staged+sc", {Algo::staged, true, bin}});
      break;
    default:
      break;
  }
  std::erase_if(out, [op, bytes](const Candidate& c) {
    return bytes > feasible_max(op, c.d.algo, SrmConfig{});
  });
  return out;
}

std::vector<std::size_t> size_sweep(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t s = lo; s <= hi; s *= 2) v.push_back(s);
  return v;
}

std::vector<int> cpu_sweep() { return {16, 32, 64, 128, 256}; }

void print_table(const std::string& title, const std::string& row_header,
                 const std::vector<std::string>& row_labels,
                 const std::vector<std::string>& col_labels,
                 const std::vector<std::vector<double>>& cells,
                 const std::string& unit) {
  std::printf("\n== %s (%s) ==\n", title.c_str(), unit.c_str());
  std::printf("%12s", row_header.c_str());
  for (const auto& c : col_labels) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::printf("%12s", row_labels[r].c_str());
    for (double v : cells[r]) {
      std::printf(" %12s", util::fmt_us(v).c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace srm::bench
