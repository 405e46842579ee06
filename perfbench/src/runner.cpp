#include "runner.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <memory>
#include <vector>

#include "coll/payload.hpp"
#include "core/communicator.hpp"
#include "lapi/lapi.hpp"
#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "sim/pool.hpp"

namespace perfbench {

using srm::coll::Buf;
using srm::coll::Dtype;
using srm::coll::Payload;
using srm::coll::RedOp;
using srm::machine::TaskCtx;
using srm::sim::CoTask;

namespace {

// Reduction inputs come in kClasses distinct vectors: rank r contributes
// class r % kClasses, so the expected result is a weighted class sum.
constexpr int kClasses = 7;

constexpr int kSetupReps = 5;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Small integers keep every f64 sum exact in any association order.
double input_value(std::uint64_t seed, int cls, std::size_t j) {
  return static_cast<double>(
      mix(seed + static_cast<std::uint64_t>(cls) * 0x632BE59BD9B4E019ull, j) %
          9 +
      1);
}

std::byte input_byte(std::uint64_t seed, std::size_t j) {
  return static_cast<std::byte>(mix(seed, j) % 255 + 1);  // never 0
}

bool reduction(Op op) {
  return op == Op::reduce || op == Op::allreduce || op == Op::reduce_scatter;
}

/// Expected results of one (op, bytes) of a point, computed before the
/// batch runs from the generated inputs alone.
struct Expect {
  std::vector<std::byte> bytes;  // bcast image, or nranks blocks
  std::array<std::vector<double>, kClasses> in;  // class inputs
  std::vector<double> sum;                       // expected reduction
  Payload sym;  // symbolic reference (bcast fill or reduction result)
};

std::uint64_t sym_seed(std::uint64_t data, int cls) {
  return data + static_cast<std::uint64_t>(cls);
}

Expect make_expect(const Point& p, const Call& c) {
  Expect e;
  const int P = p.nranks();
  const auto nblocks = static_cast<std::size_t>(P);
  if (p.symbolic) {
    if (c.op == Op::bcast) {
      e.sym = Payload(1, c.bytes);
      e.sym.fill_pattern(Dtype::kByte, p.data_seed);
    } else {
      std::vector<Payload> cls;
      for (int k = 0; k < kClasses; ++k) {
        cls.emplace_back(1, c.bytes);
        cls.back().fill_pattern(Dtype::f64, sym_seed(p.data_seed, k));
      }
      e.sym = cls[0];
      for (int r = 1; r < P; ++r) {
        e.sym.combine_blocks(cls[static_cast<std::size_t>(r % kClasses)], 0,
                             0, 1, Dtype::f64, RedOp::sum);
      }
    }
    return e;
  }
  if (reduction(c.op)) {
    std::size_t n = c.bytes / sizeof(double);
    if (c.op == Op::reduce_scatter) n *= nblocks;
    std::array<double, kClasses> weight{};
    for (int r = 0; r < P; ++r) weight[static_cast<std::size_t>(r % kClasses)] += 1.0;
    e.sum.assign(n, 0.0);
    for (int k = 0; k < kClasses; ++k) {
      auto& v = e.in[static_cast<std::size_t>(k)];
      v.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        v[j] = input_value(p.data_seed, k, j);
        e.sum[j] += weight[static_cast<std::size_t>(k)] * v[j];
      }
    }
  } else if (c.op != Op::barrier) {
    std::size_t n = c.op == Op::bcast ? c.bytes : c.bytes * nblocks;
    e.bytes.resize(n);
    for (std::size_t j = 0; j < n; ++j) e.bytes[j] = input_byte(p.data_seed, j);
  }
  return e;
}

/// Shared state of one batch: the expected results, the per-rank call
/// cursor and buffers, and per-call completion/failure marks.
struct Batch {
  const Point& p;
  bool time_fills;
  std::map<std::pair<Op, std::size_t>, Expect> expect;
  std::vector<std::size_t> next;
  std::vector<int> done;
  std::vector<char> wrong;
  struct Bufs {
    std::vector<std::byte> a;
    std::vector<double> in, out;
  };
  std::vector<Bufs> bufs;
  std::uint64_t fills = 0, fill_elems = 0, fill_ns = 0, live_peak = 0;

  explicit Batch(const Point& pt, bool tf)
      : p(pt),
        time_fills(tf),
        next(static_cast<std::size_t>(pt.nranks()), 0),
        done(pt.calls.size(), 0),
        wrong(pt.calls.size(), 0),
        bufs(static_cast<std::size_t>(pt.nranks())) {}

  void fill(Payload& pay, Dtype d, std::uint64_t seed) {
    std::uint64_t t0 = time_fills ? cpu_ns() : 0;
    pay.fill_pattern(d, seed);
    if (time_fills) fill_ns += cpu_ns() - t0;
    ++fills;
    fill_elems += pay.block_bytes() / srm::coll::dtype_size(d);
    live_peak = std::max(live_peak, Payload::live_bytes());
  }
};

template <class T>
T* sized(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

CoTask symbolic_call(TaskCtx& t, srm::coll::Collectives& c, Batch& b,
                     const Call& call, const Expect& e, std::size_t i) {
  const std::size_t bytes = call.bytes;
  if (call.op == Op::bcast) {
    Payload pay(1, bytes);
    if (t.rank == call.root) b.fill(pay, Dtype::kByte, b.p.data_seed);
    co_await c.bcast(t, Buf::symbolic(pay, Dtype::kByte, bytes), call.root);
    if (!pay.identical_to(e.sym)) b.wrong[i] = 1;
    co_return;
  }
  const std::size_t count = bytes / sizeof(double);
  Payload in(1, bytes), out(1, bytes);
  b.fill(in, Dtype::f64, sym_seed(b.p.data_seed, t.rank % kClasses));
  if (call.op == Op::reduce) {
    co_await c.reduce(t, Buf::symbolic(in, Dtype::f64, count),
                      Buf::symbolic(out, Dtype::f64, count), RedOp::sum,
                      call.root);
    if (t.rank == call.root && !out.identical_to(e.sym)) b.wrong[i] = 1;
  } else {
    co_await c.allreduce(t, Buf::symbolic(in, Dtype::f64, count),
                         Buf::symbolic(out, Dtype::f64, count), RedOp::sum);
    if (!out.identical_to(e.sym)) b.wrong[i] = 1;
  }
}

CoTask real_call(TaskCtx& t, srm::coll::Collectives& c, Batch& b,
                 const Call& call, const Expect& e, std::size_t i) {
  const auto r = static_cast<std::size_t>(t.rank);
  const auto P = static_cast<std::size_t>(t.nranks());
  const std::size_t bytes = call.bytes;
  Batch::Bufs& m = b.bufs[r];
  switch (call.op) {
    case Op::barrier:
      co_await c.barrier(t);
      break;
    case Op::bcast: {
      std::byte* buf = sized(m.a, bytes);
      if (t.rank == call.root) {
        std::memcpy(buf, e.bytes.data(), bytes);
      } else {
        std::memset(buf, 0, bytes);
      }
      co_await c.bcast(t, Buf::bytes(buf, bytes), call.root);
      if (std::memcmp(buf, e.bytes.data(), bytes) != 0) b.wrong[i] = 1;
      break;
    }
    case Op::reduce:
    case Op::allreduce:
    case Op::reduce_scatter: {
      const std::size_t count = bytes / sizeof(double);
      const std::vector<double>& src = e.in[r % kClasses];
      double* in = sized(m.in, src.size());
      double* out = sized(m.out, count);
      std::memcpy(in, src.data(), src.size() * sizeof(double));
      std::memset(out, 0, count * sizeof(double));
      const double* want = e.sum.data();
      bool check = true;
      if (call.op == Op::reduce) {
        co_await c.reduce(t, srm::coll::of(in, count),
                          srm::coll::of(out, count), RedOp::sum, call.root);
        check = t.rank == call.root;
      } else if (call.op == Op::allreduce) {
        co_await c.allreduce(t, srm::coll::of(in, count),
                             srm::coll::of(out, count), RedOp::sum);
      } else {
        co_await c.reduce_scatter(t, srm::coll::of(in, count),
                                  srm::coll::of(out, count), RedOp::sum);
        want += r * count;
      }
      if (check && std::memcmp(out, want, count * sizeof(double)) != 0) {
        b.wrong[i] = 1;
      }
      break;
    }
    case Op::scatter: {
      std::byte* recv = sized(m.a, bytes);
      std::memset(recv, 0, bytes);
      co_await c.scatter(t, Buf::bytes(e.bytes.data(), bytes),
                         Buf::bytes(recv, bytes), call.root);
      if (std::memcmp(recv, e.bytes.data() + r * bytes, bytes) != 0) {
        b.wrong[i] = 1;
      }
      break;
    }
    case Op::gather: {
      const bool root = t.rank == call.root;
      std::byte* recv = root ? sized(m.a, bytes * P) : nullptr;
      if (root) std::memset(recv, 0, bytes * P);
      co_await c.gather(t, Buf::bytes(e.bytes.data() + r * bytes, bytes),
                        Buf::bytes(recv, bytes), call.root);
      if (root && std::memcmp(recv, e.bytes.data(), bytes * P) != 0) {
        b.wrong[i] = 1;
      }
      break;
    }
    case Op::allgather: {
      std::byte* recv = sized(m.a, bytes * P);
      std::memset(recv, 0, bytes * P);
      co_await c.allgather(t, Buf::bytes(e.bytes.data() + r * bytes, bytes),
                           Buf::bytes(recv, bytes));
      if (std::memcmp(recv, e.bytes.data(), bytes * P) != 0) b.wrong[i] = 1;
      break;
    }
  }
}

/// One call of the batch: rank t.rank's next call in the point's sequence.
CoTask next_call(TaskCtx& t, srm::coll::Collectives& c, Batch& b) {
  std::size_t i = b.next[static_cast<std::size_t>(t.rank)]++;
  const Call& call = b.p.calls[i];
  const Expect& e = b.expect.at({call.op, call.bytes});
  if (b.p.symbolic) {
    co_await symbolic_call(t, c, b, call, e, i);
  } else {
    co_await real_call(t, c, b, call, e, i);
  }
  ++b.done[i];
}

srm::machine::MachineParams params_of(const Point& p) {
  return p.profile == Profile::modern_smp
             ? srm::machine::MachineParams::modern_smp()
             : srm::machine::MachineParams::ibm_sp();
}

srm::SrmConfig config_of(const Point& p) {
  srm::SrmConfig cfg;
  cfg.single_copy = p.single_copy;
  return cfg;
}

/// Per rank, the virtual time each span family owns as the innermost open
/// span (self time); returns the slowest rank's value per family, in us.
void aggregate_spans(const std::vector<srm::obs::SpanRec>& spans, int nranks,
                     PointResult& res) {
  std::vector<std::vector<std::size_t>> by_rank(static_cast<std::size_t>(nranks));
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const auto& rec = spans[s];
    if (rec.rank >= 0 && rec.rank < nranks) {
      by_rank[static_cast<std::size_t>(rec.rank)].push_back(s);
    }
    if (rec.name.rfind("coll.", 0) == 0) {
      auto at = rec.args.find("\"algo\":\"");
      if (at != std::string::npos) {
        at += 8;
        res.algos.insert(rec.name.substr(5) + ":" +
                         rec.args.substr(at, rec.args.find('"', at) - at));
      }
    }
  }
  res.spans += spans.size();
  std::map<std::string, double> worst;
  struct Edge {
    srm::sim::Time t;
    bool open;
    std::size_t span;
  };
  for (const auto& idx : by_rank) {
    std::vector<Edge> edges;
    edges.reserve(idx.size() * 2);
    for (std::size_t s : idx) {
      if (spans[s].open) continue;
      edges.push_back({spans[s].begin, true, s});
      edges.push_back({spans[s].end, false, s});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.t != b.t ? a.t < b.t : a.open < b.open;
    });
    if (edges.empty()) continue;
    // Innermost = latest-begun open span (ties: latest recorded).
    std::set<std::pair<srm::sim::Time, std::size_t>> open;
    std::map<std::string, double> self;
    srm::sim::Time prev = edges.front().t;
    for (const Edge& e : edges) {
      if (!open.empty() && e.t > prev) {
        const std::string& name = spans[open.rbegin()->second].name;
        self[name.substr(0, name.find('.'))] +=
            srm::sim::to_us(e.t - prev);
      }
      prev = e.t;
      if (e.open) {
        open.insert({spans[e.span].begin, e.span});
      } else {
        open.erase({spans[e.span].begin, e.span});
      }
    }
    for (const auto& [fam, us] : self) {
      worst[fam] = std::max(worst[fam], us);
    }
  }
  for (const auto& [fam, us] : worst) res.family_us[fam] += us;
}

}  // namespace

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

PointResult run_point(const Point& p, bool traced, HostSpans& hs) {
  PointResult res;
  Batch batch(p, traced);
  {
    HostSpans::Scope s(hs, "bench.expected");
    for (const Call& c : p.calls) {
      auto key = std::make_pair(c.op, c.bytes);
      if (batch.expect.count(key) == 0) batch.expect.emplace(key, make_expect(p, c));
    }
  }

  // Set up kSetupReps times and keep the fastest: one construction is tens
  // of microseconds, too short to time once on a shared host.
  std::unique_ptr<srm::bench::Bench> bench;
  res.setup_ns = ~std::uint64_t{0};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();
    HostSpans::Scope s(hs, "bench.setup");
    std::uint64_t t0 = cpu_ns();
    bench = std::make_unique<srm::bench::Bench>(p.impl, p.nodes, p.tpn,
                                                config_of(p), params_of(p));
    res.setup_ns = std::min(res.setup_ns, cpu_ns() - t0);
  }
  bench->set_symbolic(p.symbolic);
  srm::obs::Registry& reg = bench->obs();
  reg.set_trace_enabled(traced);
  srm::sim::Engine& eng = bench->cluster().engine();

  const int iters = static_cast<int>(p.calls.size()) - p.warmup;
  const std::uint64_t ev0 = eng.events_processed();
  const auto fp0 = srm::sim::FramePool::stats();
  const std::uint64_t a0 = allocs();
  {
    HostSpans::Scope s(hs, "bench.time_collective");
    std::uint64_t t0 = cpu_ns();
    try {
      res.vt_us = bench->time_collective(
          [&batch](TaskCtx& t, srm::coll::Collectives& c) {
            return next_call(t, c, batch);
          },
          iters, p.warmup);
    } catch (const std::exception& ex) {
      res.threw = true;
      res.error = ex.what();
    }
    res.run_ns = cpu_ns() - t0;
  }
  res.allocs = allocs() - a0;
  const auto fp1 = srm::sim::FramePool::stats();
  res.frames_alloc = fp1.allocs - fp0.allocs;
  res.frames_reused = fp1.reused - fp0.reused;
  res.events = eng.events_processed() - ev0;
  res.fills = batch.fills;
  res.fill_elems = batch.fill_elems;
  res.fill_ns = batch.fill_ns;
  res.live_peak_bytes = batch.live_peak;

  res.attempted = p.calls.size();
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < p.calls.size(); ++i) {
    if (batch.done[i] == p.nranks() && batch.wrong[i] == 0) ++ok;
  }
  res.failed = res.attempted - ok;

  res.net_msgs = bench->cluster().network().messages();
  res.net_bytes = bench->cluster().network().bytes();
  std::uint64_t h = fnv(0xcbf29ce484222325ull, p.label().data(), p.label().size());
  h = fnv(h, &res.failed, sizeof res.failed);
  if (!res.threw) h = fnv(h, &res.vt_us, sizeof res.vt_us);
  h = fnv(h, &res.events, sizeof res.events);
  h = fnv(h, &res.net_msgs, sizeof res.net_msgs);
  h = fnv(h, &res.net_bytes, sizeof res.net_bytes);
  for (const std::string& name : reg.names()) {
    srm::obs::Counter c = reg.total(name);
    res.counts[name] = c.count;
    res.values[name] = c.value;
    h = fnv(h, name.data(), name.size());
    h = fnv(h, &c.count, sizeof c.count);
    h = fnv(h, &c.value, sizeof c.value);
  }
  res.digest = h;

  if (traced) {
    HostSpans::Scope s(hs, "obs.aggregate");
    aggregate_spans(reg.spans(), p.nranks(), res);
    reg.clear_spans();
  }
  {
    HostSpans::Scope s(hs, "bench.teardown");
    bench.reset();
  }
  return res;
}

SetupProbe probe_setup(const Point& p, HostSpans& hs) {
  SetupProbe out;
  srm::machine::ClusterConfig cc;
  cc.nodes = p.nodes;
  cc.tasks_per_node = p.tpn;
  cc.params = params_of(p);
  std::uint64_t t0 = cpu_ns();
  std::unique_ptr<srm::machine::Cluster> cluster;
  {
    HostSpans::Scope s(hs, "probe.cluster");
    cluster = std::make_unique<srm::machine::Cluster>(cc);
  }
  out.cluster_ns = cpu_ns() - t0;
  if (p.impl == srm::bench::Impl::srm) {
    t0 = cpu_ns();
    std::unique_ptr<srm::lapi::Fabric> fabric;
    {
      HostSpans::Scope s(hs, "probe.fabric");
      fabric = std::make_unique<srm::lapi::Fabric>(*cluster);
    }
    out.fabric_ns = cpu_ns() - t0;
    t0 = cpu_ns();
    std::unique_ptr<srm::Communicator> comm;
    {
      HostSpans::Scope s(hs, "probe.communicator");
      comm = std::make_unique<srm::Communicator>(*cluster, *fabric,
                                                 config_of(p));
    }
    out.comm_ns = cpu_ns() - t0;
  } else {
    const bool ibm = p.impl == srm::bench::Impl::mpi_ibm;
    t0 = cpu_ns();
    std::unique_ptr<srm::minimpi::World> world;
    {
      HostSpans::Scope s(hs, "probe.world");
      world = std::make_unique<srm::minimpi::World>(
          *cluster, ibm ? cc.params.mpi_ibm : cc.params.mpi_mpich,
          ibm ? "ibm" : "mpich");
    }
    out.world_ns = cpu_ns() - t0;
  }
  return out;
}

}  // namespace perfbench
