// API-boundary validation, the plane switch, and signature dispatch for the
// Collectives entry points.
//
// Every invariant a backend used to assert deep inside protocol code is
// checked here once, before dispatch: root range, send/recv dtype and
// equal-block count agreement, real-vs-symbolic mode agreement, numeric
// dtype for reductions, and symbolic block-span bounds. The wrappers are
// plain functions (not coroutines), so a violated invariant fires at the
// call site, not at first resume; failures throw coll::ValidationError
// carrying {op, rank, field}.
//
// After validation each entry derives the call's CallSig from the side of
// the operation that is significant on every rank and routes it (route()):
// an empty block runs nothing, a symbolic one runs on the base's
// sym::Transport, a real one goes to the backend's v_* hook, or for
// allgather/reduce_scatter to the base's composition of two hooks. The
// routed task then goes through dispatch(): the installed TraceSink (sv's
// recording shim) sees the signature immediately; when obs tracing is on,
// the task is additionally wrapped in a lazily-started "coll.<op>" span
// coroutine whose args carry the signature — the wrapper uses symmetric
// transfer and adds no engine events and no virtual time. A real call adds
// no coroutine frame of its own: the backend's hook is the task.

#include "coll/iface.hpp"

#include <mutex>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "chk/chk.hpp"
#include "obs/obs.hpp"

namespace srm::coll {

namespace {

// Which call, on which rank, a validation failure belongs to.
struct VCtx {
  CollKind op;
  int rank;
};

[[noreturn]] void fail(const VCtx& c, const char* field,
                       const std::string& detail) {
  std::ostringstream os;
  os << coll_name(c.op) << " (rank " << c.rank << "): " << detail;
  throw ValidationError(c.op, c.rank, field, os.str());
}

// One significant Buf: non-empty storage in exactly one mode, and —
// symbolically — enough digest blocks with a matching block size.
void check_buf(const VCtx& c, const Buf& b, int nranks_blocks,
               const char* what) {
  if (b.count == 0) return;
  if (dtype_size(b.dtype) == 0)
    fail(c, "dtype", std::string(what) + ": bad dtype");
  if (b.symbolic()) {
    if (b.data != nullptr)
      fail(c, "mode",
           std::string(what) + ": a Buf is real or symbolic, not both");
    if (b.pay->block_bytes() != b.block_bytes()) {
      std::ostringstream os;
      os << what << ": payload models " << b.pay->block_bytes()
         << "-byte blocks, Buf describes " << b.block_bytes();
      fail(c, "block_bytes", os.str());
    }
    if (b.block0 + static_cast<std::size_t>(nranks_blocks) >
        b.pay->nblocks()) {
      std::ostringstream os;
      os << what << ": payload spans " << b.pay->nblocks()
         << " blocks, op needs "
         << b.block0 + static_cast<std::size_t>(nranks_blocks);
      fail(c, "blocks", os.str());
    }
  } else {
    if (b.data == nullptr) fail(c, "data", std::string(what) + ": null data");
  }
}

// The equal-block invariant between a send/recv pair: same element type,
// same per-block element count, same transport plane.
void check_pair(const VCtx& c, const Buf& s, const Buf& r) {
  if (s.count == 0 && r.count == 0) return;
  if (s.dtype != r.dtype) {
    std::ostringstream os;
    os << "send/recv dtype mismatch: " << dtype_name(s.dtype)
       << " != " << dtype_name(r.dtype);
    fail(c, "dtype", os.str());
  }
  if (s.count != r.count) {
    std::ostringstream os;
    os << "send/recv block mismatch: " << s.count << " != " << r.count
       << " elements per rank block";
    fail(c, "count", os.str());
  }
  if (s.symbolic() != r.symbolic())
    fail(c, "mode", "send/recv mix real and symbolic transport");
}

void check_root(const VCtx& c, const machine::TaskCtx& t, int root) {
  if (root < 0 || root >= t.nranks()) {
    std::ostringstream os;
    os << "root " << root << " out of range [0," << t.nranks() << ")";
    fail(c, "root", os.str());
  }
}

void check_numeric(const VCtx& c, const Buf& b) {
  if (b.dtype == Dtype::kByte)
    fail(c, "numeric", "reductions need a numeric Dtype, not kByte");
}

Plane plane_of(const Buf& b) {
  return b.symbolic() ? Plane::symbolic : Plane::real;
}

// Signature of a call, derived from its always-significant descriptor.
CallSig sig_of(CollKind op, const Buf& b, int root = kNoRoot,
               int red = kNoRed) {
  return CallSig{op, b.dtype, b.count, root, red, plane_of(b)};
}

// Span-wrapping shim: opens an args-carrying span on the rank's timeline
// and forwards to the backend task. Lazy like every CoTask — the span
// opens when the caller first resumes the collective, closes when the
// frame (and the Span inside it) is destroyed after completion. @p algo
// (the backend's v_algo answer) is spliced into the signature args so
// traces name the zoo member that ran.
sim::CoTask traced_call(machine::TaskCtx& t, CallSig sig, std::string algo,
                        sim::CoTask inner) {
  std::string args = sig.args_json();
  if (!algo.empty()) {
    args.pop_back();  // strip the closing '}'
    args += ",\"algo\":\"" + algo + "\"}";
  }
  // cppcheck-suppress unreadVariable  // RAII: closes the span at frame exit
  obs::Span span(*t.obs, t.rank, std::string("coll.") + coll_name(sig.op),
                 std::move(args));
  co_await inner;
}

// Process-lifetime copy of @p name: chk keeps stage-name pointers in its
// access records, which can outlive the Collectives that opened the stage.
const char* intern(std::string name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(std::move(name)).first->c_str();
}

sim::CoTask nothing() { co_return; }

}  // namespace

Collectives::Collectives(machine::Cluster& cluster, sym::Profile profile,
                         std::string_view layer)
    : trees_(cluster.topology(), cluster.params().topo),
      sym_(cluster, profile, trees_) {
  for (CollKind op : kAllOps) {
    names_[static_cast<std::size_t>(op)] =
        intern(std::string(layer) + "." + coll_name(op));
  }
}

Collectives::RowKey Collectives::row_of(const CallSig& sig, int nranks) {
  std::size_t bytes = sig.count * dtype_size(sig.dtype);
  switch (sig.op) {
    case CollKind::allgather:
      return {CollKind::bcast, bytes * static_cast<std::size_t>(nranks)};
    case CollKind::reduce_scatter:
      return {CollKind::reduce, bytes * static_cast<std::size_t>(nranks)};
    default:
      return {sig.op, bytes};
  }
}

template <class Real, class Symbolic>
sim::CoTask Collectives::route(machine::TaskCtx& t, const CallSig& sig,
                               Real real, Symbolic symbolic) {
  if (sig.count == 0) return dispatch(t, sig, nothing());
  if (sig.plane == Plane::symbolic) {
    sym_used_ = true;
    RowKey row = row_of(sig, t.nranks());
    return dispatch(t, sig,
                    layer_span(t, sig.op, symbolic(decide(row.op, row.bytes))));
  }
  real_used_ = true;
  return dispatch(t, sig, real());
}

sim::CoTask Collectives::layer_span(machine::TaskCtx& t, CollKind op,
                                    sim::CoTask inner) {
  const char* name = names_[static_cast<std::size_t>(op)];
  // cppcheck-suppress unreadVariable  // RAII: closes the span at frame exit
  obs::Span span(*t.obs, t.rank, name);
  chk::StageScope stage(t.chk, name);
  co_await inner;
}

sim::CoTask Collectives::gather_bcast(machine::TaskCtx& t, Buf send,
                                      Buf recv) {
  co_await v_gather(t, send, recv, 0);
  recv.count *= static_cast<std::size_t>(t.nranks());  // the whole image
  co_await v_bcast(t, recv, 0);
}

sim::CoTask Collectives::reduce_then_scatter(machine::TaskCtx& t, Buf send,
                                             Buf recv, RedOp op) {
  // All nranks blocks reduce as one vector into rank 0, which scatters it.
  send.count *= static_cast<std::size_t>(t.nranks());
  std::vector<std::byte> tmp;
  Buf acc = recv;
  if (t.rank == 0) {
    tmp.resize(send.block_bytes());
    acc = Buf::wrap(tmp.data(), send.dtype, send.count);
  }
  co_await v_reduce(t, send, acc, op, 0);
  co_await v_scatter(t, Buf::wrap(tmp.data(), recv.dtype, recv.count), recv,
                     0);
}

sim::CoTask Collectives::dispatch(machine::TaskCtx& t, const CallSig& sig,
                                  sim::CoTask inner) {
  if (sink_ != nullptr) sink_->on_call(t.rank, t.nranks(), sig);
  if (t.obs != nullptr && t.obs->trace_enabled())
    return traced_call(t, sig, v_algo(t, sig), std::move(inner));
  return inner;
}

sim::CoTask Collectives::bcast(machine::TaskCtx& t, Buf buf, int root) {
  VCtx c{CollKind::bcast, t.rank};
  check_root(c, t, root);
  check_buf(c, buf, 1, "buf");
  return route(
      t, sig_of(c.op, buf, root), [&] { return v_bcast(t, buf, root); },
      [&](Decision d) { return sym_.bcast(t, buf, root, d); });
}

sim::CoTask Collectives::reduce(machine::TaskCtx& t, Buf send, Buf recv,
                                RedOp op, int root) {
  VCtx c{CollKind::reduce, t.rank};
  check_root(c, t, root);
  check_numeric(c, send);
  check_buf(c, send, 1, "send");
  if (t.rank == root) {
    check_pair(c, send, recv);
    check_buf(c, recv, 1, "recv");
  }
  return route(
      t, sig_of(c.op, send, root, static_cast<int>(op)),
      [&] { return v_reduce(t, send, recv, op, root); },
      [&](Decision d) { return sym_.reduce(t, send, recv, op, root, d); });
}

sim::CoTask Collectives::allreduce(machine::TaskCtx& t, Buf send, Buf recv,
                                   RedOp op) {
  VCtx c{CollKind::allreduce, t.rank};
  check_numeric(c, send);
  check_pair(c, send, recv);
  check_buf(c, send, 1, "send");
  check_buf(c, recv, 1, "recv");
  return route(
      t, sig_of(c.op, send, kNoRoot, static_cast<int>(op)),
      [&] { return v_allreduce(t, send, recv, op); },
      [&](Decision d) { return sym_.allreduce(t, send, recv, op, d); });
}

sim::CoTask Collectives::barrier(machine::TaskCtx& t) {
  if (sym_used_ && !real_used_) {
    return dispatch(
        t, CallSig{},
        layer_span(t, CollKind::barrier,
                   sym_.barrier(t, decide(CollKind::barrier, 0))));
  }
  real_used_ = true;
  return dispatch(t, CallSig{}, v_barrier(t));
}

sim::CoTask Collectives::scatter(machine::TaskCtx& t, Buf send, Buf recv,
                                 int root) {
  VCtx c{CollKind::scatter, t.rank};
  check_root(c, t, root);
  check_buf(c, recv, 1, "recv");
  if (t.rank == root) {
    check_pair(c, send, recv);
    check_buf(c, send, t.nranks(), "send");
  }
  return route(
      t, sig_of(c.op, recv, root),
      [&] { return v_scatter(t, send, recv, root); },
      [&](Decision) { return sym_.scatter(t, send, recv, root); });
}

sim::CoTask Collectives::gather(machine::TaskCtx& t, Buf send, Buf recv,
                                int root) {
  VCtx c{CollKind::gather, t.rank};
  check_root(c, t, root);
  check_buf(c, send, 1, "send");
  if (t.rank == root) {
    check_pair(c, send, recv);
    check_buf(c, recv, t.nranks(), "recv");
  }
  return route(
      t, sig_of(c.op, send, root),
      [&] { return v_gather(t, send, recv, root); },
      [&](Decision) { return sym_.gather(t, send, recv, root); });
}

sim::CoTask Collectives::allgather(machine::TaskCtx& t, Buf send, Buf recv) {
  VCtx c{CollKind::allgather, t.rank};
  check_pair(c, send, recv);
  check_buf(c, send, 1, "send");
  check_buf(c, recv, t.nranks(), "recv");
  return route(
      t, sig_of(c.op, send),
      [&] { return layer_span(t, c.op, gather_bcast(t, send, recv)); },
      [&](Decision d) { return sym_.allgather(t, send, recv, d); });
}

sim::CoTask Collectives::reduce_scatter(machine::TaskCtx& t, Buf send,
                                        Buf recv, RedOp op) {
  VCtx c{CollKind::reduce_scatter, t.rank};
  check_numeric(c, send);
  check_pair(c, send, recv);
  check_buf(c, send, t.nranks(), "send");
  check_buf(c, recv, 1, "recv");
  return route(
      t, sig_of(c.op, recv, kNoRoot, static_cast<int>(op)),
      [&] {
        return layer_span(t, c.op, reduce_then_scatter(t, send, recv, op));
      },
      [&](Decision d) { return sym_.reduce_scatter(t, send, recv, op, d); });
}

}  // namespace srm::coll
