// Collectives: the abstract operation set shared by SRM and the mini-MPI
// baselines, so benchmarks, examples, and tests can swap implementations.
//
// One signature shape for the whole set, built on the coll::Buf descriptor
// (buf.hpp). The one rule: `Buf::count` is the number of `Buf::dtype`
// elements in ONE rank's block —
//  * bcast/reduce/allreduce: the block is the whole message;
//  * scatter/gather/allgather/reduce_scatter: the rooted/full side spans
//    nranks consecutive blocks (`Buf::block(r)` addresses rank r's), the
//    per-rank side is exactly one block.
// Untyped movement ops pass Dtype::kByte; reductions require a numeric
// Dtype. A Buf is either real (wraps memory) or symbolic (wraps Payload
// digests; transport is cost-modeled).
//
// The public entry points are non-virtual: they validate the per-call
// invariants (root range, dtype/count agreement between send and recv,
// mode agreement, symbolic block-span bounds) at the API boundary.
// Violations throw coll::ValidationError (sig.hpp) naming the op, rank, and
// offending field.
//
// They are also the one plane switch. After validation each call goes to
// exactly one of:
//  * nothing, when its significant block is empty (count 0): no state is
//    built and no message moves;
//  * the symbolic plane: the base's own sym::Transport, run with the
//    backend's cost Profile and the Decision its decide() returns (for
//    allgather the bcast row, for reduce_scatter the reduce row, both at
//    nranks x block bytes), under a "<layer>.<op>" span and chk stage;
//  * the real plane: the backend's protected v_* hook, which runs the real
//    protocol. allgather and reduce_scatter have no hook: the base composes
//    them as v_gather + v_bcast and v_reduce + v_scatter.
// barrier carries no payload, so its plane comes from history: symbolic
// once a symbolic op ran and no real op has, real otherwise. Collective
// calling order makes that choice uniform across ranks.
//
// The same boundary is the observation point for per-call signatures: each
// entry derives a coll::CallSig and hands it to dispatch(), which (a)
// forwards it to an installed TraceSink (the sv verifier's recording shim)
// and (b) when obs tracing is on, wraps the routed task in a
// "coll.<op>" span carrying the signature as span args — so Chrome traces
// of different ranks can be diffed call-by-call.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "coll/buf.hpp"
#include "coll/decision.hpp"
#include "coll/ops.hpp"
#include "coll/sig.hpp"
#include "coll/symbolic.hpp"
#include "coll/tree.hpp"
#include "machine/cluster.hpp"
#include "sim/task.hpp"

namespace srm::coll {

class Collectives {
 public:
  virtual ~Collectives() = default;

  /// Broadcast @p buf (one block) from @p root to every rank.
  sim::CoTask bcast(machine::TaskCtx& t, Buf buf, int root);

  /// Element-wise reduce of one block; @p recv significant at @p root only.
  sim::CoTask reduce(machine::TaskCtx& t, Buf send, Buf recv, RedOp op,
                     int root);
  /// Reduce + result on every rank.
  sim::CoTask allreduce(machine::TaskCtx& t, Buf send, Buf recv, RedOp op);

  sim::CoTask barrier(machine::TaskCtx& t);

  /// Root's @p send spans nranks blocks; every rank receives its block.
  sim::CoTask scatter(machine::TaskCtx& t, Buf send, Buf recv, int root);
  /// Every rank sends one block; root's @p recv spans nranks blocks.
  sim::CoTask gather(machine::TaskCtx& t, Buf send, Buf recv, int root);
  /// gather to everyone: @p recv spans nranks blocks on every rank.
  sim::CoTask allgather(machine::TaskCtx& t, Buf send, Buf recv);
  /// Element-wise reduce of nranks blocks (@p send spans them all); rank r
  /// keeps block r of the result in @p recv (one block).
  sim::CoTask reduce_scatter(machine::TaskCtx& t, Buf send, Buf recv,
                             RedOp op);

  /// Short human-readable implementation tag ("srm", "mpi/ibm", ...).
  virtual std::string label() const = 0;

  /// Decision for (@p op, @p op_bytes). The base runs symbolic calls over
  /// it; the default is the binomial Decision{} of the mini-MPI baselines.
  virtual Decision decide(CollKind op, std::size_t op_bytes) const {
    (void)op;
    (void)op_bytes;
    return {};
  }

  /// Install a per-call signature observer (the sv recording shim). Not
  /// owned; nullptr detaches. The sink sees every validated call, once per
  /// rank, before the backend task starts.
  void set_trace_sink(TraceSink* sink) noexcept { sink_ = sink; }
  TraceSink* trace_sink() const noexcept { return sink_; }

  /// The one tree source of this backend: every tree its real protocols and
  /// its symbolic plane walk, shared by all ranks and calls.
  TreeMemo& trees() noexcept { return trees_; }

 protected:
  /// @p profile: the symbolic plane's cost knobs for this backend; @p layer:
  /// the prefix of the spans and chk stages the base opens itself ("srm",
  /// "mpi").
  Collectives(machine::Cluster& cluster, sym::Profile profile,
              std::string_view layer);

  // Real-plane hooks: descriptors are validated and their significant block
  // is non-empty.
  virtual sim::CoTask v_bcast(machine::TaskCtx& t, Buf buf, int root) = 0;
  virtual sim::CoTask v_reduce(machine::TaskCtx& t, Buf send, Buf recv,
                               RedOp op, int root) = 0;
  virtual sim::CoTask v_allreduce(machine::TaskCtx& t, Buf send, Buf recv,
                                  RedOp op) = 0;
  virtual sim::CoTask v_barrier(machine::TaskCtx& t) = 0;
  virtual sim::CoTask v_scatter(machine::TaskCtx& t, Buf send, Buf recv,
                                int root) = 0;
  virtual sim::CoTask v_gather(machine::TaskCtx& t, Buf send, Buf recv,
                               int root) = 0;

  /// The decision-table row a call runs: its own op at its block bytes,
  /// except that allgather runs its bcast phase and reduce_scatter its
  /// reduce phase, both over nranks blocks.
  struct RowKey {
    CollKind op;
    std::size_t bytes;
  };
  static RowKey row_of(const CallSig& sig, int nranks);

  /// Name of the algorithm the backend will run for @p sig (decision-table
  /// lookup for SRM, the fixed composition for mini-MPI). Called by
  /// dispatch() before the backend task starts; the name is recorded in the
  /// "coll.<op>" obs span args so traces show which zoo member ran. Return
  /// "" (the default) to record nothing.
  virtual std::string v_algo(const machine::TaskCtx& t,
                             const CallSig& sig) const {
    (void)t;
    (void)sig;
    return {};
  }

 private:
  /// Route a validated call with signature @p sig: to nothing, to
  /// @p symbolic (called with the call's Decision) or to @p real, each a
  /// callable that creates the task. Records the plane history barrier
  /// reads.
  template <class Real, class Symbolic>
  sim::CoTask route(machine::TaskCtx& t, const CallSig& sig, Real real,
                    Symbolic symbolic);
  /// @p inner under the "<layer>.<op>" span and chk stage.
  sim::CoTask layer_span(machine::TaskCtx& t, CollKind op, sim::CoTask inner);
  // Real-plane compositions (run under layer_span).
  sim::CoTask gather_bcast(machine::TaskCtx& t, Buf send, Buf recv);
  sim::CoTask reduce_then_scatter(machine::TaskCtx& t, Buf send, Buf recv,
                                  RedOp op);

  /// Record @p sig with the sink, then return @p inner — wrapped in a
  /// span-opening coroutine when obs tracing is enabled, untouched (zero
  /// overhead beyond the sink call) otherwise.
  sim::CoTask dispatch(machine::TaskCtx& t, const CallSig& sig,
                       sim::CoTask inner);

  TraceSink* sink_ = nullptr;
  TreeMemo trees_;
  sym::Transport sym_;
  std::array<const char*, kAllOps.size()> names_;  // "<layer>.<op>"
  bool sym_used_ = false;   // a symbolic call has run
  bool real_used_ = false;  // a real call (or real barrier) has run
};

}  // namespace srm::coll
