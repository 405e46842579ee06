// coll::CallSig — the per-call collective signature observed at the
// Collectives NVI boundary, plus the structured ValidationError thrown when
// a call violates the boundary invariants and the TraceSink hook the sv
// verifier's recording shim plugs into.
//
// A signature is the tuple {op, dtype, elements-per-rank-block, root, RedOp,
// payload plane} that must be identical across ranks for the paper's
// handshakes to line up. It is derived from the *always-significant* side of
// each operation (the side every rank must describe consistently): the recv
// block for scatter/reduce_scatter, the send block for gather/allgather/
// reduce/allreduce, the one buffer for bcast, nothing for barrier.
//
// Consumers:
//  * srm::sv records one CallSig per rank per call and lockstep-compares
//    the per-rank sequences (src/sv/trace.hpp);
//  * obs spans at the dispatch boundary carry args_json() so Chrome traces
//    of different ranks can be diffed call-by-call;
//  * boundary validation failures carry the op / rank / offending field as
//    data, so tests and callers match on structure instead of message text.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "coll/ops.hpp"
#include "util/check.hpp"

namespace srm::coll {

/// The eight operations of the Collectives interface.
enum class CollKind : std::uint8_t {
  bcast,
  reduce,
  allreduce,
  barrier,
  scatter,
  gather,
  allgather,
  reduce_scatter,
};
const char* coll_name(CollKind k);
/// Every CollKind, in enum order.
inline constexpr std::array<CollKind, 8> kAllOps = {
    CollKind::bcast,     CollKind::reduce,    CollKind::allreduce,
    CollKind::barrier,   CollKind::scatter,   CollKind::gather,
    CollKind::allgather, CollKind::reduce_scatter,
};

/// Which transport plane a call's descriptors select. Barrier carries no
/// payload and is always Plane::none.
enum class Plane : std::uint8_t { real, symbolic, none };
const char* plane_name(Plane p);

inline constexpr int kNoRoot = -1;  ///< unrooted ops (allreduce, barrier, ...)
inline constexpr int kNoRed = -1;   ///< non-reductions

struct CallSig {
  CollKind op = CollKind::barrier;
  Dtype dtype = Dtype::kByte;
  std::size_t count = 0;  ///< elements in one rank block
  int root = kNoRoot;
  int red = kNoRed;  ///< static_cast<int>(RedOp) or kNoRed
  Plane plane = Plane::none;

  bool operator==(const CallSig&) const = default;

  /// "reduce(f64 x64, sum, root 0, real)" — the diagnostic rendering.
  std::string to_string() const;
  /// JSON object for obs span args: {"op":"reduce","dtype":"f64",...}.
  std::string args_json() const;
};

/// Boundary-validation failure: which op, on which rank, which field of the
/// call was wrong. Derives from util::CheckError so existing catch sites
/// keep working; the structured fields are for sv / tests / callers that
/// want to match on diagnostics instead of message text.
///
/// Field names used by the boundary checks in iface.cpp:
///   "root"        root outside [0, nranks)
///   "dtype"       send/recv element types disagree, or a bad Dtype
///   "count"       send/recv per-rank block counts disagree
///   "numeric"     byte-typed reduction
///   "mode"        real and symbolic descriptors mixed in one call
///   "data"        null data pointer on a significant real descriptor
///   "blocks"      symbolic block span exceeds the payload's digest store
///   "block_bytes" payload block size does not match the descriptor's
class ValidationError : public util::CheckError {
 public:
  ValidationError(CollKind op, int rank, std::string field,
                  const std::string& what)
      : util::CheckError(what),
        op_(op),
        rank_(rank),
        field_(std::move(field)) {}

  CollKind op() const noexcept { return op_; }
  int rank() const noexcept { return rank_; }
  const std::string& field() const noexcept { return field_; }

 private:
  CollKind op_;
  int rank_;
  std::string field_;
};

/// Observer of the signature stream at the Collectives NVI boundary. One
/// sink per Collectives instance; installed with set_trace_sink. Called
/// after validation, before dispatch, once per rank per call.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_call(int rank, int nranks, const CallSig& sig) = 0;
};

}  // namespace srm::coll
