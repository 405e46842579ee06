// Workload definitions: each workload is a fixed list of points generated
// from the workload seed. A point is one fresh bench::Bench plus one timed
// batch of collective calls, closed loop (every rank issues its next call
// only when the previous one returned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.hpp"

namespace perfbench {

enum class Op {
  bcast,
  reduce,
  allreduce,
  barrier,
  scatter,
  gather,
  allgather,
  reduce_scatter
};
const char* op_name(Op op);

/// One collective call. @p bytes is the size of one rank block (the
/// coll::Buf sizing rule); reductions move f64 elements, the rest bytes.
struct Call {
  Op op = Op::barrier;
  std::size_t bytes = 0;
  int root = 0;
};

enum class Profile { ibm_sp, modern_smp };

struct Point {
  std::string cell;  ///< shape/op/size/root key shared by paired points
  srm::bench::Impl impl = srm::bench::Impl::srm;
  Profile profile = Profile::ibm_sp;
  int nodes = 1;
  int tpn = 1;
  bool symbolic = false;
  bool single_copy = false;
  std::uint64_t data_seed = 0;  ///< payload values of every call
  int warmup = 1;
  std::vector<Call> calls;  ///< warmup calls first, then the timed ones

  int nranks() const { return nodes * tpn; }
  std::string label() const;
};

struct Workload {
  std::string name;
  /// How much more this workload's host time moves than the calibration
  /// sample's as the host's load changes: the log-log slope of its raw
  /// pass time on the sample. The simulator's working set spills out of
  /// the private caches that the sample stays in, so the slope exceeds 1.
  double calib_slope = 1.0;
  std::vector<Point> points;
};

/// The points of @p name for @p seed; @p smoke shrinks shapes and sizes to
/// a run of a few seconds that still prints every metric. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

}  // namespace perfbench
