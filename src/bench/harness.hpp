// Benchmark harness: builds simulated clusters with the paper's testbed
// shape, drives SRM and the two mini-MPI baselines through the shared
// coll::Collectives interface (both implement it natively — no adapters),
// measures collective latency in virtual time (the average of repeated
// back-to-back calls, as in the paper's 1000-call methodology), prints
// figure-shaped tables, and exports machine-readable srm::obs stats.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/iface.hpp"
#include "core/communicator.hpp"
#include "lapi/lapi.hpp"
#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "sv/sv.hpp"

namespace srm::bench {

/// Which implementation an experiment runs.
enum class Impl { srm, mpi_ibm, mpi_mpich };

const char* impl_name(Impl i);

/// One self-contained experiment environment: a fresh simulated cluster
/// (16-way nodes by default, like the paper's SP) plus one implementation.
///
/// Payload plane: the canned time_* operations drive real buffers by
/// default; set SRM_SYMBOLIC=1 in the environment (or call
/// set_symbolic(true)) and they drive coll::Payload digests instead — same
/// protocols, same cost model, O(active blocks) memory — which is what makes
/// mega-scale topologies (4096 nodes x 64 tasks) benchable.
/// Self-checking (srm::sv): with SRM_SV_SELFCHECK=1 in the environment (or
/// after force_selfcheck()), the harness installs the sv recording shim at
/// the Collectives boundary; every canned time_* also appends its expected
/// skeleton fragment (a warmup+iters loop of one signature). The destructor
/// cross-aligns the recorded per-rank sequences, matches them against the
/// accumulated skeleton (unless a custom time_collective body ran —
/// alignment only, its shape is unknown), and terminates the process with
/// status 3 on a diagnostic, so `sv_verify programs` catches divergent
/// bench programs by exit code.
class Bench {
 public:
  Bench(Impl impl, int nodes, int tasks_per_node,
        SrmConfig srm_cfg = {},
        machine::MachineParams params = machine::MachineParams::ibm_sp());
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;
  ~Bench();

  machine::Cluster& cluster() { return *cluster_; }
  obs::Registry& obs() { return cluster_->obs(); }
  coll::Collectives& coll() { return *coll_; }
  Impl impl() const { return impl_; }

  /// Symbolic-payload mode for the canned operations (default: the
  /// SRM_SYMBOLIC environment switch; "0"/"" = off, anything else = on).
  bool symbolic() const { return symbolic_; }
  void set_symbolic(bool on) { symbolic_ = on; }

  /// Average virtual-time latency (us) of `op` over `iters` back-to-back
  /// calls, after `warmup` unmeasured calls. The reported value is the
  /// slowest rank's elapsed time divided by the iteration count.
  double time_collective(
      const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
          op,
      int iters = 5, int warmup = 2);

  // Canned operations.
  double time_bcast(std::size_t bytes, int iters = 5);
  double time_reduce(std::size_t count_doubles, int iters = 5);
  double time_allreduce(std::size_t count_doubles, int iters = 5);
  /// In symbolic mode, first one untimed 1-byte symbolic bcast, so the
  /// plane switch times the symbolic barrier.
  double time_barrier(int iters = 10);
  double time_scatter(std::size_t bytes_per, int iters = 4);
  double time_gather(std::size_t bytes_per, int iters = 4);
  double time_allgather(std::size_t bytes_per, int iters = 4);
  double time_reduce_scatter(std::size_t bytes_per, int iters = 4);

  /// Machine-readable stats block: configuration, virtual time, simulator
  /// event count, network totals, and the full srm::obs counter export.
  std::string stats_json(const std::string& bench) const;

  /// Print the stats block to stdout (prefixed "BENCH_JSON ") and write it
  /// to BENCH_<bench>.json in the working directory.
  void emit_stats(const std::string& bench) const;

  /// Write the recorded span timeline as Chrome trace-event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev). Only meaningful when
  /// obs().set_trace_enabled(true) was on during the run.
  void write_chrome_trace(const std::string& path) const;

  /// Arm the sv self-check regardless of SRM_SV_SELFCHECK (for tests).
  /// Must be called before the first timed operation.
  void force_selfcheck();
  /// Run the sv checks over everything recorded so far and report (0 = ok,
  /// 1 = diagnostic printed to stderr). Called implicitly by the
  /// destructor, which turns a nonzero result into process exit status 3.
  int sv_finish();

 private:
  double timed(
      const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
          op,
      int iters, int warmup);
  double timed_sig(
      const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
          op,
      int iters, int warmup, sv::SigPat sig);
  sv::SigPat planed(sv::SigPat p) const;

  Impl impl_;
  bool symbolic_ = false;
  std::unique_ptr<machine::Cluster> cluster_;
  std::unique_ptr<lapi::Fabric> fabric_;
  std::unique_ptr<Communicator> srm_;
  std::unique_ptr<minimpi::World> mpi_;
  coll::Collectives* coll_ = nullptr;  // -> srm_ or mpi_

  sv::Recorder sv_rec_;
  std::vector<sv::Node> sv_frags_;  // expected fragments, one per canned op
  bool sv_armed_ = false;
  bool sv_custom_ = false;  // a custom op ran: skip the skeleton match
  bool sv_done_ = false;
};

/// Iteration count that keeps large-message sweeps affordable in real time;
/// the simulator is deterministic, so few iterations lose no precision.
inline int iters_for(std::size_t bytes) {
  if (bytes <= 64 * 1024) return 4;
  if (bytes <= (1u << 20)) return 2;
  return 1;
}

/// The paper's message-size sweep: 8 B ... 8 MB, powers of two.
std::vector<std::size_t> size_sweep(std::size_t lo = 8,
                                    std::size_t hi = 8u << 20);

/// The paper's processor configurations at 16 tasks/node.
std::vector<int> cpu_sweep();  // {16, 32, 64, 128, 256}

/// One algorithm the tuner times, forced through a single-row decision
/// table. A mapped row (d.mapped) only binds with SrmConfig::single_copy on.
struct Candidate {
  std::string label;  ///< "ring", "staged+bine", "staged+sc", ...
  coll::Decision d;
};

/// The tuner's candidate menu for @p op (bcast, reduce, allreduce, scatter,
/// gather; empty for the rest). Candidates past their feasible_max at
/// @p bytes (rd above the exchange slot, staged bcast above the shared
/// buffer) would be sanitized into a different algorithm, so they are left
/// out rather than measured under a false label.
std::vector<Candidate> candidates(coll::CollKind op, std::size_t bytes);

/// Print a series table: rows = sizes, one column per (labelled) series.
void print_table(const std::string& title, const std::string& row_header,
                 const std::vector<std::string>& row_labels,
                 const std::vector<std::string>& col_labels,
                 const std::vector<std::vector<double>>& cells,
                 const std::string& unit);

}  // namespace srm::bench
