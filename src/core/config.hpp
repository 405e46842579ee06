// SrmConfig: the protocol sizes and tuning knobs from the paper, plus the
// sanitize step that fits a decision-table row to those sizes.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

#include "coll/decision.hpp"
#include "coll/tree.hpp"

namespace srm {

struct SrmConfig {
  /// Algorithm-selection table: every algorithm, mapped flag and inter-node
  /// tree a Communicator dispatches comes from here. Empty (the default)
  /// means the Communicator resolves one at construction: the SRM_DECISIONS
  /// env var if set (a tuner JSON artifact), else the builtin table for the
  /// machine profile. A non-empty table here wins over both (tests, the
  /// tuner and the ablations forcing a path).
  coll::DecisionTable decisions;
  /// Size of each of the two shared-memory broadcast buffers A/B (Fig. 3).
  /// A staged broadcast larger than one buffer is dispatched to the direct
  /// protocol instead (sanitize below). Must hold one reduce_chunk: the rd
  /// allreduce publishes its whole result through one buffer.
  std::size_t smp_buf_bytes = 64 * 1024;

  /// Within the small protocol, messages in (pipe_min, pipe_max] are split
  /// into pipe_chunk pieces and pipelined over the two buffers (§2.4:
  /// "messages larger than 8 KB and smaller than 32 KB are split into 4 KB
  /// chunks").
  std::size_t bcast_pipe_min = 8 * 1024;
  std::size_t bcast_pipe_max = 32 * 1024;
  std::size_t bcast_pipe_chunk = 4 * 1024;

  /// Chunk size of the large-message broadcast / SMP publish pipeline.
  std::size_t bcast_net_chunk = 64 * 1024;

  /// Reduce pipeline chunk (intra-node slots and inter-node landing zones).
  /// It also sizes the recursive-doubling exchange slots, so it caps the rd
  /// allreduce (sanitize below), and bounds the small-reduce band in which
  /// interrupts are managed (§2.3).
  std::size_t reduce_chunk = 16 * 1024;

  /// Intra-node reduce tree.
  coll::TreeKind intranode_tree = coll::TreeKind::binomial;

  /// Single-copy cross-mapped intra-node protocols (shm::Mapping): rows of
  /// the decision table with the mapped column set export user-buffer
  /// windows and copy/combine directly across address spaces over the
  /// topology tree (machine::TopologyParams), skipping the staged Fig. 2/3
  /// buffers. Off by default: the paper-faithful 2-copy path is the baseline
  /// and stays ablatable, and the mapped column only takes effect when this
  /// master enable is set.
  bool single_copy = false;

  /// Ablation: use a single shared buffer instead of the A/B pair
  /// (disables the two-stage pipeline of Fig. 3).
  bool use_two_buffers = true;

  /// Ablation: tree-structured shared-memory broadcast instead of the flat
  /// two-buffer algorithm the paper found fastest (§2.2).
  bool smp_bcast_tree = false;

  /// Disable interrupts on entry to small-message collectives and re-enable
  /// on exit (§2.3). Turning this off leaves interrupts always enabled.
  bool manage_interrupts = true;
};

/// A resolved table plus where it came from: which precedence branch won
/// ("config" | "env" | "builtin") and its identifying detail (the artifact
/// path for env, the profile name otherwise).
struct ResolvedTable {
  coll::DecisionTable table;
  const char* source = "builtin";
  std::string detail;
};

/// The one table-source precedence, shared by the Communicator and the
/// analytical model: an explicit config table is used verbatim; an
/// SRM_DECISIONS artifact is used verbatim; otherwise the builtin table for
/// @p profile (ibm_sp for unknown profiles). Defined in
/// core/communicator.cpp.
ResolvedTable resolve_table(const SrmConfig& cfg, std::string_view profile);

/// Largest byte count at which @p algo can run @p op under @p cfg: a staged
/// broadcast moves at most one Fig. 3 buffer per step, and recursive
/// doubling exchanges whole vectors through slots of one reduce chunk.
/// Every other algorithm runs at any size.
inline std::size_t feasible_max(coll::CollKind op, coll::Algo algo,
                                const SrmConfig& cfg) {
  if (op == coll::CollKind::bcast && algo == coll::Algo::staged) {
    return cfg.smp_buf_bytes;
  }
  if (op == coll::CollKind::allreduce && algo == coll::Algo::rd) {
    return cfg.reduce_chunk;
  }
  return std::numeric_limits<std::size_t>::max();
}

/// The sanitize step every dispatcher applies to a table row at @p bytes:
/// an algorithm the op has no implementation of, or one past its
/// feasible_max, falls back to the op's always-feasible protocol (direct
/// bcast, pipelined allreduce). Every other op has one implementation; its
/// row's mapped and internode columns still apply.
inline coll::Decision sanitize(coll::CollKind op, coll::Decision d,
                               std::size_t bytes, const SrmConfig& cfg) {
  using coll::Algo;
  bool runs = bytes <= feasible_max(op, d.algo, cfg);
  switch (op) {
    case coll::CollKind::bcast:
      runs = runs && (d.algo == Algo::staged || d.algo == Algo::direct ||
                      d.algo == Algo::scatter_ag);
      if (!runs) d.algo = Algo::direct;
      break;
    case coll::CollKind::allreduce:
      runs = runs && (d.algo == Algo::rd || d.algo == Algo::pipeline ||
                      d.algo == Algo::ring || d.algo == Algo::rhalving);
      if (!runs) d.algo = Algo::pipeline;
      break;
    default:
      d.algo = Algo::staged;
      break;
  }
  return d;
}

}  // namespace srm
