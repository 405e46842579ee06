// The `tune` harness: the empirical autotuner behind coll::DecisionTable.
//
// For a machine profile it sweeps (op x size x algorithm candidate) on the
// simulator — every candidate forced through a single-row decision table so
// dispatch cannot second-guess the sweep — picks the fastest candidate per
// cell, collapses equal-winner runs into size bands, and persists the result
// as a versioned JSON decision table (coll::DecisionTable::save). The
// checked-in builtins are snapshots of exactly this procedure: ibm_sp() is
// the paper's constants (which the sweep reproduces), modern_smp() is the
// tuner's output for the hierarchical profile.
//
// Usage:
//   tune [--profile ibm_sp|modern_smp] [--out FILE] [--smoke] [--check]
//
//   --profile  machine profile to tune (default: modern_smp)
//   --out      write the winning table as JSON (default: tuned_<profile>.json)
//   --nodes N  cluster node count (default: 8; smoke: 4)
//   --tpn T    tasks per node (default: 16; smoke: 8)
//   --smoke    mini-sweep (small cluster, three sizes) for CI
//   --check    self-consistency gate: the tuned table must round-trip
//              through JSON to identical dispatch, and its pick must never
//              be slower than the profile's default (builtin) dispatch
//              beyond tolerance. Exit 1 on violation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "coll/decision.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

namespace {

struct Setup {
  machine::MachineParams params;
  int nodes;
  int tpn;
};

double run_op(Bench& b, coll::CollKind op, std::size_t bytes) {
  switch (op) {
    case coll::CollKind::bcast:
      return b.time_bcast(bytes, iters_for(bytes));
    case coll::CollKind::reduce:
      return b.time_reduce(bytes / 8, iters_for(bytes));
    case coll::CollKind::allreduce:
      return b.time_allreduce(bytes / 8, iters_for(bytes));
    case coll::CollKind::scatter:
      return b.time_scatter(bytes, iters_for(bytes));
    case coll::CollKind::gather:
      return b.time_gather(bytes, iters_for(bytes));
    default:
      return 0.0;
  }
}

/// Time one candidate: dispatch forced through a single-row table.
double measure(const Setup& s, coll::CollKind op, const Candidate& c,
               std::size_t bytes) {
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(op, 0, c.d);
  if (c.d.mapped) cfg.single_copy = true;
  Bench b(Impl::srm, s.nodes, s.tpn, cfg, s.params);
  return run_op(b, op, bytes);
}

/// Time default dispatch: an empty config resolves the builtin table for
/// the profile — the pre-tuning baseline the tuned table must beat.
double measure_default(const Setup& s, coll::CollKind op, std::size_t bytes) {
  Bench b(Impl::srm, s.nodes, s.tpn, SrmConfig{}, s.params);
  return run_op(b, op, bytes);
}

/// Time dispatch through an explicit table (the tuned result, re-loaded).
double measure_table(const Setup& s, const coll::DecisionTable& t,
                     coll::CollKind op, std::size_t bytes, bool mapped_on) {
  SrmConfig cfg;
  cfg.decisions = t;
  cfg.single_copy = mapped_on;
  Bench b(Impl::srm, s.nodes, s.tpn, cfg, s.params);
  return run_op(b, op, bytes);
}

const std::vector<coll::CollKind>& swept_ops() {
  static const std::vector<coll::CollKind> kOps = {
      coll::CollKind::bcast, coll::CollKind::reduce,
      coll::CollKind::allreduce, coll::CollKind::scatter,
      coll::CollKind::gather};
  return kOps;
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile = "modern_smp";
  std::string out_path;
  bool smoke = false, check = false;
  int nodes = 0, tpn = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tpn") == 0 && i + 1 < argc) {
      tpn = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  machine::MachineParams params = profile == "ibm_sp"
                                      ? machine::MachineParams::ibm_sp()
                                      : machine::MachineParams::modern_smp();
  if (profile != "ibm_sp" && profile != "modern_smp") {
    std::fprintf(stderr, "unknown profile: %s\n", profile.c_str());
    return 2;
  }
  if (out_path.empty()) out_path = "tuned_" + profile + ".json";

  Setup s{params, nodes > 0 ? nodes : (smoke ? 4 : 8),
          tpn > 0 ? tpn : (smoke ? 8 : 16)};
  std::vector<std::size_t> sizes;
  if (smoke) {
    sizes = {512, 16 * 1024, 512 * 1024};
  } else {
    // x2 grid: protocol regime boundaries (the 32 KB pipeline band, the
    // 64 KB buffer cap) sit one octave apart, so a coarser grid misses
    // whole bands of the staircase.
    for (std::size_t b = 8; b <= (4u << 20); b *= 2) sizes.push_back(b);
  }

  std::printf("tune: profile=%s cluster=%dx%d%s\n", profile.c_str(), s.nodes,
              s.tpn, smoke ? " [smoke]" : "");

  coll::DecisionTable tuned;
  tuned.profile = profile;
  // The sweep: per cell, fastest candidate wins; ties keep the first
  // candidate listed (the least surprising algorithm). Columns come from
  // the smallest size's full candidate pool; sizes where a candidate is
  // sanitized away print 0 in its column.
  for (coll::CollKind op : swept_ops()) {
    std::vector<std::string> cols;
    for (const Candidate& c : candidates(op, 0)) cols.push_back(c.label);
    std::vector<std::string> rows;
    std::vector<std::vector<double>> cells;
    coll::Decision last{};
    bool have_last = false;
    for (std::size_t size : sizes) {
      double best = 0.0;
      const Candidate* winner = nullptr;
      std::vector<Candidate> cands = candidates(op, size);
      std::vector<double> line(cols.size(), 0.0);
      for (const Candidate& c : cands) {
        double us = measure(s, op, c, size);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (cols[k] == c.label) line[k] = us;
        }
        if (winner == nullptr || us < best) {
          best = us;
          winner = &c;
        }
      }
      rows.push_back(util::human_bytes(size) + " -> " + winner->label);
      cells.push_back(std::move(line));
      if (!have_last || !(winner->d == last)) {
        tuned.set(op, have_last ? size : 0, winner->d);
        last = winner->d;
        have_last = true;
      }
    }
    print_table(std::string("tune ") + coll::coll_name(op), "bytes", rows,
                cols, cells, "us");
  }
  // Ops with one implementation keep their static rows so the table is a
  // complete dispatch artifact, not a sparse overlay.
  for (coll::CollKind op :
       {coll::CollKind::barrier, coll::CollKind::allgather,
        coll::CollKind::reduce_scatter}) {
    tuned.set(op, 0, coll::Decision{});
  }

  tuned.save(out_path);
  std::printf("\ntuned table written to %s\n", out_path.c_str());

  if (!check) return 0;

  // ---- self-consistency gate (--check) ----------------------------------
  int failures = 0;
  // 1. JSON round-trip must preserve dispatch exactly.
  coll::DecisionTable reloaded = coll::DecisionTable::load(out_path);
  if (!(reloaded == tuned)) {
    std::fprintf(stderr, "check: JSON round-trip changed the table\n");
    ++failures;
  }
  // 2. Tuned dispatch must never be slower than the profile's default
  //    (builtin) dispatch beyond tolerance: the tuner may only ever help.
  constexpr double kTol = 0.02;      // deterministic sim: tiny band
  constexpr double kSlackUs = 0.05;  // absorb sub-ns rounding
  for (coll::CollKind op : swept_ops()) {
    for (std::size_t size : sizes) {
      double base = measure_default(s, op, size);
      coll::Decision pick = reloaded.decide(op, size);
      double tuned_us = measure_table(s, reloaded, op, size, pick.mapped);
      if (tuned_us > base * (1.0 + kTol) + kSlackUs) {
        std::fprintf(stderr,
                     "check: %s @ %zu B: tuned %.3f us > default %.3f us\n",
                     coll::coll_name(op), size, tuned_us, base);
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "check: %d violation(s)\n", failures);
    return 1;
  }
  std::printf("check: tuned table is self-consistent\n");
  return 0;
}
