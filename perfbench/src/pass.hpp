// One pass over a workload's points, in this process or in a forked child.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "host.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host cost (CPU ns) and checks of one point in one pass. @c calib is the
/// calibration sample taken just before the point's untraced execution.
struct HostRec {
  std::uint64_t calib = 0;
  std::uint64_t setup = 0, run = 0, traced = 0, fill = 0;
  std::uint64_t cluster = 0, fabric = 0, comm = 0, world = 0;
  std::uint64_t attempted = 0, failed = 0, digest = 0;
  bool trace_neutral = true;  ///< traced execution's digest matched
};

/// What the reference pass records beyond host costs: the untraced result
/// of every point, and the span aggregates of the traced executions.
struct Reference {
  std::vector<PointResult> untraced;
  std::set<std::string> algos;
  std::map<std::string, double> family_us;
  std::uint64_t spans = 0;
};

/// Run every point of @p w once, and with @p trace a second time with obs
/// spans on plus a setup probe. @p ref, when given, receives the details.
std::vector<HostRec> run_pass(const Workload& w, bool trace, HostSpans& hs,
                              Reference* ref);

/// run_pass in a forked child, so that every pass starts from the same
/// process state: a simulator process that keeps running points gets slower
/// as its heap and coroutine frame pool fragment, which would make a late
/// pass incomparable with an early one. The child keeps freed memory and
/// faults @p prefault bytes of heap in before the pass, so the pass's host
/// times do not include page faults. Empty if the child failed.
std::optional<std::vector<HostRec>> run_pass_in_child(const Workload& w,
                                                      bool trace,
                                                      std::size_t prefault);

/// Peak resident set of the largest child that has ended, in bytes.
std::size_t children_peak_rss_bytes();

}  // namespace perfbench
