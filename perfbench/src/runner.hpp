// Running one point: build a fresh bench::Bench, drive the point's call
// batch through Bench::time_collective with every rank checking every
// call's output, and read the layers' public counters around it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

struct PointResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool threw = false;
  std::string error;
  double vt_us = 0.0;  ///< virtual latency per timed call (slowest rank)

  // Host cost (CPU ns) and exact counts of the timed batch.
  std::uint64_t setup_ns = 0;  ///< Bench construction
  std::uint64_t run_ns = 0;    ///< Bench::time_collective
  std::uint64_t events = 0;
  std::uint64_t frames_alloc = 0;
  std::uint64_t frames_reused = 0;
  std::uint64_t allocs = 0;
  std::uint64_t fills = 0;
  std::uint64_t fill_elems = 0;
  std::uint64_t fill_ns = 0;  ///< timed only in a traced execution
  std::uint64_t live_peak_bytes = 0;

  // Network totals and obs counter totals, by metric name.
  std::uint64_t net_msgs = 0;
  double net_bytes = 0.0;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, double> values;

  // Traced execution only: slowest-rank virtual self time per span family
  // (the name up to its first '.'), spans recorded, algorithms served.
  std::map<std::string, double> family_us;
  std::uint64_t spans = 0;
  std::set<std::string> algos;

  /// Hash of the virtual latency, event count, network totals and obs
  /// counter totals: equal for equal simulations.
  std::uint64_t digest = 0;
};

/// Run @p p once. With @p traced, obs spans are on and aggregated (then
/// cleared) and payload fills are timed.
PointResult run_point(const Point& p, bool traced, HostSpans& hs);

/// Host CPU ns constructing each layer of @p p's setup on its own.
struct SetupProbe {
  std::uint64_t cluster_ns = 0;
  std::uint64_t fabric_ns = 0;
  std::uint64_t comm_ns = 0;
  std::uint64_t world_ns = 0;
};
SetupProbe probe_setup(const Point& p, HostSpans& hs);

/// FNV-1a step over @p n bytes.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n);

}  // namespace perfbench
