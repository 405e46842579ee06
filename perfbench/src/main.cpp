// perfbench: the repository benchmark. Runs one named workload, checks
// every collective's output, and prints every metric by name with its unit;
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// A run repeats the workload's point list (a "pass") for about --seconds of
// wall time. Every pass but the last runs in a forked child; the last runs
// in this process and is the reference pass: exact counts, virtual metrics
// and sim_digest come from it, and every other pass must reproduce its
// digest. Host times are the CPU time of the single-threaded process that
// ran the pass, scaled by the calibration samples taken before each point;
// each point's host time is the median over the timed passes.
// --trace 1 runs every point twice, untraced then with obs spans on, and
// reports the per-layer metrics instead of the end-to-end ones.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "host.hpp"
#include "pass.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using srm::bench::Impl;

constexpr std::size_t kMaxChildPasses = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// The timed passes of a run, and per pass the factor that scales its CPU
/// times to the calibration's reference speed. The other tenants of a
/// shared host change the speed this process gets over seconds to minutes;
/// the median calibration sample of a pass follows that speed, raised to
/// the workload's calib_slope, so a scaled time is the program's cost.
struct Timed {
  std::vector<std::vector<HostRec>> passes;
  std::vector<double> scale;

  Timed(std::vector<std::vector<HostRec>> p, double slope) : passes(std::move(p)) {
    for (const std::vector<HostRec>& pass : passes) {
      std::vector<double> c;
      for (const HostRec& h : pass) c.push_back(static_cast<double>(h.calib));
      scale.push_back(std::pow(kCalibRefNs / std::max(quantile(c, 0.5), 1.0),
                               slope));
    }
  }

  /// Scaled CPU ns of @p field of point @p i: the median over the passes.
  double point_ns(std::size_t i, std::uint64_t HostRec::*field) const {
    std::vector<double> v;
    for (std::size_t k = 0; k < passes.size(); ++k) {
      v.push_back(static_cast<double>(passes[k][i].*field) * scale[k]);
    }
    return quantile(std::move(v), 0.5);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& rows() const { return rows_; }
  void print(const char* title) const {
    std::printf("== %s ==\n", title);
    for (const Metric& m : rows_) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> rows_;
};

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Report& r) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const Metric& m : r.rows()) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

int run(const Args& a) {
  Workload w = make_workload(a.workload, a.seed, a.smoke);
  std::printf("perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d smoke=%d points_per_pass=%zu\n",
              w.name.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              a.smoke ? 1 : 0, w.points.size());

  // Passes run in forked children until the time is nearly up; the last
  // pass runs in this process and is the reference for the exact counts,
  // the virtual metrics and the digest every pass must reproduce. The first
  // child sizes the heap the others fault in before they start, and only
  // those others are timed.
  std::vector<std::vector<HostRec>> passes;
  bool child_failed = false;
  const auto t_start = std::chrono::steady_clock::now();
  auto since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
        .count();
  };
  double longest = 0.0;
  std::size_t prefault = 0;
  while (passes.size() < kMaxChildPasses) {
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<std::vector<HostRec>> recs =
        run_pass_in_child(w, a.trace, prefault);
    if (!recs) {
      child_failed = true;
      break;
    }
    passes.push_back(std::move(*recs));
    if (passes.size() == 1) prefault = children_peak_rss_bytes();
    longest = std::max(longest, since(t0));
    if (passes.size() >= 2 && since(t_start) + longest >= a.seconds) break;
  }
  const Timed timed({passes.begin() + std::min<std::ptrdiff_t>(1, std::ssize(passes)),
                     passes.end()},
                    w.calib_slope);
  HostSpans hs;
  Reference ref;
  passes.push_back(run_pass(w, a.trace, hs, &ref));
  const std::vector<PointResult>& first = ref.untraced;

  std::uint64_t attempted = 0, failed = 0;
  bool deterministic = true, trace_neutral = true;
  for (const std::vector<HostRec>& pass : passes) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      attempted += pass[i].attempted;
      failed += pass[i].failed;
      deterministic = deterministic && pass[i].digest == first[i].digest;
      trace_neutral = trace_neutral && pass[i].trace_neutral;
    }
  }
  std::uint64_t sim_digest = 0xcbf29ce484222325ull;
  for (const PointResult& r : first) sim_digest = fnv(sim_digest, &r.digest, sizeof r.digest);
  const std::set<std::string>& algos = ref.algos;
  const std::map<std::string, double>& family_us = ref.family_us;

  // ---- reference-pass aggregates: exact counts and virtual metrics ----
  std::uint64_t calls = 0, events = 0, frames = 0, reused = 0, allocs_n = 0;
  std::uint64_t fills = 0, fill_elems = 0, live_peak = 0, net_msgs = 0;
  double net_bytes = 0.0;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, double> values;
  std::vector<double> srm_real, srm_sym;
  std::map<std::string, double> srm_by_cell, ibm_by_cell;
  std::map<std::string, double> real_by_twin, sym_by_twin;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Point& p = w.points[i];
    const PointResult& r = first[i];
    calls += r.attempted;
    events += r.events;
    frames += r.frames_alloc;
    reused += r.frames_reused;
    allocs_n += r.allocs;
    fills += r.fills;
    fill_elems += r.fill_elems;
    live_peak = std::max(live_peak, r.live_peak_bytes);
    net_msgs += r.net_msgs;
    net_bytes += r.net_bytes;
    for (const auto& [k, v] : r.counts) counts[k] += v;
    for (const auto& [k, v] : r.values) values[k] += v;
    if (r.threw || r.vt_us <= 0.0) continue;
    std::string twin = std::string(srm::bench::impl_name(p.impl)) + "/" + p.cell;
    (p.symbolic ? sym_by_twin : real_by_twin)[twin] = r.vt_us;
    if (p.symbolic) {
      if (p.impl == Impl::srm) srm_sym.push_back(r.vt_us);
      continue;
    }
    if (p.impl == Impl::srm) {
      srm_real.push_back(r.vt_us);
      srm_by_cell[p.cell] = r.vt_us;
    } else if (p.impl == Impl::mpi_ibm) {
      ibm_by_cell[p.cell] = r.vt_us;
    }
  }
  std::vector<double> gains;
  for (const auto& [cell, ts] : srm_by_cell) {
    auto it = ibm_by_cell.find(cell);
    if (it != ibm_by_cell.end()) gains.push_back((1.0 - ts / it->second) * 100.0);
  }
  std::vector<double> gaps;
  for (const auto& [twin, tr] : real_by_twin) {
    auto it = sym_by_twin.find(twin);
    if (it != sym_by_twin.end()) gaps.push_back(std::fabs(it->second - tr) / tr * 100.0);
  }

  // Sum over the points @p only selects of a scaled host field, ms.
  auto host_ms = [&](std::uint64_t HostRec::*field, auto only) {
    double ms = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (only(w.points[i])) ms += timed.point_ns(i, field) * 1e-6;
    }
    return ms;
  };
  auto every = [](const Point&) { return true; };
  auto srm_only = [](const Point& p) { return p.impl == Impl::srm; };
  auto mpi_only = [](const Point& p) { return p.impl != Impl::srm; };
  std::vector<double> point_ms;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    point_ms.push_back(timed.point_ns(i, &HostRec::run) * 1e-6);
  }
  const double run_ms = host_ms(&HostRec::run, every);
  // The calibration sample's own CPU time, median over the timed passes.
  std::vector<double> calibs;
  for (const std::vector<HostRec>& pass : timed.passes) {
    for (const HostRec& h : pass) calibs.push_back(static_cast<double>(h.calib) * 1e-9);
  }
  const double calib = quantile(std::move(calibs), 0.5);

  // ---- end-to-end metrics (untraced host time) ----
  Report e2e;
  e2e.add("setup_s", host_ms(&HostRec::setup, every) * 1e-3, "s");
  e2e.add("collectives_per_s", static_cast<double>(calls) / (run_ms * 1e-3), "1/s");
  e2e.add("point_host_ms.p50", quantile(point_ms, 0.5), "ms");
  e2e.add("point_host_ms.p90", quantile(point_ms, 0.9), "ms");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  // Virtual-time metrics: deterministic per seed, workload-specific.
  Report virt;
  if (!srm_real.empty()) virt.add("srm_latency_us.geomean", geomean(srm_real), "us_virt");
  if (!gains.empty()) {
    virt.add("srm_gain_vs_ibm_pct.min", *std::min_element(gains.begin(), gains.end()), "%");
  }
  if (!gaps.empty()) {
    double s = 0.0;
    for (double g : gaps) s += g;
    virt.add("sym_real_gap_pct", s / static_cast<double>(gaps.size()), "%");
  }
  virt.add("ops_failed_frac",
           attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted),
           "ratio");

  std::printf("passes=%zu points=%zu calls=%" PRIu64 " pass_host_ms:",
              passes.size(), w.points.size(), attempted);
  for (const std::vector<HostRec>& pass : passes) {
    std::uint64_t ns = 0;
    for (const HostRec& h : pass) ns += h.run;
    std::printf(" %.1f", static_cast<double>(ns) * 1e-6);
  }
  std::printf("\n");
  e2e.print("end-to-end (host)");
  virt.print("end-to-end (virtual, reference pass)");
  std::printf("sim_digest %016" PRIx64 "\n", sim_digest);

  Report layer;
  if (a.trace) {
    const double dcalls = static_cast<double>(std::max<std::uint64_t>(calls, 1));
    auto fam = [&](const char* f) {
      auto it = family_us.find(f);
      return it == family_us.end() ? 0.0 : it->second / dcalls;
    };
    layer.add("sim.events", static_cast<double>(events), "count");
    layer.add("sim.host_ns_per_event",
              events == 0 ? 0.0 : run_ms * 1e6 / static_cast<double>(events),
              "ns");
    layer.add("sim.frames_alloc", static_cast<double>(frames), "count");
    layer.add("sim.frames_reused_frac",
              frames == 0 ? 0.0
                          : static_cast<double>(reused) / static_cast<double>(frames),
              "ratio");
    layer.add("machine.cluster_setup_ms", host_ms(&HostRec::cluster, every), "ms");
    layer.add("machine.net_messages", static_cast<double>(net_msgs), "count");
    layer.add("machine.net_bytes", net_bytes, "B");
    layer.add("machine.mem_copy_bytes", values["mem.copy"], "B");
    layer.add("machine.mem_combine_bytes", values["mem.combine"], "B");
    layer.add("lapi.fabric_setup_ms", host_ms(&HostRec::fabric, every), "ms");
    layer.add("lapi.puts", static_cast<double>(counts["lapi.put"]), "count");
    layer.add("lapi.put_bytes", values["lapi.put"], "B");
    layer.add("lapi.signals", static_cast<double>(counts["lapi.signal"]), "count");
    layer.add("lapi.wait_us", values["lapi.wait"] * 1e-3, "us_virt");
    layer.add("core.comm_setup_ms", host_ms(&HostRec::comm, every), "ms");
    layer.add("core.run_host_ms", host_ms(&HostRec::run, srm_only), "ms");
    layer.add("vt.srm_us", fam("srm"), "us_virt");
    layer.add("vt.smp_us", fam("smp"), "us_virt");
    layer.add("vt.bcast_us", fam("bcast"), "us_virt");
    layer.add("vt.reduce_us", fam("reduce"), "us_virt");
    layer.add("vt.allreduce_us", fam("allreduce"), "us_virt");
    layer.add("vt.barrier_us", fam("barrier"), "us_virt");
    layer.add("mpi.world_setup_ms", host_ms(&HostRec::world, every), "ms");
    layer.add("mpi.run_host_ms", host_ms(&HostRec::run, mpi_only), "ms");
    layer.add("mpi.eager_bytes", values["mpi.send.eager"], "B");
    layer.add("mpi.rndv_bytes", values["mpi.send.rndv"], "B");
    layer.add("mpi.shm_bytes", values["mpi.send.shm"], "B");
    layer.add("vt.mpi_us", fam("mpi"), "us_virt");
    layer.add("coll.payload_fills", static_cast<double>(fills), "count");
    layer.add("coll.payload_fill_elems", static_cast<double>(fill_elems), "count");
    layer.add("coll.payload_fill_ms", host_ms(&HostRec::fill, every), "ms");
    layer.add("coll.payload_live_peak_mb", static_cast<double>(live_peak) / (1024.0 * 1024.0), "MB");
    layer.add("coll.algos_served", static_cast<double>(algos.size()), "count");
    layer.add("vt.coll_dispatch_us", fam("coll"), "us_virt");
    layer.add("vt.symbolic_latency_us.geomean", geomean(srm_sym), "us_virt");
    layer.add("obs.spans", static_cast<double>(ref.spans), "count");
    layer.add("obs.trace_overhead_pct",
              (host_ms(&HostRec::traced, every) / run_ms - 1.0) * 100.0,
              "%");
    layer.add("host.allocs_per_call", static_cast<double>(allocs_n) / dcalls, "count");
    layer.add("host.calib_s", calib, "s");
    layer.print("per-layer (traced run; counts from the reference pass)");
    std::printf("algos served:");
    for (const std::string& s : algos) std::printf(" %s", s.c_str());
    std::printf("\n== host spans (CPU ms, reference pass) ==\n");
    for (const auto& [name, agg] : hs.all()) {
      std::printf("  %-26s %12.3f ms  n=%-8" PRIu64 " parent=%s\n", name.c_str(),
                  static_cast<double>(agg.ns) * 1e-6, agg.count,
                  agg.parent.empty() ? "-" : agg.parent.c_str());
    }
  } else {
    std::printf("host.calib_s %.6f s\n", calib);
  }

  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].threw) {
      std::fprintf(stderr, "error: %s: %s\n", w.points[i].label().c_str(),
                   first[i].error.c_str());
    }
  }
  if (child_failed) std::fprintf(stderr, "error: a measuring pass failed\n");
  if (!deterministic) std::fprintf(stderr, "error: passes disagree on sim_digest\n");
  if (!trace_neutral) std::fprintf(stderr, "error: tracing changed the simulation\n");
  const bool correct =
      failed == 0 && deterministic && trace_neutral && !child_failed;
  std::printf("%s\n", json_result(correct, attempted, failed, a.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a = perfbench::parse(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
