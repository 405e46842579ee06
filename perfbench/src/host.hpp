// Host-side measurement: the process CPU clock, a counting global operator
// new, peak RSS, a calibration sample that calls no simulator code, and host
// spans the benchmark places around its own calls into each layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// CPU time consumed by this (single-threaded) process, in nanoseconds.
std::uint64_t cpu_ns();

/// Calls to the global operator new since process start.
std::uint64_t allocs();

/// Peak resident set (VmHWM) in MB; 0 when /proc is unreadable.
double peak_rss_mb();

/// CPU ns of one calibration sample: a fixed kernel that calls no
/// simulator code (dependent loads, integer hashing, copies) and runs from
/// the core's private caches. Its time follows the speed the host gives
/// this process right now, so host times are reported relative to it.
std::uint64_t calib_ns();

/// CPU ns the calibration sample takes at the reference speed that scaled
/// host times are expressed in: about its time on one otherwise idle core
/// of a 2.0 GHz Intel Xeon server VM, so scaled times read as CPU times
/// there.
inline constexpr double kCalibRefNs = 5.5e5;

/// Host spans aggregated by name: total CPU ns and count. Scopes nest; a
/// span's parent is whatever scope was open when it began.
class HostSpans {
 public:
  struct Agg {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    std::string parent;
  };

  class Scope {
   public:
    Scope(HostSpans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans& s_;
    const char* name_;
    const char* parent_;
    std::uint64_t t0_;
  };

  double ms(const std::string& name) const;
  const std::map<std::string, Agg>& all() const { return agg_; }
  void clear() { agg_.clear(); }

 private:
  std::map<std::string, Agg> agg_;
  const char* open_ = nullptr;
};

}  // namespace perfbench
