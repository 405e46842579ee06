// MemorySystem: the per-node memory cost model.
//
// Copies and reduction combines contend for a node-wide fair-share bus with a
// per-stream cap (see sim::FairShareResource). A reduction combine is charged
// as a copy-sized bus transfer plus the extra per-byte compute time beyond
// copy speed, so that under no contention it runs at reduce_bw_per_cpu, and
// under contention the memory-bound part stretches like a copy would.
//
// Note: the *data* is moved by the caller with plain std::memcpy (instant in
// real time); this class accounts only the virtual-time cost.
#pragma once

#include <memory>

#include "machine/params.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace srm::machine {

class MemorySystem {
 public:
  /// @p reg/@p node: the observability registry cell ("mem.copy" /
  /// "mem.combine" under this node id) the model reports into; counter
  /// references are resolved once here, off the hot path.
  MemorySystem(sim::Engine& eng, const MemoryParams& p,
               obs::Registry* reg = nullptr, int node = 0)
      : eng_(&eng),
        p_(p),
        bus_(eng, p.bus_bw_total, p.copy_bw_per_cpu),
        copy_ctr_(reg != nullptr ? &reg->counter("mem.copy", node) : nullptr),
        combine_ctr_(reg != nullptr ? &reg->counter("mem.combine", node)
                                    : nullptr) {}

  /// Virtual-time cost of copying @p bytes (startup + contended stream).
  /// @p factor stretches the bus time for a topology/coherence penalty (the
  /// single-copy cross-mapped protocols: a pull across an L3 slice or socket
  /// boundary, dearer again from a dirty line); counters record the true
  /// payload bytes either way.
  sim::CoTask charge_copy(double bytes, double factor = 1.0) {
    ++copies_;
    copy_bytes_ += bytes;
    if (copy_ctr_ != nullptr) copy_ctr_->add(bytes);
    co_await eng_->sleep(p_.copy_startup);
    co_await bus_.transfer(bytes * factor);
  }

  /// Virtual-time cost of combining @p bytes with a reduction operator
  /// (same @p factor rule as charge_copy).
  sim::CoTask charge_combine(double bytes, double factor = 1.0) {
    ++combines_;
    combine_bytes_ += bytes;
    if (combine_ctr_ != nullptr) combine_ctr_->add(bytes);
    co_await eng_->sleep(p_.copy_startup);
    co_await bus_.transfer(bytes * factor);
    // Extra compute time beyond what the memory stream already charged.
    double extra_sec = bytes / p_.reduce_bw_per_cpu - bytes / p_.copy_bw_per_cpu;
    if (extra_sec > 0.0) {
      co_await eng_->sleep(static_cast<sim::Duration>(extra_sec * 1e9));
    }
  }

  sim::FairShareResource& bus() noexcept { return bus_; }
  const MemoryParams& params() const noexcept { return p_; }

  /// Data-movement accounting (the paper's Fig. 2 copy-count argument).
  std::uint64_t copies() const noexcept { return copies_; }
  std::uint64_t combines() const noexcept { return combines_; }
  double copy_bytes() const noexcept { return copy_bytes_; }
  double combine_bytes() const noexcept { return combine_bytes_; }

 private:
  sim::Engine* eng_;
  MemoryParams p_;
  sim::FairShareResource bus_;
  obs::Counter* copy_ctr_;
  obs::Counter* combine_ctr_;
  std::uint64_t copies_ = 0;
  std::uint64_t combines_ = 0;
  double copy_bytes_ = 0.0;
  double combine_bytes_ = 0.0;
};

}  // namespace srm::machine
