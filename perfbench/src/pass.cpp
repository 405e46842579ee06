#include "pass.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

namespace perfbench {

std::vector<HostRec> run_pass(const Workload& w, bool trace, HostSpans& hs,
                              Reference* ref) {
  std::vector<HostRec> recs;
  recs.reserve(w.points.size());
  for (const Point& p : w.points) {
    HostRec h;
    h.calib = calib_ns();
    PointResult r = run_point(p, false, hs);
    h.setup = r.setup_ns;
    h.run = r.run_ns;
    h.attempted = r.attempted;
    h.failed = r.failed;
    h.digest = r.digest;
    if (trace) {
      PointResult t = run_point(p, true, hs);
      h.traced = t.run_ns;
      h.fill = t.fill_ns;
      h.trace_neutral = t.digest == r.digest;
      if (ref != nullptr) {
        ref->spans += t.spans;
        ref->algos.insert(t.algos.begin(), t.algos.end());
        for (const auto& [fam, us] : t.family_us) ref->family_us[fam] += us;
      }
      SetupProbe s = probe_setup(p, hs);
      h.cluster = s.cluster_ns;
      h.fabric = s.fabric_ns;
      h.comm = s.comm_ns;
      h.world = s.world_ns;
    }
    if (ref != nullptr) ref->untraced.push_back(std::move(r));
    recs.push_back(h);
  }
  return recs;
}

namespace {

// A HostRec crosses the pipe as one line of thirteen numbers.
using Fields = std::array<std::uint64_t, 13>;

Fields pack(const HostRec& h) {
  return {h.calib,  h.setup,  h.run,    h.traced,    h.fill,
          h.cluster, h.fabric, h.comm,  h.world,     h.attempted,
          h.failed, h.digest, h.trace_neutral ? 1u : 0u};
}

HostRec unpack(const Fields& f) {
  HostRec h;
  h.calib = f[0];
  h.setup = f[1];
  h.run = f[2];
  h.traced = f[3];
  h.fill = f[4];
  h.cluster = f[5];
  h.fabric = f[6];
  h.comm = f[7];
  h.world = f[8];
  h.attempted = f[9];
  h.failed = f[10];
  h.digest = f[11];
  h.trace_neutral = f[12] != 0;
  return h;
}

// Keep freed memory in the process and fault @p bytes of heap in up front,
// so that the timed batches reuse resident pages instead of timing the
// kernel's page-fault path, whose cost depends on the host's memory load.
void prefault_heap(std::size_t bytes) {
  constexpr std::size_t kBlock = 16u << 20;  // below the mmap threshold
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::vector<void*> blocks;
  blocks.reserve(bytes / kBlock + 1);
  for (std::size_t done = 0; done < bytes; done += kBlock) {
    void* p = std::malloc(kBlock);
    if (p == nullptr) break;
    std::memset(p, 1, kBlock);
    blocks.push_back(p);
  }
  for (void* p : blocks) std::free(p);
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<std::vector<HostRec>> run_pass_in_child(const Workload& w,
                                                      bool trace,
                                                      std::size_t prefault) {
  int fd[2];
  if (::pipe(fd) != 0) return std::nullopt;
  std::fflush(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fd[0]);
    ::close(fd[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(fd[0]);
    int status = 0;
    try {
      prefault_heap(prefault);
      HostSpans hs;
      std::string out;
      for (const HostRec& h : run_pass(w, trace, hs, nullptr)) {
        for (std::uint64_t v : pack(h)) out += std::to_string(v) + ' ';
        out += '\n';
      }
      if (!write_all(fd[1], out)) status = 4;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: pass failed: %s\n", e.what());
      status = 3;
    }
    ::close(fd[1]);
    std::fflush(nullptr);
    ::_exit(status);
  }
  ::close(fd[1]);
  std::string text;
  char buf[1 << 14];
  for (ssize_t n; (n = ::read(fd[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  std::vector<HostRec> recs;
  std::istringstream in(text);
  Fields f{};
  while (recs.size() < w.points.size()) {
    for (std::uint64_t& v : f) in >> v;
    if (!in) return std::nullopt;
    recs.push_back(unpack(f));
  }
  return recs;
}

std::size_t children_peak_rss_bytes() {
  rusage ru{};
  if (::getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

}  // namespace perfbench
