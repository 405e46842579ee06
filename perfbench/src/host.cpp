#include "host.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <utility>
#include <vector>

namespace {

std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Counting allocator for host.allocs_per_call. Every allocation of the
// benchmark binary, the simulator libraries included, goes through here.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t allocs() { return g_allocs; }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

namespace {

// The calibration kernel's state: a random cyclic walk and two copy
// buffers, 256 KB each, so that the kernel runs from the core's private
// caches once warm and its time does not depend on what the simulator
// left in the shared cache before it.
struct CalibState {
  std::vector<std::uint32_t> walk;
  std::vector<unsigned char> src, dst;
  CalibState() : walk(64u << 10), src(256u << 10), dst(256u << 10) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < walk.size(); ++i) walk[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = walk.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(walk[i], walk[x % i]);
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<unsigned char>(i * 131u);
    }
  }
};

CalibState& calib_state() {
  static CalibState s;
  return s;
}

volatile std::uint64_t g_calib_sink = 0;

// What the simulator's host time is made of, in miniature: dependent
// loads, integer hashing behind an unpredictable branch, and copies.
std::uint64_t calib_kernel(CalibState& s) {
  std::uint32_t at = static_cast<std::uint32_t>(g_calib_sink % s.walk.size());
  std::uint64_t x = g_calib_sink, acc = 0;
  for (int i = 0; i < 49152; ++i) {
    at = s.walk[at];
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    if (((z ^ at) & 1) != 0) {
      acc += at;
    } else {
      acc ^= z >> 7;
    }
  }
  constexpr std::size_t kBlock = 32u << 10;
  for (std::size_t k = 0; k < 32; ++k) {
    std::memcpy(s.dst.data() + (k % 8) * kBlock,
                s.src.data() + ((k * 5 + acc) % 8) * kBlock, kBlock);
  }
  return acc + s.dst[acc % s.dst.size()];
}

}  // namespace

std::uint64_t calib_ns() {
  CalibState& s = calib_state();
  g_calib_sink = calib_kernel(s);  // warm the private caches
  const std::uint64_t t0 = cpu_ns();
  g_calib_sink = calib_kernel(s);
  g_calib_sink = calib_kernel(s);
  return cpu_ns() - t0;
}

HostSpans::Scope::Scope(HostSpans& s, const char* name)
    : s_(s), name_(name), parent_(s.open_), t0_(cpu_ns()) {
  s_.open_ = name_;
}

HostSpans::Scope::~Scope() {
  Agg& a = s_.agg_[name_];
  a.ns += cpu_ns() - t0_;
  ++a.count;
  if (parent_ != nullptr) a.parent = parent_;
  s_.open_ = parent_;
}

double HostSpans::ms(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : static_cast<double>(it->second.ns) * 1e-6;
}

}  // namespace perfbench
