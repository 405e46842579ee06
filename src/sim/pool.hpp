// FramePool: size-bucketed free lists for coroutine frames.
//
// Every simulated activity is a coroutine; a mega-scale run creates and
// destroys hundreds of millions of frames of a handful of distinct sizes
// (one per coroutine function). Routing frame allocation through a
// recycling pool removes the general-purpose allocator from the hot path
// and keeps frame storage warm in cache.
//
// The pool is thread_local (the simulator is single-threaded; tests that
// run engines on several threads each get an independent pool) and
// intentionally never returns memory to the OS until thread exit — frame
// population is at its maximum mid-run anyway.
//
// The pool stays on under AddressSanitizer too: a free-listed frame's bytes
// past its `next` link are poisoned while it sits on the list, so touching a
// destroyed coroutine frame is still reported (as use-after-poison), without
// paying ASan's per-frame malloc header, redzones and quarantine. The
// poisoning macros compile to nothing in other builds.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <new>

namespace srm::sim {

class FramePool {
 public:
  struct Stats {
    std::uint64_t allocs = 0;   // total frame allocations
    std::uint64_t reused = 0;   // served from a free list
    std::uint64_t oversize = 0; // larger than the biggest size class
  };

  static void* allocate(std::size_t n) {
    Lists& fl = lists();
    ++fl.stats.allocs;
    std::size_t cls = size_class(n);
    if (cls == kNumClasses) {
      ++fl.stats.oversize;
      return ::operator new(n);
    }
    if (FreeNode* node = fl.head[cls]) {
      fl.head[cls] = node->next;
      ++fl.stats.reused;
      ASAN_UNPOISON_MEMORY_REGION(node, class_bytes(cls));
      return node;
    }
    return ::operator new(class_bytes(cls));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    std::size_t cls = size_class(n);
    if (cls == kNumClasses) {
      ::operator delete(p);
      return;
    }
    Lists& fl = lists();
    auto* node = static_cast<FreeNode*>(p);
    node->next = fl.head[cls];
    fl.head[cls] = node;
    ASAN_POISON_MEMORY_REGION(node + 1, class_bytes(cls) - sizeof(FreeNode));
  }

  static Stats stats() { return lists().stats; }
  static void reset_stats() { lists().stats = Stats{}; }

 private:
  // Size classes: 64-byte granularity up to 1 KiB, then 512-byte granularity
  // up to 8 KiB. Frames above that (rare: big stack arrays in a coroutine)
  // fall through to the system allocator.
  static constexpr std::size_t kFineStep = 64;
  static constexpr std::size_t kFineMax = 1024;
  static constexpr std::size_t kCoarseStep = 512;
  static constexpr std::size_t kCoarseMax = 8192;
  static constexpr std::size_t kFineClasses = kFineMax / kFineStep;
  static constexpr std::size_t kNumClasses =
      kFineClasses + (kCoarseMax - kFineMax) / kCoarseStep;

  struct FreeNode {
    FreeNode* next;
  };

  struct Lists {
    FreeNode* head[kNumClasses] = {};
    Stats stats;
    ~Lists() {
      for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
        FreeNode*& h = head[cls];
        while (h != nullptr) {
          FreeNode* n = h->next;
          ASAN_UNPOISON_MEMORY_REGION(h, class_bytes(cls));
          ::operator delete(h);
          h = n;
        }
      }
    }
  };

  static std::size_t size_class(std::size_t n) noexcept {
    if (n <= kFineMax) return (n + kFineStep - 1) / kFineStep - 1;
    if (n <= kCoarseMax) {
      return kFineClasses + (n - kFineMax + kCoarseStep - 1) / kCoarseStep - 1;
    }
    return kNumClasses;
  }
  static std::size_t class_bytes(std::size_t cls) noexcept {
    if (cls < kFineClasses) return (cls + 1) * kFineStep;
    return kFineMax + (cls - kFineClasses + 1) * kCoarseStep;
  }

  static Lists& lists() {
    thread_local Lists fl;
    return fl;
  }
};

}  // namespace srm::sim
