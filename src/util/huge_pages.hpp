// Allocator for the engine's large arrays: requests of at least 2 MiB get
// their own anonymous mapping, 2 MiB-aligned, rounded up to whole 2 MiB
// pages and advised MADV_HUGEPAGE, so transparent huge pages back them on
// kernels whose THP mode is `madvise`.
//
// Why: a sparse batch read touches one random leaf of a multi-hundred-MiB
// leaf array per key, plus a handful of random head-index nodes. On 4 KiB
// pages each of those is a TLB miss on top of the cache miss; one 2 MiB
// TLB entry covers 512 leaves. Smaller requests take the plain allocator,
// so small stores (a serving shard, a test engine) are unaffected. A
// failed madvise (THP disabled, unsupported kernel) is ignored: the memory
// is then simply backed by small pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "util/uninitialized.hpp"

namespace cpma::util {

inline constexpr size_t kHugePageBytes = size_t{2} << 20;

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    // A private mapping per array, trimmed to 2 MiB alignment: freeing it
    // returns every page to the OS. (Through malloc, a freed array would
    // stay in the heap with its huge-page advice, and later small
    // allocations there would fault in whole 2 MiB pages.)
    const size_t rounded = round_up(bytes);
    void* raw = mmap(nullptr, rounded + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t aligned = round_up(base);
    if (aligned > base) munmap(raw, aligned - base);
    const size_t tail = kHugePageBytes - (aligned - base);
    if (tail > 0) munmap(reinterpret_cast<void*>(aligned + rounded), tail);
#if defined(MADV_HUGEPAGE)
    (void)madvise(reinterpret_cast<void*>(aligned), rounded, MADV_HUGEPAGE);
#endif
    return reinterpret_cast<T*>(aligned);
  }

  void deallocate(T* p, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      ::operator delete(p);
    } else {
      munmap(p, round_up(bytes));
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static size_t round_up(size_t bytes) {
    return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  }
};

// Value-initializing and default-initializing (see uninitialized.hpp)
// vectors on the huge-page allocator.
template <typename T>
using huge_vector = std::vector<T, HugePageAllocator<T>>;
template <typename T>
using huge_uvector = std::vector<T, default_init_allocator<T, HugePageAllocator<T>>>;

}  // namespace cpma::util
