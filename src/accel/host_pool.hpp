#pragma once

// Process-wide recycler of large host blocks, behind core::Field storage
// and AccelStore shadows: a job reuses the pages the previous job freed
// instead of faulting them in again (docs/MODEL.md §10).  Requests below
// kMinBlock go straight to operator new; larger ones round up to one of 8
// size classes per power of two, and a released block is kept for the next
// request of its class.  Held (live + retained) bytes never exceed the peak
// live bytes seen so far: a miss first drops retained blocks to stay under.
// A recycled block's old bytes are unspecified, as with operator new.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <new>
#include <vector>

namespace toast::accel {

class HostPool {
 public:
  static constexpr std::size_t kMinBlock = std::size_t{128} << 10;

  struct Stats {
    std::size_t hits = 0;    // takes served by a retained block
    std::size_t misses = 0;  // takes that called operator new
    std::size_t live_bytes = 0;
    std::size_t retained_bytes = 0;
    std::size_t peak_live_bytes = 0;
  };

  HostPool() = default;
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// A block of at least `bytes` bytes, aligned as by operator new.
  void* take(std::size_t bytes);
  /// Hand back a block from this pool's take(), with the same `bytes`.
  void give(void* block, std::size_t bytes) noexcept;
  Stats stats() const;

  /// Bytes a block for `bytes` occupies (its size class).
  static std::size_t class_size(std::size_t bytes);

 private:
  mutable std::mutex mu_;
  // Class size -> first retained block; each block's first word links to
  // the next, so a give never allocates.
  std::map<std::size_t, void*> retained_;
  Stats stats_;
};

/// The pool PooledAllocator uses.  Process-wide because only process state
/// outlives a job; never destroyed, so blocks released during static
/// destruction still have a pool to go to.
HostPool& host_pool();

/// std::allocator-compatible front end of host_pool().
template <typename T>
struct PooledAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PooledAllocator() = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(PTRDIFF_MAX) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(host_pool().take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    host_pool().give(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const PooledAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PooledVector = std::vector<T, PooledAllocator<T>>;

}  // namespace toast::accel
