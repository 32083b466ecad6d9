#include "accel/host_pool.hpp"

#include <algorithm>
#include <bit>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace toast::accel {

namespace {
// A retained block is poisoned past its link word.  The link stays
// addressable because LeakSanitizer ignores pointers in poisoned memory.
constexpr std::size_t kLinkBytes = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void push(void*& head, void* block, std::size_t size) {
  *static_cast<void**>(block) = head;
  head = block;
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(block) + kLinkBytes,
                            size - kLinkBytes);
}

void* pop(void*& head, std::size_t size) {
  void* block = head;
  ASAN_UNPOISON_MEMORY_REGION(block, size);
  head = *static_cast<void**>(block);
  return block;
}
}  // namespace

HostPool::~HostPool() {
  for (auto& [size, head] : retained_) {
    while (head != nullptr) {
      ::operator delete(pop(head, size));
    }
  }
}

std::size_t HostPool::class_size(std::size_t bytes) {
  if (bytes < kMinBlock) {
    return bytes;
  }
  const std::size_t step = std::bit_floor(bytes) >> 3;  // <= 12.5% slack
  return (bytes + step - 1) & ~(step - 1);
}

void* HostPool::take(std::size_t bytes) {
  if (bytes < kMinBlock) {
    return ::operator new(bytes);
  }
  if (bytes > static_cast<std::size_t>(PTRDIFF_MAX)) {
    throw std::bad_alloc();
  }
  const std::size_t size = class_size(bytes);
  std::lock_guard lock(mu_);
  void*& head = retained_[size];
  stats_.live_bytes += size;
  if (head != nullptr) {
    stats_.retained_bytes -= size;
    ++stats_.hits;
    return pop(head, size);
  }
  ++stats_.misses;
  stats_.peak_live_bytes = std::max(stats_.peak_live_bytes, stats_.live_bytes);
  // Back under the cap, largest classes first (fewest frees).
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    while (it->second != nullptr && stats_.live_bytes + stats_.retained_bytes >
                                        stats_.peak_live_bytes) {
      ::operator delete(pop(it->second, it->first));
      stats_.retained_bytes -= it->first;
    }
  }
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    stats_.live_bytes -= size;
    throw;
  }
}

void HostPool::give(void* block, std::size_t bytes) noexcept {
  if (bytes < kMinBlock) {
    ::operator delete(block);
    return;
  }
  const std::size_t size = class_size(bytes);
  std::lock_guard lock(mu_);
  // take() made the class's entry.  Held bytes do not change, so the
  // block always fits under the cap.
  push(retained_.find(size)->second, block, size);
  stats_.live_bytes -= size;
  stats_.retained_bytes += size;
}

HostPool::Stats HostPool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

HostPool& host_pool() {
  static HostPool* const pool = new HostPool();
  return *pool;
}

}  // namespace toast::accel
