#include "accel/work.hpp"

#include <algorithm>
#include <atomic>

#include "accel/host_threads.hpp"

namespace toast::accel {

namespace {

constexpr std::size_t kWarp = 32;
static_assert(HostThreads::kGrain % kWarp == 0,
              "pool ranges must start on a window boundary");

/// The serial scan of lanes that start on a window boundary.
WindowConflicts count_windows(std::span<const std::int64_t> lanes,
                              std::int64_t bound) {
  std::int64_t seen[kWarp] = {};
  WindowConflicts out;
  for (std::size_t w0 = 0; w0 < lanes.size(); w0 += kWarp) {
    std::size_t distinct = 0;
    const std::size_t w1 = std::min(lanes.size(), w0 + kWarp);
    for (std::size_t k = w0; k < w1; ++k) {
      const auto j = lanes[k];
      if (j < 0 || j >= bound) continue;
      ++out.valid;
      // Newest first: neighbouring lanes usually share a target.
      std::size_t s = distinct;
      while (s > 0 && seen[s - 1] != j) --s;
      if (s > 0) {
        ++out.conflicts;
      } else {
        seen[distinct++] = j;
      }
    }
  }
  return out;
}

}  // namespace

WindowConflicts count_window_conflicts(std::span<const std::int64_t> lanes,
                                       std::int64_t bound) {
  std::atomic<std::int64_t> valid{0};
  std::atomic<std::int64_t> conflicts{0};
  host_threads().parallel_chunks(
      lanes.size(), [&](std::size_t b, std::size_t e) {
        const auto part = count_windows(lanes.subspan(b, e - b), bound);
        valid.fetch_add(part.valid, std::memory_order_relaxed);
        conflicts.fetch_add(part.conflicts, std::memory_order_relaxed);
      });
  return {valid.load(std::memory_order_relaxed),
          conflicts.load(std::memory_order_relaxed)};
}

}  // namespace toast::accel
