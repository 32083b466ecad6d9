#pragma once

// Work estimates: the contract between kernel implementations and the
// performance model.  Each backend execution produces a WorkEstimate that
// describes what the kernel *did* (flops, memory traffic, launches,
// available parallelism, control-flow structure).  The SimDevice / host
// model converts estimates into virtual seconds.
//
// Estimates are linear in trip counts, so they can be scaled from the
// reduced functional problem size up to the paper-scale problem.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace toast::accel {

struct WorkEstimate {
  /// Floating-point operations actually executed.
  double flops = 0.0;
  /// Bytes read from / written to the kernel's main memory.
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  /// Number of device kernel launches this estimate covers.
  double launches = 0.0;
  /// Exposed parallelism (independent work items across the launch).
  double parallel_items = 1.0;
  /// Compute-time multiplier from control-flow divergence: 1 for straight
  /// line code; >1 when SIMT lanes execute distinct paths (OpenMP target
  /// pays the longest path per warp, XLA predication pays the *sum* of
  /// paths it materializes).
  double divergence = 1.0;
  /// Atomic read-modify-write operations, and the measured probability
  /// that two concurrent atomics hit the same address.
  double atomic_ops = 0.0;
  double atomic_conflict_rate = 0.0;
  /// Effective SIMD fraction on the CPU (1 = fully vectorized).  Only used
  /// by the host model.
  double cpu_vector_eff = 1.0;

  /// Scale data-proportional fields by `s`, leaving launch counts and
  /// structural factors unchanged.
  WorkEstimate scaled(double s) const {
    WorkEstimate w = *this;
    w.flops *= s;
    w.bytes_read *= s;
    w.bytes_written *= s;
    w.parallel_items *= s;
    w.atomic_ops *= s;
    return w;
  }

  /// Accumulate another estimate (e.g. several launches of one pipeline).
  WorkEstimate& operator+=(const WorkEstimate& o) {
    // Structural factors are combined as flop-weighted averages so that a
    // sum of estimates models a sequence of the underlying kernels.
    const double wf = flops + o.flops;
    if (wf > 0.0) {
      divergence = (divergence * flops + o.divergence * o.flops) / wf;
      cpu_vector_eff =
          (cpu_vector_eff * flops + o.cpu_vector_eff * o.flops) / wf;
    }
    const double wa = atomic_ops + o.atomic_ops;
    if (wa > 0.0) {
      atomic_conflict_rate = (atomic_conflict_rate * atomic_ops +
                              o.atomic_conflict_rate * o.atomic_ops) /
                             wa;
    }
    flops = wf;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    launches += o.launches;
    parallel_items += o.parallel_items;
    atomic_ops = wa;
    return *this;
  }

  double total_bytes() const { return bytes_read + bytes_written; }
};

/// Lanes of an atomic update stream and how many of them conflict.
struct WindowConflicts {
  std::int64_t valid = 0;
  std::int64_t conflicts = 0;

  /// The `atomic_conflict_rate` of the stream (0 with no valid lane).
  double rate() const {
    return valid > 0 ? static_cast<double>(conflicts) /
                           static_cast<double>(valid)
                     : 0.0;
  }
};

/// Scan an atomic index stream in warp-sized (32) windows of concurrent
/// lanes: a lane conflicts when an earlier lane of its window targets the
/// same element.  Lanes < 0 or >= `bound` do no update and are dropped
/// (flagged samples, out-of-range scatter indices).  Long streams are
/// scanned in ranges of whole windows on the host pool; the counts are
/// integer sums, so they do not depend on the ranges.
WindowConflicts count_window_conflicts(
    std::span<const std::int64_t> lanes,
    std::int64_t bound = std::numeric_limits<std::int64_t>::max());

}  // namespace toast::accel
