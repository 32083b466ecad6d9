// OpenMP Target Offload port of noise_weight: a streaming scale, fully
// memory-bound on any architecture.

#include <algorithm>

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

void noise_weight(const double* det_weights,
                  std::span<const core::Interval> intervals,
                  std::int64_t n_det, std::int64_t n_samp, double* signal,
                  core::ExecContext& ctx, bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 1.0;
    cost.bytes_read = 8.0;
    cost.bytes_written = 8.0;
    ctx.omp().target_for_collapse3(
        "noise_weight", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          signal[det * n_samp + s] *= det_weights[det];
          return true;
        });
    return;
  }

  // Host path.
  // #pragma omp parallel for collapse(2)
  for_each_detector(n_det, [&](std::int64_t det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        signal[det * n_samp + s] *= det_weights[det];
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 1.0 * iters;
  w.bytes_read = 8.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  ctx.charge_host_kernel("noise_weight", w);
}

}  // namespace toast::kernels::omp
