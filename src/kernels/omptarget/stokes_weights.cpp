// OpenMP Target Offload ports of stokes_weights_IQU and stokes_weights_I.
// The IQU kernel is compute-dense and maps almost perfectly onto the GPU:
// it is the paper's best case at 61x over the CPU baseline.

#include <algorithm>
#include <cmath>

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

namespace {

inline void stokes_iqu_inner(const double* quats, const double* hwp_angle,
                             double eta, std::int64_t n_samp,
                             std::int64_t det, std::int64_t s,
                             double* weights) {
  const std::int64_t off = det * n_samp + s;
  double ang = detector_angle(&quats[4 * off]);
  if (hwp_angle != nullptr) {
    ang += 2.0 * hwp_angle[s];
  }
  double* w = &weights[3 * off];
  w[0] = 1.0;
  w[1] = eta * std::cos(2.0 * ang);
  w[2] = eta * std::sin(2.0 * ang);
}

}  // namespace

void stokes_weights_iqu(const double* quats, const double* hwp_angle,
                        const double* pol_eff,
                        std::span<const core::Interval> intervals,
                        std::int64_t n_det, std::int64_t n_samp,
                        double* weights, core::ExecContext& ctx,
                        bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 112.0;
    cost.bytes_read = 40.0;
    cost.bytes_written = 24.0;
    ctx.omp().target_for_collapse3(
        "stokes_weights_IQU", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          stokes_iqu_inner(quats, hwp_angle, pol_eff[det], n_samp, det, s,
                           weights);
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
        stokes_iqu_inner(quats, hwp_angle, pol_eff[det], n_samp, det, s,
                         weights);
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 112.0 * iters;
  w.bytes_read = 40.0 * iters;
  w.bytes_written = 24.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.15;
  ctx.charge_host_kernel("stokes_weights_IQU", w);
}

void stokes_weights_i(std::span<const core::Interval> intervals,
                      std::int64_t n_det, std::int64_t n_samp,
                      double* weights, core::ExecContext& ctx,
                      bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 1.0;
    cost.bytes_written = 8.0;
    ctx.omp().target_for_collapse3(
        "stokes_weights_I", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          weights[det * n_samp + s] = 1.0;
          return true;
        });
    return;
  }

  for_each_detector(n_det, [&](std::int64_t det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        weights[det * n_samp + s] = 1.0;
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 1.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  ctx.charge_host_kernel("stokes_weights_I", w);
}

}  // namespace toast::kernels::omp
