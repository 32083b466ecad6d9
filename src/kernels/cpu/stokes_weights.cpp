// CPU baseline: detector Stokes response weights.
// stokes_weights_iqu is the most compute-dense kernel of the benchmark
// (two quaternion rotations, atan2, sin/cos per sample).

#include <cmath>

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void stokes_weights_iqu(std::span<const double> quats,
                        std::span<const double> hwp_angle,
                        std::span<const double> pol_eff,
                        std::span<const core::Interval> intervals,
                        std::int64_t n_det, std::int64_t n_samp,
                        std::span<double> weights, core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    const double eta = pol_eff[static_cast<std::size_t>(det)];
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        const std::size_t off = static_cast<std::size_t>(det * n_samp + s);
        const double* q = &quats[4 * off];
        double ang = detector_angle(q);
        if (!hwp_angle.empty()) {
          ang += 2.0 * hwp_angle[static_cast<std::size_t>(s)];
        }
        double* w = &weights[3 * off];
        w[0] = 1.0;
        w[1] = eta * std::cos(2.0 * ang);
        w[2] = eta * std::sin(2.0 * ang);
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 112.0 * iters;  // 2 rotations + atan2 + sincos + arithmetic
  w.bytes_read = 40.0 * iters;
  w.bytes_written = 24.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.15;  // libm atan2/sincos per sample do not vectorize
  ctx.charge_host_kernel("stokes_weights_IQU", w);
}

void stokes_weights_i(std::span<const core::Interval> intervals,
                      std::int64_t n_det, std::int64_t n_samp,
                      std::span<double> weights, core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        weights[static_cast<std::size_t>(det * n_samp + s)] = 1.0;
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 1.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  ctx.charge_host_kernel("stokes_weights_I", w);
}

}  // namespace toast::kernels::cpu
