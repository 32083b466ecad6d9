// CPU baseline: scale timestreams by detector noise weights.  Trivially
// memory-bound.

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void noise_weight(std::span<const double> det_weights,
                  std::span<const core::Interval> intervals,
                  std::int64_t n_det, std::int64_t n_samp,
                  std::span<double> signal, core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    const double dw = det_weights[static_cast<std::size_t>(det)];
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        signal[static_cast<std::size_t>(det * n_samp + s)] *= dw;
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 1.0 * iters;
  w.bytes_read = 8.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 1.0;
  ctx.charge_host_kernel("noise_weight", w);
}

}  // namespace toast::kernels::cpu
