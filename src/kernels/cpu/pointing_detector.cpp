// CPU baseline: expand boresight pointing into detector pointing.
// Threaded over detectors and intervals; the quaternion product
// vectorizes moderately well.

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void pointing_detector(std::span<const double> fp_quats,
                       std::span<const double> boresight,
                       std::span<const std::uint8_t> shared_flags,
                       std::uint8_t flag_mask,
                       std::span<const core::Interval> intervals,
                       std::int64_t n_det, std::int64_t n_samp,
                       std::span<double> quats, core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    const double* fp = &fp_quats[static_cast<std::size_t>(4 * det)];
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        const double* bore = &boresight[static_cast<std::size_t>(4 * s)];
        double* out =
            &quats[static_cast<std::size_t>(4 * (det * n_samp + s))];
        const bool flagged =
            !shared_flags.empty() &&
            (shared_flags[static_cast<std::size_t>(s)] & flag_mask) != 0;
        if (flagged) {
          // Flagged samples fall back to the detector offset alone.
          out[0] = fp[0];
          out[1] = fp[1];
          out[2] = fp[2];
          out[3] = fp[3];
        } else {
          quat_mult(bore, fp, out);
        }
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 28.0 * iters;          // 16 mul + 12 add per quaternion product
  w.bytes_read = 33.0 * iters;     // boresight quat + flag byte
  w.bytes_written = 32.0 * iters;  // output quat
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.70;
  ctx.charge_host_kernel("pointing_detector", w);
}

}  // namespace toast::kernels::cpu
