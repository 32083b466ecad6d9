// CPU baseline: accumulate noise-weighted timestreams onto a sky map.
// The scatter into the map domain is done with atomics when threaded; the
// conflict rate depends on how often concurrent samples hit the same
// pixel, which we measure from the real pixel stream (rescanned only when
// it differs from the last stream: ExecContext::conflict_rate).

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void build_noise_weighted(std::span<const std::int64_t> pixels,
                          std::span<const double> weights, std::int64_t nnz,
                          std::span<const double> signal,
                          std::span<const double> det_scale,
                          std::span<const std::uint8_t> shared_flags,
                          std::uint8_t flag_mask,
                          std::span<const core::Interval> intervals,
                          std::int64_t n_det, std::int64_t n_samp,
                          std::span<double> zmap, core::ExecContext& ctx) {
  // Serial on the host: every detector scatters into the one zmap, and
  // its floating-point sums depend on the order they arrive in.
  for (std::int64_t det = 0; det < n_det; ++det) {
    const double scale = det_scale[static_cast<std::size_t>(det)];
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        const std::size_t off = static_cast<std::size_t>(det * n_samp + s);
        const bool flagged =
            !shared_flags.empty() &&
            (shared_flags[static_cast<std::size_t>(s)] & flag_mask) != 0;
        const std::int64_t pix = pixels[off];
        if (flagged || pix < 0) {
          continue;
        }
        const double z = scale * signal[off];
        const double* w = &weights[nnz * off];
        double* target = &zmap[static_cast<std::size_t>(nnz * pix)];
        for (std::int64_t k = 0; k < nnz; ++k) {
          target[k] += z * w[k];  // atomic when threaded
        }
      }
    }
  }

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  const double dnnz = static_cast<double>(nnz);
  w.flops = (2.0 * dnnz + 1.0) * iters;
  w.bytes_read = (8.0 + 8.0 + 8.0 * dnnz + 1.0) * iters;
  w.bytes_written = 8.0 * dnnz * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.atomic_ops = dnnz * iters;
  w.atomic_conflict_rate = ctx.conflict_rate(pixels);
  w.cpu_vector_eff = 0.30;
  ctx.charge_host_kernel("build_noise_weighted", w);
}

}  // namespace toast::kernels::cpu
