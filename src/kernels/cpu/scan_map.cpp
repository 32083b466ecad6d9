// CPU baseline: scan a pixelized sky map onto detector timestreams.
// Gather-dominated: the map access pattern follows the scanning motion.

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void scan_map(std::span<const double> sky_map, std::int64_t nnz,
              std::span<const std::int64_t> pixels,
              std::span<const double> weights, double data_scale,
              std::span<const core::Interval> intervals, std::int64_t n_det,
              std::int64_t n_samp, std::span<double> signal,
              core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        const std::size_t off = static_cast<std::size_t>(det * n_samp + s);
        const std::int64_t pix = pixels[off];
        if (pix < 0) {
          continue;  // flagged sample
        }
        const double* w = &weights[nnz * off];
        const double* m = &sky_map[static_cast<std::size_t>(nnz * pix)];
        double value = 0.0;
        for (std::int64_t k = 0; k < nnz; ++k) {
          value += m[k] * w[k];
        }
        signal[off] += data_scale * value;
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  const double dnnz = static_cast<double>(nnz);
  w.flops = (2.0 * dnnz + 2.0) * iters;
  w.bytes_read = (8.0 + 16.0 * dnnz + 8.0) * iters;  // pix + weights + map
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.40;  // indirect map access defeats the vectorizer
  ctx.charge_host_kernel("scan_map", w);
}

}  // namespace toast::kernels::cpu
