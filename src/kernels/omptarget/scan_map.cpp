// OpenMP Target Offload port of scan_map.  The gather from the sky map is
// uncoalesced but read-only; no atomics are needed.

#include <algorithm>

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

namespace {

inline void scan_map_inner(const double* sky_map, std::int64_t nnz,
                           const std::int64_t* pixels, const double* weights,
                           double data_scale, std::int64_t n_samp,
                           std::int64_t det, std::int64_t s, double* signal) {
  const std::int64_t off = det * n_samp + s;
  const std::int64_t pix = pixels[off];
  if (pix < 0) {
    return;
  }
  const double* w = &weights[nnz * off];
  const double* m = &sky_map[nnz * pix];
  double value = 0.0;
  for (std::int64_t k = 0; k < nnz; ++k) {
    value += m[k] * w[k];
  }
  signal[off] += data_scale * value;
}

}  // namespace

void scan_map(const double* sky_map, std::int64_t nnz,
              const std::int64_t* pixels, const double* weights,
              double data_scale, std::span<const core::Interval> intervals,
              std::int64_t n_det, std::int64_t n_samp, double* signal,
              core::ExecContext& ctx, bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());
  const double dnnz = static_cast<double>(nnz);

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 2.0 * dnnz + 2.0;
    cost.bytes_read = 16.0 + 16.0 * dnnz;  // pixel + signal + weights + map
    cost.bytes_written = 8.0;
    ctx.omp().target_for_collapse3(
        "scan_map", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          scan_map_inner(sky_map, nnz, pixels, weights, data_scale, n_samp,
                         det, s, signal);
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
        scan_map_inner(sky_map, nnz, pixels, weights, data_scale, n_samp,
                       det, s, signal);
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = (2.0 * dnnz + 2.0) * iters;
  w.bytes_read = (16.0 + 16.0 * dnnz) * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.40;
  ctx.charge_host_kernel("scan_map", w);
}

}  // namespace toast::kernels::omp
