// OpenMP Target Offload port of build_noise_weighted.  The accumulation
// into the map domain uses device atomics; the conflict rate is measured
// from the actual pixel stream (dense scanning patterns revisit pixels),
// rescanned only when it differs from the last stream
// (ExecContext::conflict_rate).

#include <algorithm>

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

namespace {

inline void build_noise_weighted_inner(
    const std::int64_t* pixels, const double* weights, std::int64_t nnz,
    const double* signal, double scale, const std::uint8_t* shared_flags,
    std::uint8_t flag_mask, std::int64_t n_samp, std::int64_t det,
    std::int64_t s, double* zmap) {
  const std::int64_t off = det * n_samp + s;
  const bool flagged =
      shared_flags != nullptr && (shared_flags[s] & flag_mask) != 0;
  const std::int64_t pix = pixels[off];
  if (flagged || pix < 0) {
    return;
  }
  const double z = scale * signal[off];
  const double* w = &weights[nnz * off];
  double* target = &zmap[nnz * pix];
  for (std::int64_t k = 0; k < nnz; ++k) {
    // #pragma omp atomic update
    target[k] += z * w[k];
  }
}

}  // namespace

void build_noise_weighted(const std::int64_t* pixels, const double* weights,
                          std::int64_t nnz, const double* signal,
                          const double* det_scale,
                          const std::uint8_t* shared_flags,
                          std::uint8_t flag_mask,
                          std::span<const core::Interval> intervals,
                          std::int64_t n_det, std::int64_t n_samp,
                          double* zmap, core::ExecContext& ctx,
                          bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());
  const double dnnz = static_cast<double>(nnz);

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 2.0 * dnnz + 1.0;
    cost.bytes_read = 17.0 + 8.0 * dnnz;
    cost.bytes_written = 8.0 * dnnz;
    cost.atomic_ops = dnnz;
    cost.atomic_conflict_rate = ctx.conflict_rate(
        std::span<const std::int64_t>(pixels,
                                      static_cast<std::size_t>(n_det * n_samp)));
    ctx.omp().target_for_collapse3(
        "build_noise_weighted", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          build_noise_weighted_inner(pixels, weights, nnz, signal,
                                     det_scale[det], shared_flags, flag_mask,
                                     n_samp, det, s, zmap);
          return true;
        });
    return;
  }

  // Host path.
  // #pragma omp parallel for collapse(2)
  // Serial here: every detector scatters into the one zmap, and its
  // floating-point sums depend on the order they arrive in.
  for (std::int64_t det = 0; det < n_det; ++det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        build_noise_weighted_inner(pixels, weights, nnz, signal,
                                   det_scale[det], shared_flags, flag_mask,
                                   n_samp, det, s, zmap);
      }
    }
  }
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = (2.0 * dnnz + 1.0) * iters;
  w.bytes_read = (17.0 + 8.0 * dnnz) * iters;
  w.bytes_written = 8.0 * dnnz * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.atomic_ops = dnnz * iters;
  w.atomic_conflict_rate = ctx.conflict_rate(
      std::span<const std::int64_t>(pixels,
                                    static_cast<std::size_t>(n_det * n_samp)));
  w.cpu_vector_eff = 0.30;
  ctx.charge_host_kernel("build_noise_weighted", w);
}

}  // namespace toast::kernels::omp
