// OpenMP Target Offload port of pointing_detector.

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

namespace {

// Inner function shared by the host and target paths, as in the real
// port: only the loop structure and pragmas differ.
inline void pointing_detector_inner(const double* fp_quats,
                                    const double* boresight,
                                    const std::uint8_t* shared_flags,
                                    std::uint8_t flag_mask,
                                    std::int64_t n_samp, std::int64_t det,
                                    std::int64_t s, double* quats) {
  const double* fp = &fp_quats[4 * det];
  const double* bore = &boresight[4 * s];
  double* out = &quats[4 * (det * n_samp + s)];
  const bool flagged =
      shared_flags != nullptr && (shared_flags[s] & flag_mask) != 0;
  if (flagged) {
    out[0] = fp[0];
    out[1] = fp[1];
    out[2] = fp[2];
    out[3] = fp[3];
  } else {
    quat_mult(bore, fp, out);
  }
}

}  // namespace

void pointing_detector(const double* fp_quats, const double* boresight,
                       const std::uint8_t* shared_flags,
                       std::uint8_t flag_mask,
                       std::span<const core::Interval> intervals,
                       std::int64_t n_det, std::int64_t n_samp, double* quats,
                       core::ExecContext& ctx, bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    // Precompute the maximum interval length and guard-cut the overhang.
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 28.0;
    cost.bytes_read = 33.0;
    cost.bytes_written = 32.0;
    ctx.omp().target_for_collapse3(
        "pointing_detector", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;  // guard: past the true interval end
          }
          pointing_detector_inner(fp_quats, boresight, shared_flags,
                                  flag_mask, n_samp, det, s, quats);
          return true;
        });
    return;
  }

  // Host path: the pre-existing OpenMP CPU loop.
  // #pragma omp parallel for collapse(2)
  for_each_detector(n_det, [&](std::int64_t det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        pointing_detector_inner(fp_quats, boresight, shared_flags, flag_mask,
                                n_samp, det, s, quats);
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 28.0 * iters;
  w.bytes_read = 33.0 * iters;
  w.bytes_written = 32.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.70;
  ctx.charge_host_kernel("pointing_detector", w);
}

}  // namespace toast::kernels::omp
