// OpenMP Target Offload port of pixels_healpix.  The HEALPix projection
// runs as-is inside the target region; its branches cost SIMT divergence
// (longest-path), which the launch declares.

#include <algorithm>

#include "healpix/healpix.hpp"
#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

namespace {

inline void pixels_healpix_inner(const healpix::Healpix& hp, bool nest,
                                 const double* quats,
                                 const std::uint8_t* shared_flags,
                                 std::uint8_t flag_mask, std::int64_t n_samp,
                                 std::int64_t det, std::int64_t s,
                                 std::int64_t* pixels) {
  const std::int64_t off = det * n_samp + s;
  const bool flagged =
      shared_flags != nullptr && (shared_flags[s] & flag_mask) != 0;
  if (flagged) {
    pixels[off] = -1;
    return;
  }
  const double* q = &quats[4 * off];
  double dir[3];
  const double zaxis[3] = {0.0, 0.0, 1.0};
  quat_rotate(q, zaxis, dir);
  pixels[off] = nest ? hp.vec2pix_nest(dir[0], dir[1], dir[2])
                     : hp.vec2pix_ring(dir[0], dir[1], dir[2]);
}

}  // namespace

void pixels_healpix(const double* quats, const std::uint8_t* shared_flags,
                    std::uint8_t flag_mask, std::int64_t nside, bool nest,
                    std::span<const core::Interval> intervals,
                    std::int64_t n_det, std::int64_t n_samp,
                    std::int64_t* pixels, core::ExecContext& ctx,
                    bool use_accel) {
  const healpix::Healpix hp(nside);
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 85.0;
    cost.bytes_read = 33.0;
    cost.bytes_written = 8.0;
    // Equatorial/polar split and per-branch index juggling: warps pay the
    // longest taken path.
    cost.divergence = 2.2;
    ctx.omp().target_for_collapse3(
        "pixels_healpix", n_det, n_view, max_len, cost,
        [&](std::int64_t det, std::int64_t view, std::int64_t i) {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          pixels_healpix_inner(hp, nest, quats, shared_flags, flag_mask,
                               n_samp, det, s, pixels);
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
        pixels_healpix_inner(hp, nest, quats, shared_flags, flag_mask,
                             n_samp, det, s, pixels);
      }
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 85.0 * iters;
  w.bytes_read = 33.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.divergence = 2.2;
  w.cpu_vector_eff = 0.55;
  ctx.charge_host_kernel("pixels_healpix", w);
}

}  // namespace toast::kernels::omp
