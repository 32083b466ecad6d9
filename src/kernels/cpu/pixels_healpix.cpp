// CPU baseline: detector pointing quaternions to HEALPix pixel indices.
// The heavy branching of the HEALPix projection (equatorial belt vs polar
// caps, ring vs nest bit manipulation) is the paper's canonical example of
// a GPU-unfriendly kernel.

#include "healpix/healpix.hpp"
#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void pixels_healpix(std::span<const double> quats,
                    std::span<const std::uint8_t> shared_flags,
                    std::uint8_t flag_mask, std::int64_t nside, bool nest,
                    std::span<const core::Interval> intervals,
                    std::int64_t n_det, std::int64_t n_samp,
                    std::span<std::int64_t> pixels, core::ExecContext& ctx) {
  const healpix::Healpix hp(nside);
  const double zaxis[3] = {0.0, 0.0, 1.0};
  for_each_detector(n_det, [&](std::int64_t det) {
    for (const auto& ival : intervals) {
      for (std::int64_t s = ival.start; s < ival.stop; ++s) {
        const std::size_t off = static_cast<std::size_t>(det * n_samp + s);
        const bool flagged =
            !shared_flags.empty() &&
            (shared_flags[static_cast<std::size_t>(s)] & flag_mask) != 0;
        if (flagged) {
          pixels[off] = -1;
          continue;
        }
        const double* q = &quats[4 * off];
        double dir[3];
        quat_rotate(q, zaxis, dir);
        pixels[off] = nest ? hp.vec2pix_nest(dir[0], dir[1], dir[2])
                           : hp.vec2pix_ring(dir[0], dir[1], dir[2]);
      }
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 85.0 * iters;  // rotate (21) + atan2/sqrt + projection math
  w.bytes_read = 33.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  // Equatorial/polar split plus per-branch index logic: SIMT lanes pay the
  // longest path; scalar CPU code mostly fails to vectorize instead.
  w.divergence = 2.2;
  w.cpu_vector_eff = 0.55;
  ctx.charge_host_kernel("pixels_healpix", w);
}

}  // namespace toast::kernels::cpu
