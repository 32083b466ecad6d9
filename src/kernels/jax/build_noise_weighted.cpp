// JAX port of build_noise_weighted: functional scatter_add into the map
// domain (x.at[pix].add(...)).  The scanning pattern makes the update
// indices unsorted, so the XLA lowering pays atomic contention - unlike
// the sorted segment scatter of template_offset_project_signal.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t nnz = 0;
  std::int64_t flag_mask = 0;
};

Arrays graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array pixels = in[3], weights = in[4], signal = in[5],
              det_scale = in[6], flags = in[7], zmap = in[8];

  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array pix = gather(pixels, idx.detmaj);
  const Array flag = gather(flags, idx.samp);
  const Array flagged =
      ne(bitwise_and(flag, constant_i64(s.flag_mask)), constant_i64(0));
  const Array good = logical_and(
      idx.valid,
      logical_and(logical_not(flagged), ge(pix, constant_i64(0))));

  const Array z = gather(det_scale, idx.det) * gather(signal, idx.detmaj);
  const Array safe_pix = maximum(pix, constant_i64(0));

  Array out = zmap;
  for (std::int64_t k = 0; k < s.nnz; ++k) {
    const Array widx =
        add(mul(idx.detmaj, constant_i64(s.nnz)), constant_i64(k));
    const Array midx =
        add(mul(safe_pix, constant_i64(s.nnz)), constant_i64(k));
    out = scatter_add(out, masked(midx, good), z * gather(weights, widx));
  }
  return {out};
}

const JaxKernel<Statics> kernel{"build_noise_weighted", graph, {8},
                                {0, 1, 2, 3, 4, 6, 7}};

}  // namespace

void build_noise_weighted(const std::int64_t* pixels, const double* weights,
                          std::int64_t n_pix, std::int64_t nnz,
                          const double* signal, const double* det_scale,
                          const std::uint8_t* shared_flags,
                          std::uint8_t flag_mask,
                          std::span<const core::Interval> intervals,
                          std::int64_t n_det, std::int64_t n_samp,
                          double* zmap, core::ExecContext& ctx) {
  PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  kernel.call(ctx,
              {view.max_len, n_samp, nnz,
               shared_flags != nullptr ? flag_mask : 0},
              pack_args(std::move(view),
                        borrow(pixels, n_det * n_samp),
                        borrow(weights, nnz * n_det * n_samp),
                        borrow(signal, n_det * n_samp),
                        borrow(det_scale, n_det),
                        lit_u8_as_i64(shared_flags, n_samp),
                        donate(zmap, n_pix * nnz)),
              zmap);
}

}  // namespace toast::kernels::jax
