// JAX port of scan_map: gathers from the sky map, one per non-zero, with
// flagged and padded lanes masked out of the final accumulate.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t nnz = 0;
  double data_scale = 1.0;
};

Arrays graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array sky_map = in[3], pixels = in[4], weights = in[5],
              signal = in[6];

  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array pix = gather(pixels, idx.detmaj);
  const Array scanned = logical_and(idx.valid, ge(pix, constant_i64(0)));
  // Clamp flagged pixels to 0 for the gather (value is masked out later).
  const Array safe_pix = maximum(pix, constant_i64(0));

  Array value = constant(0.0);
  for (std::int64_t k = 0; k < s.nnz; ++k) {
    const Array widx =
        add(mul(idx.detmaj, constant_i64(s.nnz)), constant_i64(k));
    const Array midx =
        add(mul(safe_pix, constant_i64(s.nnz)), constant_i64(k));
    value = value + gather(sky_map, midx) * gather(weights, widx);
  }
  const Array old = gather(signal, idx.detmaj);
  const Array updated = old + s.data_scale * value;
  return {scatter_set(signal, masked(idx.detmaj, scanned), updated)};
}

const JaxKernel<Statics> kernel{"scan_map", graph, {6}, {}};

}  // namespace

void scan_map(const double* sky_map, std::int64_t n_pix, std::int64_t nnz,
              const std::int64_t* pixels, const double* weights,
              double data_scale, std::span<const core::Interval> intervals,
              std::int64_t n_det, std::int64_t n_samp, double* signal,
              core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  kernel.call(ctx, {view.max_len, n_samp, nnz, data_scale},
              pack_args(view.det_ids, view.starts, view.lens,
                        lit_f64(sky_map, n_pix * nnz),
                        lit_i64(pixels, n_det * n_samp),
                        lit_f64(weights, nnz * n_det * n_samp),
                        lit_f64(signal, n_det * n_samp)),
              signal);
}

}  // namespace toast::kernels::jax
