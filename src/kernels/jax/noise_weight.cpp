// JAX port of noise_weight: one gather, one multiply, one masked store.
// The paper's smallest kernel - dispatch overhead dominates it.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

Arrays graph(const PaddedStatics& s, const Arrays& in) {
  using namespace xla;
  const Array det_weights = in[3], signal = in[4];
  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array w = gather(det_weights, idx.det);
  const Array updated = gather(signal, idx.detmaj) * w;
  return {scatter_set(signal, masked(idx.detmaj, idx.valid), updated)};
}

const JaxKernel<PaddedStatics> kernel{"noise_weight", graph, {4},
                                      {0, 1, 2, 3}};

}  // namespace

void noise_weight(const double* det_weights,
                  std::span<const core::Interval> intervals,
                  std::int64_t n_det, std::int64_t n_samp, double* signal,
                  core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  kernel.call(ctx, {view.max_len, n_samp},
              pack_args(view.det_ids, view.starts, view.lens,
                        lit_f64(det_weights, n_det),
                        lit_f64(signal, n_det * n_samp)),
              signal);
}

}  // namespace toast::kernels::jax
