// JAX port of noise_weight: one gather, one multiply, one masked store.
// The paper's smallest kernel - dispatch overhead dominates it.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
} s;

std::vector<xla::Array> graph(const std::vector<xla::Array>& in) {
  using namespace xla;
  const Array det_ids = in[0], starts = in[1], lens = in[2];
  const Array det_weights = in[3], signal = in[4];
  const PaddedIndex idx =
      padded_index(det_ids, starts, lens, s.max_len, s.n_samp);
  const Array w = gather(det_weights, idx.det);
  const Array updated = gather(signal, idx.detmaj) * w;
  return {scatter_set(signal, masked(idx.detmaj, idx.valid), updated)};
}

}  // namespace

void noise_weight(const double* det_weights,
                  std::span<const core::Interval> intervals,
                  std::int64_t n_det, std::int64_t n_samp, double* signal,
                  core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  s = {view.max_len, n_samp};

  std::vector<xla::Literal> args;
  args.push_back(view.det_ids);
  args.push_back(view.starts);
  args.push_back(view.lens);
  args.push_back(lit_f64(det_weights, n_det));
  args.push_back(lit_f64(signal, n_det * n_samp));

  auto& jit = registered_jit("noise_weight", graph);
  jit.set_donated_params({4});
  jit.set_invariant_params({0, 1, 2, 3});
  const std::string key = "maxlen=" + std::to_string(s.max_len) +
                          ";nsamp=" + std::to_string(s.n_samp);
  const auto out = jit.call(ctx.jax(), std::move(args), key);
  store_f64(out[0], signal);
}

}  // namespace toast::kernels::jax
