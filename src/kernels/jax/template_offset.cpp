// JAX ports of the offset-template kernels.
//
// project_signal is where the JAX port shines in the paper (45x vs the
// OpenMP port's 19x): the functional amplitudes.at[idx].add(signal) has
// *sorted* update indices (samples of one step are contiguous), and the
// XLA lowering turns it into a conflict-free segmented reduction - "the
// XLA compiler finding a way to express this particular kernel in terms
// of linear algebra" (§4.2).

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t step_length = 1;
  std::int64_t n_amp_det = 0;
} s;

xla::Array amplitude_index(const PaddedIndex& idx) {
  using namespace xla;
  return add(mul(idx.det, constant_i64(s.n_amp_det)),
             div(idx.samp, constant_i64(s.step_length)));
}

std::vector<xla::Array> add_graph(const std::vector<xla::Array>& in) {
  using namespace xla;
  const Array det_ids = in[0], starts = in[1], lens = in[2];
  const Array amplitudes = in[3], signal = in[4];
  const PaddedIndex idx =
      padded_index(det_ids, starts, lens, s.max_len, s.n_samp);
  const Array amp = gather(amplitudes, amplitude_index(idx));
  const Array updated = gather(signal, idx.detmaj) + amp;
  return {scatter_set(signal, masked(idx.detmaj, idx.valid), updated)};
}

std::vector<xla::Array> project_graph(const std::vector<xla::Array>& in) {
  using namespace xla;
  const Array det_ids = in[0], starts = in[1], lens = in[2];
  const Array signal = in[3], amplitudes = in[4];
  const PaddedIndex idx =
      padded_index(det_ids, starts, lens, s.max_len, s.n_samp);
  const Array contrib = gather(signal, idx.detmaj);
  return {scatter_add(amplitudes, masked(amplitude_index(idx), idx.valid),
                      contrib)};
}

std::vector<xla::Array> precond_graph(const std::vector<xla::Array>& in) {
  return {xla::mul(in[0], in[1])};
}

}  // namespace

void template_offset_add_to_signal(std::int64_t step_length,
                                   const double* amplitudes,
                                   std::int64_t n_amp_det,
                                   std::span<const core::Interval> intervals,
                                   std::int64_t n_det, std::int64_t n_samp,
                                   double* signal, core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  s = {view.max_len, n_samp, step_length, n_amp_det};

  std::vector<xla::Literal> args;
  args.push_back(view.det_ids);
  args.push_back(view.starts);
  args.push_back(view.lens);
  args.push_back(lit_f64(amplitudes, n_det * n_amp_det));
  args.push_back(lit_f64(signal, n_det * n_samp));

  auto& jit = registered_jit("template_offset_add_to_signal", add_graph);
  jit.set_donated_params({4});
  jit.set_invariant_params({0, 1, 2});
  const std::string key = "maxlen=" + std::to_string(s.max_len) + ";nsamp=" +
                          std::to_string(s.n_samp) +
                          ";step=" + std::to_string(step_length) +
                          ";namp=" + std::to_string(n_amp_det);
  const auto out = jit.call(ctx.jax(), std::move(args), key);
  store_f64(out[0], signal);
}

void template_offset_project_signal(
    std::int64_t step_length, const double* signal,
    std::span<const core::Interval> intervals, std::int64_t n_det,
    std::int64_t n_samp, double* amplitudes, std::int64_t n_amp_det,
    core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  s = {view.max_len, n_samp, step_length, n_amp_det};

  std::vector<xla::Literal> args;
  args.push_back(view.det_ids);
  args.push_back(view.starts);
  args.push_back(view.lens);
  args.push_back(lit_f64(signal, n_det * n_samp));
  args.push_back(lit_f64(amplitudes, n_det * n_amp_det));

  auto& jit = registered_jit("template_offset_project_signal", project_graph);
  jit.set_donated_params({4});
  jit.set_invariant_params({0, 1, 2});
  const std::string key = "maxlen=" + std::to_string(s.max_len) + ";nsamp=" +
                          std::to_string(s.n_samp) +
                          ";step=" + std::to_string(step_length) +
                          ";namp=" + std::to_string(n_amp_det);
  const auto out = jit.call(ctx.jax(), std::move(args), key);
  store_f64(out[0], amplitudes);
}

void template_offset_apply_diag_precond(const double* offset_var,
                                        const double* amp_in,
                                        std::int64_t n_amp, double* amp_out,
                                        core::ExecContext& ctx) {
  if (n_amp == 0) {
    return;
  }
  std::vector<xla::Literal> args;
  args.push_back(lit_f64(amp_in, n_amp));
  args.push_back(lit_f64(offset_var, n_amp));

  auto& jit =
      registered_jit("template_offset_apply_diag_precond", precond_graph);
  const auto out = jit.call(ctx.jax(), std::move(args), "");
  store_f64(out[0], amp_out);
}

}  // namespace toast::kernels::jax
