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
};

xla::Array amplitude_index(const Statics& s, const PaddedIndex& idx) {
  using namespace xla;
  return add(mul(idx.det, constant_i64(s.n_amp_det)),
             div(idx.samp, constant_i64(s.step_length)));
}

Arrays add_graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array amplitudes = in[3], signal = in[4];
  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array amp = gather(amplitudes, amplitude_index(s, idx));
  const Array updated = gather(signal, idx.detmaj) + amp;
  return {scatter_set(signal, masked(idx.detmaj, idx.valid), updated)};
}

Arrays project_graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array signal = in[3], amplitudes = in[4];
  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array contrib = gather(signal, idx.detmaj);
  return {scatter_add(amplitudes, masked(amplitude_index(s, idx), idx.valid),
                      contrib)};
}

struct NoStatics {};

Arrays precond_graph(const NoStatics&, const Arrays& in) {
  return {xla::mul(in[0], in[1])};
}

const JaxKernel<Statics> add_kernel{"template_offset_add_to_signal",
                                    add_graph, {4}, {0, 1, 2}};
const JaxKernel<Statics> project_kernel{"template_offset_project_signal",
                                        project_graph, {4}, {0, 1, 2}};
const JaxKernel<NoStatics> precond_kernel{
    "template_offset_apply_diag_precond", precond_graph, {}, {}};

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
  add_kernel.call(ctx, {view.max_len, n_samp, step_length, n_amp_det},
                  pack_args(view.det_ids, view.starts, view.lens,
                            lit_f64(amplitudes, n_det * n_amp_det),
                            lit_f64(signal, n_det * n_samp)),
                  signal);
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
  project_kernel.call(ctx, {view.max_len, n_samp, step_length, n_amp_det},
                      pack_args(view.det_ids, view.starts, view.lens,
                                lit_f64(signal, n_det * n_samp),
                                lit_f64(amplitudes, n_det * n_amp_det)),
                      amplitudes);
}

void template_offset_apply_diag_precond(const double* offset_var,
                                        const double* amp_in,
                                        std::int64_t n_amp, double* amp_out,
                                        core::ExecContext& ctx) {
  if (n_amp == 0) {
    return;
  }
  precond_kernel.call(
      ctx, {}, pack_args(lit_f64(amp_in, n_amp), lit_f64(offset_var, n_amp)),
      amp_out);
}

}  // namespace toast::kernels::jax
