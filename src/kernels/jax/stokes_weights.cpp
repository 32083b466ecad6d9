// JAX ports of stokes_weights_IQU and stokes_weights_I.  Pure array math;
// the transcendental chain fuses into a single large kernel.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t has_hwp = 0;
};

Arrays iqu_graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array quats = in[3], hwp = in[4], pol_eff = in[5], weights_out = in[6];

  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array four = constant_i64(4);
  const Array q4 = mul(idx.detmaj, four);
  const Array qx = gather(quats, q4);
  const Array qy = gather(quats, add(q4, constant_i64(1)));
  const Array qz = gather(quats, add(q4, constant_i64(2)));
  const Array qw = gather(quats, add(q4, constant_i64(3)));

  const Rotated dir = rotate_axis(qx, qy, qz, qw, 0.0, 0.0, 1.0);
  const Rotated orient = rotate_axis(qx, qy, qz, qw, 1.0, 0.0, 0.0);
  const Array by = orient.x * dir.y - orient.y * dir.x;
  const Array bx = orient.x * (neg(dir.z) * dir.x) +
                   orient.y * (neg(dir.z) * dir.y) +
                   orient.z * (dir.x * dir.x + dir.y * dir.y);
  Array ang = atan2(by, bx);
  if (s.has_hwp) {
    ang = ang + 2.0 * gather(hwp, idx.samp);
  }
  const Array eta = gather(pol_eff, idx.det);
  const Array w_q = eta * cos(2.0 * ang);
  const Array w_u = eta * sin(2.0 * ang);

  const Array three = constant_i64(3);
  const Array ow = mul(idx.detmaj, three);
  Array out = weights_out;
  out = scatter_set(out, masked(ow, idx.valid),
                    select(idx.valid, constant(1.0), constant(0.0)));
  out = scatter_set(out, masked(add(ow, constant_i64(1)), idx.valid), w_q);
  out = scatter_set(out, masked(add(ow, constant_i64(2)), idx.valid), w_u);
  return {out};
}

Arrays i_graph(const PaddedStatics& s, const Arrays& in) {
  using namespace xla;
  const Array weights_out = in[3];
  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  return {scatter_set(weights_out, masked(idx.detmaj, idx.valid),
                      broadcast_col(to_f64(eq(in[0], in[0])),
                                    s.max_len))};
}

const JaxKernel<Statics> iqu_kernel{"stokes_weights_IQU", iqu_graph, {6},
                                    {}};
const JaxKernel<PaddedStatics> i_kernel{"stokes_weights_I", i_graph, {3}, {}};

}  // namespace

void stokes_weights_iqu(const double* quats, const double* hwp_angle,
                        const double* pol_eff,
                        std::span<const core::Interval> intervals,
                        std::int64_t n_det, std::int64_t n_samp,
                        double* weights, core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  iqu_kernel.call(ctx, {view.max_len, n_samp, hwp_angle != nullptr},
                  pack_args(view.det_ids, view.starts, view.lens,
                            lit_f64(quats, 4 * n_det * n_samp),
                            lit_f64(hwp_angle, n_samp),
                            lit_f64(pol_eff, n_det),
                            lit_f64(weights, 3 * n_det * n_samp)),
                  weights);
}

void stokes_weights_i(std::span<const core::Interval> intervals,
                      std::int64_t n_det, std::int64_t n_samp,
                      double* weights, core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  i_kernel.call(ctx, {view.max_len, n_samp},
                pack_args(view.det_ids, view.starts, view.lens,
                          lit_f64(weights, n_det * n_samp)),
                weights);
}

}  // namespace toast::kernels::jax
