// JAX port of pointing_detector: the quaternion product written as
// whole-array arithmetic over the padded (det x interval, max_len) index
// space, with flagged samples patched in by select.

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t flag_mask = 0;
};

Arrays graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array bore = in[3], fp = in[4], flags = in[5], quats_out = in[6];

  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array four = constant_i64(4);
  const Array s4 = mul(idx.samp, four);
  const Array bx = gather(bore, s4);
  const Array by = gather(bore, add(s4, constant_i64(1)));
  const Array bz = gather(bore, add(s4, constant_i64(2)));
  const Array bw = gather(bore, add(s4, constant_i64(3)));
  const Array f4 = mul(idx.det, four);
  const Array fx = gather(fp, f4);
  const Array fy = gather(fp, add(f4, constant_i64(1)));
  const Array fz = gather(fp, add(f4, constant_i64(2)));
  const Array fw = gather(fp, add(f4, constant_i64(3)));

  // Hamilton product bore * fp (scalar last).
  const Array ox = bw * fx + bx * fw + by * fz - bz * fy;
  const Array oy = bw * fy - bx * fz + by * fw + bz * fx;
  const Array oz = bw * fz + bx * fy - by * fx + bz * fw;
  const Array ow = bw * fw - bx * fx - by * fy - bz * fz;

  const Array flag = gather(flags, idx.samp);
  const Array flagged =
      ne(bitwise_and(flag, constant_i64(s.flag_mask)), constant_i64(0));

  const Array om = mul(idx.detmaj, four);
  Array out = quats_out;
  out = scatter_set(out, masked(om, idx.valid), select(flagged, fx, ox));
  out = scatter_set(out, masked(add(om, constant_i64(1)), idx.valid),
                    select(flagged, fy, oy));
  out = scatter_set(out, masked(add(om, constant_i64(2)), idx.valid),
                    select(flagged, fz, oz));
  out = scatter_set(out, masked(add(om, constant_i64(3)), idx.valid),
                    select(flagged, fw, ow));
  return {out};
}

const JaxKernel<Statics> kernel{"pointing_detector", graph, {6}, {}};

}  // namespace

void pointing_detector(const double* fp_quats, const double* boresight,
                       const std::uint8_t* shared_flags,
                       std::uint8_t flag_mask,
                       std::span<const core::Interval> intervals,
                       std::int64_t n_det, std::int64_t n_samp, double* quats,
                       core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  kernel.call(ctx,
              {view.max_len, n_samp, shared_flags != nullptr ? flag_mask : 0},
              pack_args(view.det_ids, view.starts, view.lens,
                        lit_f64(boresight, 4 * n_samp),
                        lit_f64(fp_quats, 4 * n_det),
                        lit_u8_as_i64(shared_flags, n_samp),
                        lit_f64(quats, 4 * n_det * n_samp)),
              quats);
}

}  // namespace toast::kernels::jax
