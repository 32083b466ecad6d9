// JAX port of pixels_healpix: the full HEALPix projection (RING and
// NESTED) expressed as array arithmetic.  There are no branches on a GPU
// tracer - every conditional becomes a select, so *both* the equatorial
// and the polar path are computed for every sample and the bit-interleave
// runs unconditionally.  The resulting fused kernel is enormous (register
// pressure!), which is precisely why the paper finds JAX's pixels_healpix
// far behind the OpenMP port (11x vs 41x, §4.2).

#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"

namespace toast::kernels::jax {

namespace {

struct Statics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
  std::int64_t flag_mask = 0;
  std::int64_t nside = 0;
  std::int64_t nest = 1;
};

// Morton spread of the low 32 bits (x -> even bit positions).
xla::Array spread_bits(xla::Array v) {
  using namespace xla;
  struct Step {
    std::int64_t shift;
    std::int64_t mask;
  };
  static constexpr Step kSteps[] = {
      {16, 0x0000FFFF0000FFFFLL}, {8, 0x00FF00FF00FF00FFLL},
      {4, 0x0F0F0F0F0F0F0F0FLL},  {2, 0x3333333333333333LL},
      {1, 0x5555555555555555LL},
  };
  Array r = bitwise_and(v, constant_i64(0x00000000FFFFFFFFLL));
  for (const auto& step : kSteps) {
    r = bitwise_and(bitwise_or(r, shift_left(r, constant_i64(step.shift))),
                    constant_i64(step.mask));
  }
  return r;
}

Arrays graph(const Statics& s, const Arrays& in) {
  using namespace xla;
  const Array quats = in[3], flags = in[4], pixels_out = in[5];

  const std::int64_t nside = s.nside;
  int order = 0;
  while ((std::int64_t{1} << order) < nside) ++order;
  const std::int64_t npix = 12 * nside * nside;
  const std::int64_t ncap = 2 * nside * (nside - 1);

  const PaddedIndex idx = padded_index(in, s.max_len, s.n_samp);
  const Array four = constant_i64(4);
  const Array q4 = mul(idx.detmaj, four);
  const Array qx = gather(quats, q4);
  const Array qy = gather(quats, add(q4, constant_i64(1)));
  const Array qz = gather(quats, add(q4, constant_i64(2)));
  const Array qw = gather(quats, add(q4, constant_i64(3)));

  // Rotate the z axis by the detector quaternion.
  const Rotated dir = rotate_axis(qx, qy, qz, qw, 0.0, 0.0, 1.0);
  const Array x = dir.x;
  const Array y = dir.y;
  const Array z = dir.z;

  // Normalize and derive the spherical coordinates (matching vec2pix).
  const Array r = sqrt(x * x + y * y + z * z);
  const Array zn = z / r;
  const Array za = abs(zn);
  const Array phi = atan2(y, x);
  const Array tt = pmod(phi * (2.0 / 3.14159265358979323846), 4.0);
  const Array use_sth = gt(za, constant(0.99));
  const Array sth = sqrt(x * x + y * y) / r;
  const Array dnside = constant(static_cast<double>(nside));
  const Array tmp = select(
      use_sth, dnside * sth * sqrt(3.0 / (1.0 + za)),
      dnside * sqrt(3.0 * (1.0 - za)));

  // --- equatorial belt ----------------------------------------------------
  const Array temp1 = dnside * (0.5 + tt);
  const Array temp2 = dnside * zn * 0.75;
  const Array jp_e = to_i64(temp1 - temp2);
  const Array jm_e = to_i64(temp1 + temp2);

  // --- polar caps -----------------------------------------------------------
  const Array ntt = minimum(to_i64(tt), constant_i64(3));
  const Array tp = tt - to_f64(ntt);
  const Array jp_raw = to_i64(tp * tmp);
  const Array jm_raw = to_i64((1.0 - tp) * tmp);
  const Array north = ge(zn, constant(0.0));
  const Array equatorial = le(za, constant(2.0 / 3.0));

  Array pix;
  if (s.nest) {
    // Nested scheme: face + Morton-interleaved (ix, iy).
    const Array ord = constant_i64(order);
    const Array ifp = shift_right(jp_e, ord);
    const Array ifm = shift_right(jm_e, ord);
    const Array face_eq = select(
        eq(ifp, ifm), select(eq(ifp, constant_i64(4)), constant_i64(4),
                             add(ifp, constant_i64(4))),
        select(lt(ifp, ifm), ifp, add(ifm, constant_i64(8))));
    const Array nm1 = constant_i64(nside - 1);
    const Array ix_eq = bitwise_and(jm_e, nm1);
    const Array iy_eq = sub(nm1, bitwise_and(jp_e, nm1));

    const Array jp_p = minimum(jp_raw, nm1);
    const Array jm_p = minimum(jm_raw, nm1);
    const Array face_p = select(north, ntt, add(ntt, constant_i64(8)));
    const Array ix_p = select(north, sub(nm1, jm_p), jp_p);
    const Array iy_p = select(north, sub(nm1, jp_p), jm_p);

    const Array face = select(equatorial, face_eq, face_p);
    const Array ix = select(equatorial, ix_eq, ix_p);
    const Array iy = select(equatorial, iy_eq, iy_p);
    pix = add(mul(face, constant_i64(nside * nside)),
              bitwise_or(spread_bits(ix),
                         shift_left(spread_bits(iy), constant_i64(1))));
  } else {
    // Ring scheme.
    const Array nl4 = constant_i64(4 * nside);
    const Array ir_e =
        add(constant_i64(nside + 1), sub(jp_e, jm_e));
    const Array kshift = sub(constant_i64(1),
                             bitwise_and(ir_e, constant_i64(1)));
    Array ip_e = div(add(add(sub(add(jp_e, jm_e), constant_i64(nside)),
                             kshift),
                         constant_i64(1)),
                     constant_i64(2));
    // Positive modulo 4*nside.
    Array rem = mod(ip_e, nl4);
    ip_e = select(lt(rem, constant_i64(0)), add(rem, nl4), rem);
    const Array pix_eq =
        add(constant_i64(ncap),
            add(mul(sub(ir_e, constant_i64(1)), nl4), ip_e));

    const Array ir_p = add(add(jp_raw, jm_raw), constant_i64(1));
    const Array ip_raw = to_i64(tt * to_f64(ir_p));
    const Array four_ir = mul(constant_i64(4), ir_p);
    Array rem_p = mod(ip_raw, four_ir);
    const Array ip_p =
        select(lt(rem_p, constant_i64(0)), add(rem_p, four_ir), rem_p);
    const Array pix_north =
        add(mul(mul(constant_i64(2), ir_p), sub(ir_p, constant_i64(1))),
            ip_p);
    const Array pix_south =
        add(sub(constant_i64(npix),
                mul(mul(constant_i64(2), ir_p), add(ir_p, constant_i64(1)))),
            ip_p);
    const Array pix_polar = select(gt(zn, constant(0.0)), pix_north,
                                   pix_south);
    pix = select(equatorial, pix_eq, pix_polar);
  }

  // Flagged samples get pixel -1.
  const Array flag = gather(flags, idx.samp);
  const Array flagged =
      ne(bitwise_and(flag, constant_i64(s.flag_mask)), constant_i64(0));
  const Array value = select(flagged, constant_i64(-1), pix);

  return {scatter_set(pixels_out, masked(idx.detmaj, idx.valid), value)};
}

const JaxKernel<Statics> kernel{"pixels_healpix", graph, {5}, {}};

}  // namespace

void pixels_healpix(const double* quats, const std::uint8_t* shared_flags,
                    std::uint8_t flag_mask, std::int64_t nside, bool nest,
                    std::span<const core::Interval> intervals,
                    std::int64_t n_det, std::int64_t n_samp,
                    std::int64_t* pixels, core::ExecContext& ctx) {
  const PaddedView view = make_padded_view(intervals, n_det);
  if (view.rows == 0 || view.max_len == 0) {
    return;
  }
  kernel.call(ctx,
              {view.max_len, n_samp, shared_flags != nullptr ? flag_mask : 0,
               nside, nest},
              pack_args(view.det_ids, view.starts, view.lens,
                        lit_f64(quats, 4 * n_det * n_samp),
                        lit_u8_as_i64(shared_flags, n_samp),
                        lit_i64(pixels, n_det * n_samp)),
              pixels);
}

}  // namespace toast::kernels::jax
