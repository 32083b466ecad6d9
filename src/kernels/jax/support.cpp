#include "kernels/jax/support.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

namespace toast::kernels::jax {

namespace {
/// Per thread, so concurrent jobs never share a trace cache.
thread_local std::map<std::string, std::unique_ptr<xla::Jit>> t_registry;
}  // namespace

PaddedView make_padded_view(std::span<const core::Interval> intervals,
                            std::int64_t n_det) {
  PaddedView view;
  const auto n_view = static_cast<std::int64_t>(intervals.size());
  view.rows = n_det * n_view;
  for (const auto& ival : intervals) {
    view.max_len = std::max(view.max_len, ival.length());
  }
  std::vector<std::int64_t> det_ids(static_cast<std::size_t>(view.rows));
  std::vector<std::int64_t> starts(static_cast<std::size_t>(view.rows));
  std::vector<std::int64_t> lens(static_cast<std::size_t>(view.rows));
  for (std::int64_t det = 0; det < n_det; ++det) {
    for (std::int64_t v = 0; v < n_view; ++v) {
      const auto r = static_cast<std::size_t>(det * n_view + v);
      det_ids[r] = det;
      starts[r] = intervals[static_cast<std::size_t>(v)].start;
      lens[r] = intervals[static_cast<std::size_t>(v)].length();
    }
  }
  view.det_ids = xla::Literal::from_i64(xla::Shape{view.rows}, det_ids);
  view.starts = xla::Literal::from_i64(xla::Shape{view.rows}, starts);
  view.lens = xla::Literal::from_i64(xla::Shape{view.rows}, lens);
  return view;
}

PaddedIndex padded_index(const Arrays& in, std::int64_t max_len,
                         std::int64_t n_samp) {
  using namespace xla;
  const Array det_ids = in[0], starts = in[1], lens = in[2];
  const std::int64_t rows = det_ids.shape().dim(0);
  const Array cols = broadcast_row(iota(max_len), rows);
  const Array start = broadcast_col(starts, max_len);
  const Array len = broadcast_col(lens, max_len);
  const Array det = broadcast_col(det_ids, max_len);
  PaddedIndex idx;
  idx.samp = add(start, cols);
  idx.det = det;
  idx.detmaj = add(mul(det, constant_i64(n_samp)), idx.samp);
  idx.valid = lt(cols, len);
  return idx;
}

xla::Array masked(xla::Array idx, xla::Array valid) {
  return xla::select(valid, idx, xla::constant_i64(-1));
}

xla::Array pmod(xla::Array v, double m) {
  using namespace xla;
  const Array r = mod(v, constant(m));
  return select(lt(r, constant(0.0)), add(r, constant(m)), r);
}

Rotated rotate_axis(xla::Array qx, xla::Array qy, xla::Array qz,
                    xla::Array qw, double v0, double v1, double v2) {
  using namespace xla;
  // Mirrors kernels::quat_rotate term by term (associativity included) so
  // results are bit-identical across backends.
  const Array c0 = constant(v0), c1 = constant(v1), c2 = constant(v2);
  const Array tx = 2.0 * (qy * c2 - qz * c1);
  const Array ty = 2.0 * (qz * c0 - qx * c2);
  const Array tz = 2.0 * (qx * c1 - qy * c0);
  Rotated out;
  out.x = c0 + qw * tx + (qy * tz - qz * ty);
  out.y = c1 + qw * ty + (qz * tx - qx * tz);
  out.z = c2 + qw * tz + (qx * ty - qy * tx);
  return out;
}

xla::Jit& registered_jit(const std::string& name,
                         const std::vector<int>& donated,
                         const std::vector<int>& invariant) {
  std::unique_ptr<xla::Jit>& jit = t_registry[name];
  if (!jit) {
    jit = std::make_unique<xla::Jit>(name);
    jit->set_donated_params(donated);
    jit->set_invariant_params(invariant);
  }
  return *jit;
}

void clear_jit_caches() {
  for (auto& [name, jit] : t_registry) {
    jit->clear_cache();
  }
}

xla::Literal lit_f64(const double* data, std::int64_t n) {
  if (data == nullptr) {
    return xla::Literal(xla::Shape{n}, xla::DType::kF64);
  }
  return xla::Literal::from_f64(xla::Shape{n},
                                std::span<const double>(data, static_cast<std::size_t>(n)));
}

xla::Literal lit_i64(const std::int64_t* data, std::int64_t n) {
  return xla::Literal::from_i64(
      xla::Shape{n},
      std::span<const std::int64_t>(data, static_cast<std::size_t>(n)));
}

xla::Literal lit_u8_as_i64(const std::uint8_t* data, std::int64_t n) {
  xla::Literal l(xla::Shape{n}, xla::DType::kI64);
  if (data != nullptr) {
    std::copy_n(data, n, l.i64().data());
  }
  return l;
}

void store(const xla::Literal& l, double* out) {
  std::memcpy(out, l.f64().data(), l.byte_size());
}

void store(const xla::Literal& l, std::int64_t* out) {
  std::memcpy(out, l.i64().data(), l.byte_size());
}

}  // namespace toast::kernels::jax
