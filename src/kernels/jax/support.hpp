#pragma once

// Support code for the JAX kernel ports: the padded interval view, the
// argument packing and JaxKernel, the jitted kernel with typed statics.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/byte_key.hpp"
#include "core/context.hpp"
#include "core/types.hpp"
#include "xla/jit.hpp"

namespace toast::kernels::jax {

/// The static-shape view of the (detector, interval) loop: one row per
/// (det, interval) pair, max_len columns.  Rows carry the detector id,
/// the interval start sample and the interval length; in-graph code
/// derives sample indices, detector-major offsets and validity masks.
struct PaddedView {
  std::int64_t rows = 0;
  std::int64_t max_len = 0;
  xla::Literal det_ids;  // [rows] i64
  xla::Literal starts;   // [rows] i64 (interval start sample)
  xla::Literal lens;     // [rows] i64 (interval length)
};

PaddedView make_padded_view(std::span<const core::Interval> intervals,
                            std::int64_t n_det);

using Arrays = std::vector<xla::Array>;

/// In-graph helpers shared by the kernels.  All return [rows, max_len]
/// arrays given the three PaddedView parameters (in[0..2]) and max_len.
struct PaddedIndex {
  xla::Array samp;   // shared-domain sample index (i64)
  xla::Array detmaj; // detector-major index det * n_samp + samp (i64)
  xla::Array det;    // detector id broadcast (i64)
  xla::Array valid;  // lane is inside its true interval (pred)
};

PaddedIndex padded_index(const Arrays& in, std::int64_t max_len,
                         std::int64_t n_samp);

/// Mask an index array: invalid lanes become -1 (dropped by scatter).
xla::Array masked(xla::Array idx, xla::Array valid);

/// Positive fmod(v, m) for scalar m (python-style modulo).
xla::Array pmod(xla::Array v, double m);

/// Rotate the constant axis (v0, v1, v2) by the quaternion arrays,
/// building exactly the expression tree of kernels::quat_rotate so the
/// JAX port is bit-identical to the compiled kernels.
struct Rotated {
  xla::Array x, y, z;
};
Rotated rotate_axis(xla::Array qx, xla::Array qy, xla::Array qz,
                    xla::Array qw, double v0, double v1, double v2);

/// Wrap a raw buffer as a Literal (copies; the staging costs are charged
/// by the pipeline's AccelStore, not here).  A null buffer gives zeros,
/// the stand-in for an absent optional input (flags, HWP angles).
xla::Literal lit_f64(const double* data, std::int64_t n);
xla::Literal lit_i64(const std::int64_t* data, std::int64_t n);
xla::Literal lit_u8_as_i64(const std::uint8_t* data, std::int64_t n);

/// Copy a result Literal back into a raw buffer.
void store(const xla::Literal& l, double* out);
void store(const xla::Literal& l, std::int64_t* out);

/// A call's arguments, in parameter order.
template <class... L>
std::vector<xla::Literal> pack_args(L... lits) {
  std::vector<xla::Literal> args;
  args.reserve(sizeof...(lits));
  (args.push_back(std::move(lits)), ...);
  return args;
}

/// The calling thread's Jit for kernel `name`.  The first lookup on a
/// thread creates it and declares `donated` and `invariant` (see
/// xla::Jit); later lookups return it as it is.
xla::Jit& registered_jit(const std::string& name,
                         const std::vector<int>& donated = {},
                         const std::vector<int>& invariant = {});

/// The statics of a kernel that loops over the padded view only.
struct PaddedStatics {
  std::int64_t max_len = 0;
  std::int64_t n_samp = 0;
};

/// One jitted kernel, the analogue of a function under jax.jit with
/// static_argnums: its name, its array program and the params it donates
/// or keeps invariant across calls.  Each call hands its Statics (padded
/// interval length, nside, nnz, ...) to the trace as a capture and keys
/// the trace cache on them, so a distinct value is a distinct trace.
template <class Statics>
struct JaxKernel {
  std::string name;
  Arrays (*graph)(const Statics&, const Arrays&);
  std::vector<int> donated;
  std::vector<int> invariant;

  /// Runs the kernel on `args` and copies its one result to `out`.
  template <class T>
  void call(core::ExecContext& ctx, const Statics& s,
            std::vector<xla::Literal> args, T* out) const {
    xla::Jit& jit = registered_jit(name, donated, invariant);
    const auto result =
        jit.call(ctx.jax(), std::move(args), core::byte_key(s),
                 [this, &s](const Arrays& in) { return graph(s, in); });
    store(result[0], out);
  }
};

}  // namespace toast::kernels::jax
