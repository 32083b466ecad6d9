// Operator wrappers for the pointing-expansion chain: pointing_detector,
// pixels_healpix, stokes_weights_{IQU,I}.  Backend selection goes through
// the tag-dispatch registry (backend/registry.hpp): each kernel registers
// one implementation per manifest tag and the jax registration serves
// jax and jax-cpu through the tag base chain.

#include "backend/registry.hpp"
#include "kernels/cpu.hpp"
#include "kernels/jax.hpp"
#include "kernels/omptarget.hpp"
#include "kernels/operators.hpp"
#include "kernels/ops_common.hpp"

namespace toast::kernels {

using core::Backend;
using core::FieldType;
using core::fields::kBoresight;
using core::fields::kHwpAngle;
using core::fields::kPixels;
using core::fields::kQuats;
using core::fields::kSharedFlags;
using core::fields::kWeights;
using detail::buf;
using detail::buf_opt;

namespace {

std::span<const std::uint8_t> flag_span(const std::uint8_t* flags,
                                        std::int64_t n) {
  return flags == nullptr
             ? std::span<const std::uint8_t>()
             : std::span<const std::uint8_t>(flags,
                                             static_cast<std::size_t>(n));
}

}  // namespace

// --- PointingDetectorOp -----------------------------------------------------

std::vector<std::string> PointingDetectorOp::requires_fields() const {
  return {kBoresight, kSharedFlags, aux_fields::kFpQuats};
}

std::vector<std::string> PointingDetectorOp::provides_fields() const {
  return {kQuats};
}

void PointingDetectorOp::ensure_fields(core::Observation& ob) {
  detail::ensure_fp_quats(ob);
  if (!ob.has_field(kQuats)) {
    ob.create_detdata(kQuats, FieldType::kF64, 4);
  }
}

namespace {

struct PointingDetectorArgs {
  const double* fpq;
  const double* bore;
  const std::uint8_t* flags;
  std::span<const core::Interval> ivals;
  std::int64_t n_det;
  std::int64_t n_samp;
  double* quats;
  bool on_device;
};

const backend::OpRegistry<PointingDetectorArgs>&
pointing_detector_registry() {
  static const auto reg = [] {
    backend::OpRegistry<PointingDetectorArgs> r("pointing_detector");
    r.add<backend::cpu_tag>(
        [](const PointingDetectorArgs& a, core::ExecContext& ctx) {
          cpu::pointing_detector(
              {a.fpq, static_cast<std::size_t>(4 * a.n_det)},
              {a.bore, static_cast<std::size_t>(4 * a.n_samp)},
              flag_span(a.flags, a.n_samp), kDefaultFlagMask, a.ivals,
              a.n_det, a.n_samp,
              {a.quats, static_cast<std::size_t>(4 * a.n_det * a.n_samp)},
              ctx);
        });
    r.add<backend::omptarget_tag>(
        [](const PointingDetectorArgs& a, core::ExecContext& ctx) {
          omp::pointing_detector(a.fpq, a.bore, a.flags, kDefaultFlagMask,
                                 a.ivals, a.n_det, a.n_samp, a.quats, ctx,
                                 a.on_device);
        });
    r.add<backend::jax_tag>(
        [](const PointingDetectorArgs& a, core::ExecContext& ctx) {
          jax::pointing_detector(a.fpq, a.bore, a.flags, kDefaultFlagMask,
                                 a.ivals, a.n_det, a.n_samp, a.quats, ctx);
        });
    return r;
  }();
  return reg;
}

}  // namespace

void PointingDetectorOp::exec(core::Observation& ob, core::ExecContext& ctx,
                              core::AccelStore* accel, Backend backend) {
  PointingDetectorArgs a;
  a.n_det = ob.n_detectors();
  a.n_samp = ob.n_samples();
  a.fpq = buf<double>(ob, aux_fields::kFpQuats, accel);
  a.bore = buf<double>(ob, kBoresight, accel);
  a.flags = buf_opt<std::uint8_t>(ob, kSharedFlags, accel);
  a.quats = buf<double>(ob, kQuats, accel);
  a.ivals = ob.intervals();
  a.on_device = accel != nullptr;
  pointing_detector_registry().invoke(backend, a, ctx);
}

// --- PixelsHealpixOp --------------------------------------------------------

std::vector<std::string> PixelsHealpixOp::requires_fields() const {
  return {kQuats, kSharedFlags};
}

std::vector<std::string> PixelsHealpixOp::provides_fields() const {
  return {kPixels};
}

void PixelsHealpixOp::ensure_fields(core::Observation& ob) {
  if (!ob.has_field(kPixels)) {
    ob.create_detdata(kPixels, FieldType::kI64, 1);
  }
}

namespace {

struct PixelsHealpixArgs {
  const double* quats;
  const std::uint8_t* flags;
  std::int64_t nside;
  bool nest;
  std::span<const core::Interval> ivals;
  std::int64_t n_det;
  std::int64_t n_samp;
  std::int64_t* pixels;
  bool on_device;
};

const backend::OpRegistry<PixelsHealpixArgs>& pixels_healpix_registry() {
  static const auto reg = [] {
    backend::OpRegistry<PixelsHealpixArgs> r("pixels_healpix");
    r.add<backend::cpu_tag>(
        [](const PixelsHealpixArgs& a, core::ExecContext& ctx) {
          cpu::pixels_healpix(
              {a.quats, static_cast<std::size_t>(4 * a.n_det * a.n_samp)},
              flag_span(a.flags, a.n_samp), kDefaultFlagMask, a.nside,
              a.nest, a.ivals, a.n_det, a.n_samp,
              {a.pixels, static_cast<std::size_t>(a.n_det * a.n_samp)},
              ctx);
        });
    r.add<backend::omptarget_tag>(
        [](const PixelsHealpixArgs& a, core::ExecContext& ctx) {
          omp::pixels_healpix(a.quats, a.flags, kDefaultFlagMask, a.nside,
                              a.nest, a.ivals, a.n_det, a.n_samp, a.pixels,
                              ctx, a.on_device);
        });
    r.add<backend::jax_tag>(
        [](const PixelsHealpixArgs& a, core::ExecContext& ctx) {
          jax::pixels_healpix(a.quats, a.flags, kDefaultFlagMask, a.nside,
                              a.nest, a.ivals, a.n_det, a.n_samp, a.pixels,
                              ctx);
        });
    return r;
  }();
  return reg;
}

}  // namespace

void PixelsHealpixOp::exec(core::Observation& ob, core::ExecContext& ctx,
                           core::AccelStore* accel, Backend backend) {
  PixelsHealpixArgs a;
  a.n_det = ob.n_detectors();
  a.n_samp = ob.n_samples();
  a.quats = buf<double>(ob, kQuats, accel);
  a.flags = buf_opt<std::uint8_t>(ob, kSharedFlags, accel);
  a.pixels = buf<std::int64_t>(ob, kPixels, accel);
  a.nside = nside_;
  a.nest = nest_;
  a.ivals = ob.intervals();
  a.on_device = accel != nullptr;
  pixels_healpix_registry().invoke(backend, a, ctx);
}

// --- StokesWeightsIquOp -----------------------------------------------------

std::vector<std::string> StokesWeightsIquOp::requires_fields() const {
  return {kQuats, kHwpAngle, aux_fields::kPolEff};
}

std::vector<std::string> StokesWeightsIquOp::provides_fields() const {
  return {kWeights};
}

void StokesWeightsIquOp::ensure_fields(core::Observation& ob) {
  detail::ensure_pol_eff(ob);
  if (!ob.has_field(kWeights)) {
    ob.create_detdata(kWeights, FieldType::kF64, 3);
  }
}

namespace {

struct StokesWeightsIquArgs {
  const double* quats;
  const double* hwp;
  const double* pol_eff;
  std::span<const core::Interval> ivals;
  std::int64_t n_det;
  std::int64_t n_samp;
  double* weights;
  bool on_device;
};

const backend::OpRegistry<StokesWeightsIquArgs>&
stokes_weights_iqu_registry() {
  static const auto reg = [] {
    backend::OpRegistry<StokesWeightsIquArgs> r("stokes_weights_iqu");
    r.add<backend::cpu_tag>(
        [](const StokesWeightsIquArgs& a, core::ExecContext& ctx) {
          cpu::stokes_weights_iqu(
              {a.quats, static_cast<std::size_t>(4 * a.n_det * a.n_samp)},
              a.hwp == nullptr
                  ? std::span<const double>()
                  : std::span<const double>(
                        a.hwp, static_cast<std::size_t>(a.n_samp)),
              {a.pol_eff, static_cast<std::size_t>(a.n_det)}, a.ivals,
              a.n_det, a.n_samp,
              {a.weights,
               static_cast<std::size_t>(3 * a.n_det * a.n_samp)},
              ctx);
        });
    r.add<backend::omptarget_tag>(
        [](const StokesWeightsIquArgs& a, core::ExecContext& ctx) {
          omp::stokes_weights_iqu(a.quats, a.hwp, a.pol_eff, a.ivals,
                                  a.n_det, a.n_samp, a.weights, ctx,
                                  a.on_device);
        });
    r.add<backend::jax_tag>(
        [](const StokesWeightsIquArgs& a, core::ExecContext& ctx) {
          jax::stokes_weights_iqu(a.quats, a.hwp, a.pol_eff, a.ivals,
                                  a.n_det, a.n_samp, a.weights, ctx);
        });
    return r;
  }();
  return reg;
}

}  // namespace

void StokesWeightsIquOp::exec(core::Observation& ob, core::ExecContext& ctx,
                              core::AccelStore* accel, Backend backend) {
  StokesWeightsIquArgs a;
  a.n_det = ob.n_detectors();
  a.n_samp = ob.n_samples();
  a.quats = buf<double>(ob, kQuats, accel);
  a.hwp = use_hwp_ ? buf_opt<double>(ob, kHwpAngle, accel) : nullptr;
  a.pol_eff = buf<double>(ob, aux_fields::kPolEff, accel);
  a.weights = buf<double>(ob, kWeights, accel);
  a.ivals = ob.intervals();
  a.on_device = accel != nullptr;
  stokes_weights_iqu_registry().invoke(backend, a, ctx);
}

// --- StokesWeightsIOp -------------------------------------------------------

std::vector<std::string> StokesWeightsIOp::provides_fields() const {
  return {kWeights};
}

void StokesWeightsIOp::ensure_fields(core::Observation& ob) {
  if (!ob.has_field(kWeights)) {
    ob.create_detdata(kWeights, FieldType::kF64, 1);
  }
}

namespace {

struct StokesWeightsIArgs {
  std::span<const core::Interval> ivals;
  std::int64_t n_det;
  std::int64_t n_samp;
  double* weights;
  bool on_device;
};

const backend::OpRegistry<StokesWeightsIArgs>& stokes_weights_i_registry() {
  static const auto reg = [] {
    backend::OpRegistry<StokesWeightsIArgs> r("stokes_weights_i");
    r.add<backend::cpu_tag>(
        [](const StokesWeightsIArgs& a, core::ExecContext& ctx) {
          cpu::stokes_weights_i(
              a.ivals, a.n_det, a.n_samp,
              {a.weights, static_cast<std::size_t>(a.n_det * a.n_samp)},
              ctx);
        });
    r.add<backend::omptarget_tag>(
        [](const StokesWeightsIArgs& a, core::ExecContext& ctx) {
          omp::stokes_weights_i(a.ivals, a.n_det, a.n_samp, a.weights, ctx,
                                a.on_device);
        });
    r.add<backend::jax_tag>(
        [](const StokesWeightsIArgs& a, core::ExecContext& ctx) {
          jax::stokes_weights_i(a.ivals, a.n_det, a.n_samp, a.weights, ctx);
        });
    return r;
  }();
  return reg;
}

}  // namespace

void StokesWeightsIOp::exec(core::Observation& ob, core::ExecContext& ctx,
                            core::AccelStore* accel, Backend backend) {
  StokesWeightsIArgs a;
  a.n_det = ob.n_detectors();
  a.n_samp = ob.n_samples();
  a.weights = buf<double>(ob, kWeights, accel);
  a.ivals = ob.intervals();
  a.on_device = accel != nullptr;
  stokes_weights_i_registry().invoke(backend, a, ctx);
}

}  // namespace toast::kernels
