#pragma once

// Satellite telescope simulation (the paper's benchmark workload, §4):
// generates the characteristic scanning motion of a space-based CMB
// telescope - a spin axis precessing about the anti-solar direction, with
// the boresight opening out from the spin axis - plus a hexagonal
// focalplane, scan intervals, a synthetic sky and 1/f detector noise.

#include <array>
#include <cstdint>
#include <vector>

#include "core/context.hpp"
#include "core/observation.hpp"
#include "core/operator.hpp"

namespace toast::sim {

/// Scanning geometry (defaults close to typical satellite designs).
struct ScanParams {
  double sample_rate = 37.0;       // Hz
  double spin_period = 600.0;      // seconds per spin revolution
  double prec_period = 3600.0;     // seconds per precession revolution
  double spin_angle_deg = 30.0;    // boresight opening from spin axis
  double prec_angle_deg = 45.0;    // spin axis opening from anti-solar
  /// Scan intervals: one per spin period, with gaps and length jitter so
  /// interval lengths vary (the padding stressor of both GPU ports).
  double interval_gap_fraction = 0.05;
  double interval_jitter_fraction = 0.3;
};

/// Build a hexagonal focalplane of `n_det` detectors with alternating
/// polarization angles and a 1/f noise model.
core::Focalplane hex_focalplane(std::int64_t n_det, double sample_rate,
                                double fov_deg = 10.0, double net = 50.0e-6,
                                double fknee = 0.05, double alpha = 1.0);

/// Create one observation: boresight quaternions, HWP angle, times, shared
/// flags (a small flagged fraction) and varying-length scan intervals.
core::Observation simulate_satellite(const std::string& name,
                                     const core::Focalplane& fp,
                                     std::int64_t n_samples,
                                     const ScanParams& params = {},
                                     std::uint64_t seed = 0);

/// Synthesize a smooth sky map (low-order harmonics in I, Q, U) for the
/// given nside; stored as the "sky_map" field, n_pix x nnz.
std::vector<double> synthetic_sky(std::int64_t nside, std::int64_t nnz,
                                  std::uint64_t seed = 42);

/// Operator: attach the synthetic sky to each observation.  The map is a
/// pure function of (nside, nnz), so it is built once, on first use, and
/// copied into every later observation.
class SynthSkyOp : public core::Operator {
 public:
  SynthSkyOp(std::int64_t nside, std::int64_t nnz = 3)
      : nside_(nside), nnz_(nnz) {}
  std::string name() const override { return "synth_sky"; }
  std::vector<std::string> provides_fields() const override {
    return {core::fields::kSkyMap};
  }
  void exec(core::Observation& ob, core::ExecContext& ctx,
            core::AccelStore* accel, core::Backend backend) override;

 private:
  std::int64_t nside_;
  std::int64_t nnz_;
  std::vector<double> map_;  // empty until first needed
};

/// Operator: simulate 1/f + white detector noise into "signal" using the
/// counter-based RNG and the FFT substrate (host only, like TOAST's
/// sim_noise at the time of the paper).
///
/// The RNG key is (seed, detector index), with no observation component,
/// so a detector's noise depends only on the sample count and its
/// focalplane noise parameters.  The op keeps the last noise it computed
/// for each detector index and adds it again when those inputs are
/// bit-identical.
class SimNoiseOp : public core::Operator {
 public:
  explicit SimNoiseOp(std::uint64_t seed = 1234567) : seed_(seed) {}
  std::string name() const override { return "sim_noise"; }
  std::vector<std::string> provides_fields() const override {
    return {core::fields::kSignal};
  }
  void ensure_fields(core::Observation& ob) override;
  void exec(core::Observation& ob, core::ExecContext& ctx,
            core::AccelStore* accel, core::Backend backend) override;
  /// Per-detector noise realizations computed so far (the rest of the
  /// detector-observations reused a kept one).
  std::int64_t realizations() const { return realizations_; }

 private:
  /// n_samples, then the bit patterns of sample_rate, net, fknee, fmin
  /// and alpha: equal keys mean bit-identical noise.
  using NoiseKey = std::array<std::uint64_t, 6>;
  struct NoiseMemo {
    NoiseKey key{};
    std::vector<double> addend;  // per-sample noise; empty = unfilled
  };

  std::uint64_t seed_;
  std::vector<NoiseMemo> memo_;  // indexed by detector
  std::int64_t realizations_ = 0;
};

}  // namespace toast::sim
