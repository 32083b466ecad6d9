#pragma once

// Satellite telescope simulation (the paper's benchmark workload, §4):
// generates the characteristic scanning motion of a space-based CMB
// telescope - a spin axis precessing about the anti-solar direction, with
// the boresight opening out from the spin axis - plus a hexagonal
// focalplane, scan intervals, a synthetic sky and 1/f detector noise.

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

/// The scan arrays of `n_samples` samples: times, then boresight
/// quaternions (4 per sample), then HWP angles, 6 * n_samples values.  A
/// pure function of its arguments.
std::vector<double> satellite_scan(std::int64_t n_samples,
                                   const ScanParams& params = {});

/// Create one observation: boresight quaternions, HWP angle, times, shared
/// flags (a small flagged fraction) and varying-length scan intervals.
/// The scan arrays come from input_cache(); the flags and intervals are
/// drawn from `seed` on every call.
core::Observation simulate_satellite(const std::string& name,
                                     const core::Focalplane& fp,
                                     std::int64_t n_samples,
                                     const ScanParams& params = {},
                                     std::uint64_t seed = 0);

/// The seed of the benchmark's sky.
inline constexpr std::uint64_t kSkySeed = 42;

/// Synthesize a smooth sky map (low-order harmonics in I, Q, U) for the
/// given nside; stored as the "sky_map" field, n_pix x nnz.
std::vector<double> synthetic_sky(std::int64_t nside, std::int64_t nnz,
                                  std::uint64_t seed = kSkySeed);

/// Operator: attach the synthetic sky (seed kSkySeed) to each observation
/// that has none.  The map is read from input_cache().
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
};

/// Everything one detector's noise depends on.  The RNG key is (seed,
/// det), with no observation component.
struct NoiseInputs {
  std::uint64_t seed = 0;
  std::int64_t det = 0;
  std::int64_t n_samples = 0;
  double sample_rate = 0.0;
  double net = 0.0;
  double fknee = 0.0;
  double fmin = 0.0;
  double alpha = 0.0;
};

/// One detector's per-sample noise, `noise[s] * sqrt(n_fft)`: a Gaussian
/// spectrum shaped by the 1/f PSD, inverse-FFT'd.  A pure function.
std::vector<double> noise_addend(const NoiseInputs& in);

/// Operator: simulate 1/f + white detector noise into "signal" using the
/// counter-based RNG and the FFT substrate (host only, like TOAST's
/// sim_noise at the time of the paper).  Each detector's noise_addend is
/// read from input_cache() and added to the signal.
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

 private:
  std::uint64_t seed_;
};

}  // namespace toast::sim
