#include "sim/satellite.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <span>

#include "fft/fft.hpp"
#include "healpix/healpix.hpp"
#include "qarray/qarray.hpp"
#include "rng/rng.hpp"
#include "sim/input_cache.hpp"

namespace toast::sim {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kDegToRad = std::numbers::pi / 180.0;

// Input-cache keys: every input of the cached computation.
struct SkyKey {
  std::int64_t nside;
  std::int64_t nnz;
  std::uint64_t seed;
};
struct ScanKey {
  std::int64_t n_samples;
  ScanParams params;
};
}  // namespace

core::Focalplane hex_focalplane(std::int64_t n_det, double sample_rate,
                                double fov_deg, double net, double fknee,
                                double alpha) {
  core::Focalplane fp;
  fp.sample_rate = sample_rate;
  const double fov = fov_deg * kDegToRad;
  // Hexagonal rings around the boresight center: ring r holds 6r pixels,
  // each pixel two orthogonal detectors.
  std::int64_t placed = 0;
  std::int64_t ring = 0;
  std::int64_t in_ring = 1;
  std::int64_t ring_pos = 0;
  while (placed < n_det) {
    double theta = 0.0;
    double phi = 0.0;
    if (ring > 0) {
      const std::int64_t rings_needed =
          static_cast<std::int64_t>(std::ceil(
              std::sqrt(static_cast<double>(n_det) / 2.0 / 3.0))) +
          1;
      theta = 0.5 * fov * static_cast<double>(ring) /
              static_cast<double>(std::max<std::int64_t>(1, rings_needed));
      phi = 2.0 * kPi * static_cast<double>(ring_pos) /
            static_cast<double>(in_ring);
    }
    // Two detectors per pixel position, polarization 90 degrees apart,
    // rings alternate by 45 degrees (standard pair layout).
    for (int pair = 0; pair < 2 && placed < n_det; ++pair) {
      const double psi =
          0.5 * kPi * pair + 0.25 * kPi * static_cast<double>(ring % 2);
      fp.quats.push_back(qarray::from_iso_angles(theta, phi, psi));
      fp.names.push_back(std::string("d").append(std::to_string(placed)));
      fp.pol_angles.push_back(psi);
      fp.pol_eff.push_back(0.95 + 0.05 * static_cast<double>(pair));
      fp.net.push_back(net * (1.0 + 0.1 * static_cast<double>(placed % 7)));
      fp.fknee.push_back(fknee * (1.0 + 0.2 * static_cast<double>(placed % 5)));
      fp.fmin.push_back(1.0e-5);
      fp.alpha.push_back(alpha);
      ++placed;
    }
    ++ring_pos;
    if (ring_pos >= in_ring) {
      ++ring;
      in_ring = 6 * ring;
      ring_pos = 0;
    }
  }
  return fp;
}

std::vector<double> satellite_scan(std::int64_t n_samples,
                                   const ScanParams& params) {
  const auto n = static_cast<std::size_t>(n_samples);
  std::vector<double> scan(6 * n);
  const std::span<double> t_span(scan.data(), n);
  const std::span<double> b_span(scan.data() + n, 4 * n);
  const std::span<double> h_span(scan.data() + 5 * n, n);

  const double dt = 1.0 / params.sample_rate;
  const double spin_rate = 2.0 * kPi / params.spin_period;
  const double prec_rate = 2.0 * kPi / params.prec_period;
  const double hwp_rate = 2.0 * kPi * 1.0;  // 1 Hz continuous rotation
  const qarray::Vec3 zaxis{0.0, 0.0, 1.0};
  const qarray::Vec3 yaxis{0.0, 1.0, 0.0};
  // The anti-solar direction lies in the ecliptic plane: tilt the whole
  // assembly so the precession axis sweeps the equator over a year
  // (this is what gives satellite missions full-sky coverage).
  const auto q_ecliptic = qarray::from_axisangle(yaxis, 0.5 * kPi);
  const auto q_prec_tilt =
      qarray::from_axisangle(yaxis, params.prec_angle_deg * kDegToRad);
  const auto q_spin_tilt =
      qarray::from_axisangle(yaxis, params.spin_angle_deg * kDegToRad);

  for (std::int64_t s = 0; s < n_samples; ++s) {
    const double t = static_cast<double>(s) * dt;
    t_span[static_cast<std::size_t>(s)] = t;
    // Anti-solar direction advances slowly along the ecliptic (1 year);
    // the spin axis precesses about it; the boresight spins about the
    // spin axis.
    const double solar = 2.0 * kPi * t / (365.25 * 86400.0);
    const auto q_solar =
        qarray::mult(qarray::from_axisangle(zaxis, solar), q_ecliptic);
    const auto q_prec_spin =
        qarray::from_axisangle(zaxis, prec_rate * t);
    const auto q_spin = qarray::from_axisangle(zaxis, spin_rate * t);
    auto q = qarray::mult(q_solar, qarray::mult(q_prec_spin, q_prec_tilt));
    q = qarray::mult(q, qarray::mult(q_spin, q_spin_tilt));
    q = qarray::normalize(q);
    for (int c = 0; c < 4; ++c) {
      b_span[static_cast<std::size_t>(4 * s + c)] =
          q[static_cast<std::size_t>(c)];
    }
    h_span[static_cast<std::size_t>(s)] = std::fmod(hwp_rate * t, 2.0 * kPi);
  }
  return scan;
}

core::Observation simulate_satellite(const std::string& name,
                                     const core::Focalplane& fp,
                                     std::int64_t n_samples,
                                     const ScanParams& params,
                                     std::uint64_t seed) {
  core::Observation ob(name, fp, n_samples);

  auto& times = ob.create_shared(core::fields::kTimes, core::FieldType::kF64);
  auto& bore =
      ob.create_shared(core::fields::kBoresight, core::FieldType::kF64, 4);
  auto& hwp =
      ob.create_shared(core::fields::kHwpAngle, core::FieldType::kF64);
  auto& flags =
      ob.create_shared(core::fields::kSharedFlags, core::FieldType::kU8);

  const ScanKey key{n_samples, params};
  const auto scan = input_cache().get(InputCache::Kind::kScan, key, [&] {
    return satellite_scan(n_samples, params);
  });
  const auto n = static_cast<std::ptrdiff_t>(n_samples);
  std::copy(scan->begin(), scan->begin() + n, times.f64().begin());
  std::copy(scan->begin() + n, scan->begin() + 5 * n, bore.f64().begin());
  std::copy(scan->begin() + 5 * n, scan->end(), hwp.f64().begin());

  // Flag a small fraction of samples (glitches / repointing).
  auto f_span = flags.u8();
  rng::RngStream flag_stream({seed, 0xF1A6}, {0, 0});
  std::vector<double> u(static_cast<std::size_t>(n_samples));
  flag_stream.uniform_01(u);
  for (std::int64_t s = 0; s < n_samples; ++s) {
    if (u[static_cast<std::size_t>(s)] < 0.01) {
      f_span[static_cast<std::size_t>(s)] = 1;
    }
  }

  // Scan intervals: nominally one per spin period, with jittered lengths
  // and small gaps so the interval lengths genuinely vary.
  const auto nominal = static_cast<std::int64_t>(
      params.spin_period * params.sample_rate);
  rng::RngStream jitter_stream({seed, 0x17E2}, {0, 0});
  std::int64_t start = 0;
  while (start < n_samples) {
    std::array<double, 2> j{};
    jitter_stream.uniform_01(j);
    const auto len = std::max<std::int64_t>(
        16, static_cast<std::int64_t>(
                static_cast<double>(nominal) *
                (1.0 - params.interval_jitter_fraction * j[0])));
    const auto gap = static_cast<std::int64_t>(
        static_cast<double>(nominal) * params.interval_gap_fraction * j[1]);
    const std::int64_t stop = std::min(n_samples, start + len);
    ob.intervals().push_back({start, stop});
    start = stop + gap;
  }
  return ob;
}

std::vector<double> synthetic_sky(std::int64_t nside, std::int64_t nnz,
                                  std::uint64_t seed) {
  healpix::Healpix hp(nside);
  std::vector<double> map(
      static_cast<std::size_t>(hp.npix() * nnz), 0.0);
  // Low-order harmonic coefficients from the RNG.
  rng::RngStream stream({seed, 0x5C1}, {0, 0});
  std::vector<double> coeff(24);
  stream.gaussian(coeff);
  for (std::int64_t p = 0; p < hp.npix(); ++p) {
    double theta = 0.0, phi = 0.0;
    hp.pix2ang_ring(p, theta, phi);
    const double x = std::sin(theta) * std::cos(phi);
    const double y = std::sin(theta) * std::sin(phi);
    const double z = std::cos(theta);
    const std::int64_t pn = hp.ring2nest(p);
    // Dipole + quadrupole-ish smooth pattern per component.
    for (std::int64_t k = 0; k < nnz; ++k) {
      const std::size_t c = static_cast<std::size_t>(8 * (k % 3));
      const double value = coeff[c] * x + coeff[c + 1] * y +
                           coeff[c + 2] * z + coeff[c + 3] * x * y +
                           coeff[c + 4] * y * z + coeff[c + 5] * x * z +
                           coeff[c + 6] * (z * z - 1.0 / 3.0) +
                           0.1 * coeff[c + 7];
      map[static_cast<std::size_t>(pn * nnz + k)] =
          1.0e-5 * value;  // Kelvin-ish CMB scale
    }
  }
  return map;
}

void SynthSkyOp::exec(core::Observation& ob, core::ExecContext& ctx,
                      core::AccelStore* accel, core::Backend backend) {
  (void)accel;
  (void)backend;
  if (!ob.has_field(core::fields::kSkyMap)) {
    const SkyKey key{nside_, nnz_, kSkySeed};
    const auto map = input_cache().get(InputCache::Kind::kSky, key, [&] {
      return synthetic_sky(nside_, nnz_, kSkySeed);
    });
    auto& f = ob.create_buffer(core::fields::kSkyMap, core::FieldType::kF64,
                               static_cast<std::int64_t>(map->size()));
    std::copy(map->begin(), map->end(), f.f64().begin());
  }
  // Host-side generation cost: map domain, so it scales with the map
  // resolution ratio, not the sample ratio.
  accel::WorkEstimate w;
  const double npix = static_cast<double>(12 * nside_ * nside_);
  w.flops = 40.0 * npix;
  w.bytes_written = 8.0 * npix * static_cast<double>(nnz_);
  w.launches = 1.0;
  w.parallel_items = npix;
  ctx.charge_host_kernel_raw(name(), w.scaled(ctx.config().map_scale));
}

void SimNoiseOp::ensure_fields(core::Observation& ob) {
  if (!ob.has_field(core::fields::kSignal)) {
    ob.create_detdata(core::fields::kSignal, core::FieldType::kF64, 1);
  }
}

std::vector<double> noise_addend(const NoiseInputs& in) {
  const auto n_fft = fft::next_pow2(static_cast<std::size_t>(in.n_samples));
  const double df = in.sample_rate / static_cast<double>(n_fft);
  // Shape a Gaussian random spectrum by the detector PSD:
  //   P(f) = NET^2 * (1 + (f_knee / f)^alpha), f >= f_min.
  std::vector<std::complex<double>> spectrum(n_fft / 2 + 1);
  std::vector<double> re(n_fft / 2 + 1), im(n_fft / 2 + 1);
  rng::random_gaussian(in.seed, static_cast<std::uint64_t>(in.det), 0, 0, re);
  rng::random_gaussian(in.seed, static_cast<std::uint64_t>(in.det), 1, 0, im);
  for (std::size_t bin = 0; bin < spectrum.size(); ++bin) {
    const double f = std::max(df * static_cast<double>(bin), in.fmin);
    const double psd =
        in.net * in.net * (1.0 + std::pow(in.fknee / f, in.alpha));
    const double amp = std::sqrt(0.5 * psd * in.sample_rate *
                                 static_cast<double>(n_fft)) /
                       std::sqrt(static_cast<double>(n_fft));
    spectrum[bin] = {amp * re[bin], amp * im[bin]};
  }
  spectrum[0] = {0.0, 0.0};  // zero mean
  spectrum.back() = {spectrum.back().real(), 0.0};
  const auto noise = fft::irfft(spectrum, n_fft);
  std::vector<double> addend(static_cast<std::size_t>(in.n_samples));
  for (std::size_t s = 0; s < addend.size(); ++s) {
    addend[s] = noise[s] * std::sqrt(static_cast<double>(n_fft));
  }
  return addend;
}

void SimNoiseOp::exec(core::Observation& ob, core::ExecContext& ctx,
                      core::AccelStore* accel, core::Backend backend) {
  (void)accel;
  (void)backend;
  const auto& fp = ob.focalplane();
  const std::size_t n_fft =
      fft::next_pow2(static_cast<std::size_t>(ob.n_samples()));
  for (std::int64_t det = 0; det < ob.n_detectors(); ++det) {
    const auto d = static_cast<std::size_t>(det);
    const NoiseInputs in{seed_, det, ob.n_samples(), fp.sample_rate,
                         fp.net[d], fp.fknee[d], fp.fmin[d], fp.alpha[d]};
    const auto addend = input_cache().get(InputCache::Kind::kNoise, in,
                                          [&] { return noise_addend(in); });
    auto signal = ob.det_f64(core::fields::kSignal, det);
    for (std::size_t s = 0; s < addend->size(); ++s) {
      signal[s] += (*addend)[s];
    }
  }

  // Host cost: FFT-dominated (TOAST's sim_noise ran on CPU).
  accel::WorkEstimate w;
  const double n = static_cast<double>(ob.n_detectors()) *
                   static_cast<double>(n_fft);
  w.flops = 5.0 * n * std::log2(static_cast<double>(n_fft)) + 30.0 * n;
  w.bytes_read = 16.0 * n;
  w.bytes_written = 16.0 * n;
  w.launches = 1.0;
  w.parallel_items = static_cast<double>(ob.n_detectors());
  w.cpu_vector_eff = 0.60;
  ctx.charge_host_kernel(name(), w);
}

}  // namespace toast::sim
