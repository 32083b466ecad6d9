// Cross-implementation equivalence tests: every kernel must produce the
// same result from its CPU baseline, its OpenMP-target port (device and
// host-fallback paths) and its JAX port.  This is the correctness core of
// the reproduction - the paper's ports had to preserve the science
// outputs exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "healpix/healpix.hpp"
#include "kernels/common.hpp"
#include "kernels/cpu.hpp"
#include "kernels/jax.hpp"
#include "kernels/jax/support.hpp"
#include "kernels/omptarget.hpp"
#include "qarray/qarray.hpp"

namespace core = toast::core;
namespace k = toast::kernels;
using core::Backend;
using core::Interval;

namespace {

struct TestData {
  std::int64_t n_det = 3;
  std::int64_t n_samp = 257;
  std::vector<Interval> intervals{{0, 100}, {120, 200}, {210, 257}};
  std::vector<double> fp_quats;
  std::vector<double> boresight;
  std::vector<double> quats;  // per-detector pointing
  std::vector<std::uint8_t> flags;
  std::vector<double> hwp;
  std::vector<double> pol_eff;
  std::vector<double> signal;
  std::vector<std::int64_t> pixels;
  std::vector<double> weights;  // nnz = 3

  TestData() {
    std::mt19937 gen(1234);
    std::normal_distribution<double> nd(0.0, 1.0);
    std::uniform_real_distribution<double> ud(0.0, 1.0);
    auto unit_quat = [&] {
      toast::qarray::Quat q{nd(gen), nd(gen), nd(gen), nd(gen)};
      return toast::qarray::normalize(q);
    };
    fp_quats.resize(static_cast<std::size_t>(4 * n_det));
    for (std::int64_t d = 0; d < n_det; ++d) {
      const auto q = unit_quat();
      for (int c = 0; c < 4; ++c) fp_quats[static_cast<std::size_t>(4 * d + c)] = q[static_cast<std::size_t>(c)];
    }
    boresight.resize(static_cast<std::size_t>(4 * n_samp));
    for (std::int64_t s = 0; s < n_samp; ++s) {
      const auto q = unit_quat();
      for (int c = 0; c < 4; ++c) boresight[static_cast<std::size_t>(4 * s + c)] = q[static_cast<std::size_t>(c)];
    }
    quats.resize(static_cast<std::size_t>(4 * n_det * n_samp));
    for (std::int64_t i = 0; i < n_det * n_samp; ++i) {
      const auto q = unit_quat();
      for (int c = 0; c < 4; ++c) quats[static_cast<std::size_t>(4 * i + c)] = q[static_cast<std::size_t>(c)];
    }
    flags.resize(static_cast<std::size_t>(n_samp), 0);
    for (std::int64_t s = 0; s < n_samp; s += 17) flags[static_cast<std::size_t>(s)] = 1;
    hwp.resize(static_cast<std::size_t>(n_samp));
    for (auto& v : hwp) v = 2.0 * 3.141592653589793 * ud(gen);
    pol_eff = {0.95, 1.0, 0.9};
    signal.resize(static_cast<std::size_t>(n_det * n_samp));
    for (auto& v : signal) v = nd(gen);
    pixels.resize(static_cast<std::size_t>(n_det * n_samp));
    std::uniform_int_distribution<std::int64_t> pd(0, 12 * 16 * 16 - 1);
    for (auto& v : pixels) v = pd(gen);
    // A few flagged pixels.
    for (std::int64_t i = 0; i < n_det * n_samp; i += 31) pixels[static_cast<std::size_t>(i)] = -1;
    weights.resize(static_cast<std::size_t>(3 * n_det * n_samp));
    for (auto& v : weights) v = nd(gen);
  }
};

core::ExecContext make_ctx(Backend b) {
  core::ExecConfig cfg;
  cfg.backend = b;
  return core::ExecContext(cfg);
}

// Bitwise: the ports must reproduce the baseline exactly, not within ULPs.
void expect_equal(const std::vector<double>& a, const std::vector<double>& b,
                  const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " index " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_equal_i(const std::vector<std::int64_t>& a,
                    const std::vector<std::int64_t>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " index " << i;
  }
}

/// Bitwise equality of an input buffer before and after a call that only
/// reads it.
template <class T>
void expect_untouched(const std::vector<T>& now, const std::vector<T>& before,
                      const char* what) {
  ASSERT_EQ(now.size(), before.size()) << what;
  EXPECT_EQ(std::memcmp(now.data(), before.data(), now.size() * sizeof(T)), 0)
      << what << " changed";
}

/// Every TestData buffer keeps its bits (each is a const kernel input or
/// the source of a caller-owned output copy).
void expect_inputs_untouched(const TestData& now, const TestData& before) {
  expect_untouched(now.fp_quats, before.fp_quats, "fp_quats");
  expect_untouched(now.boresight, before.boresight, "boresight");
  expect_untouched(now.quats, before.quats, "quats");
  expect_untouched(now.flags, before.flags, "flags");
  expect_untouched(now.hwp, before.hwp, "hwp");
  expect_untouched(now.pol_eff, before.pol_eff, "pol_eff");
  expect_untouched(now.signal, before.signal, "signal");
  expect_untouched(now.pixels, before.pixels, "pixels");
  expect_untouched(now.weights, before.weights, "weights");
}

}  // namespace

TEST(KernelEquivalence, PointingDetector) {
  TestData d;
  const TestData before = d;
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);

  std::vector<double> out_cpu(d.quats.size(), 0.0);
  std::vector<double> out_omp_dev(d.quats.size(), 0.0);
  std::vector<double> out_omp_host(d.quats.size(), 0.0);
  std::vector<double> out_jax(d.quats.size(), 0.0);

  k::cpu::pointing_detector(d.fp_quats, d.boresight, d.flags, 1, d.intervals,
                            d.n_det, d.n_samp, out_cpu, ctx_cpu);
  k::omp::pointing_detector(d.fp_quats.data(), d.boresight.data(),
                            d.flags.data(), 1, d.intervals, d.n_det,
                            d.n_samp, out_omp_dev.data(), ctx_omp, true);
  k::omp::pointing_detector(d.fp_quats.data(), d.boresight.data(),
                            d.flags.data(), 1, d.intervals, d.n_det,
                            d.n_samp, out_omp_host.data(), ctx_omp, false);
  k::jax::pointing_detector(d.fp_quats.data(), d.boresight.data(),
                            d.flags.data(), 1, d.intervals, d.n_det,
                            d.n_samp, out_jax.data(), ctx_jax);
  expect_inputs_untouched(d, before);

  expect_equal(out_cpu, out_omp_dev, "omp-device");
  expect_equal(out_cpu, out_omp_host, "omp-host");
  expect_equal(out_cpu, out_jax, "jax");
}

class PixelsHealpixEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, bool>> {};

TEST_P(PixelsHealpixEquivalence, AllBackendsAgree) {
  const auto [nside, nest] = GetParam();
  TestData d;
  const TestData before = d;
  // Use realistic pointing: detector quaternions from the test data are
  // already random rotations covering the sphere.
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);

  std::vector<std::int64_t> out_cpu(static_cast<std::size_t>(d.n_det * d.n_samp), 0);
  std::vector<std::int64_t> out_omp(out_cpu.size(), 0);
  std::vector<std::int64_t> out_host(out_cpu.size(), 0);
  std::vector<std::int64_t> out_jax(out_cpu.size(), 0);

  k::cpu::pixels_healpix(d.quats, d.flags, 1, nside, nest, d.intervals,
                         d.n_det, d.n_samp, out_cpu, ctx_cpu);
  k::omp::pixels_healpix(d.quats.data(), d.flags.data(), 1, nside, nest,
                         d.intervals, d.n_det, d.n_samp, out_omp.data(),
                         ctx_omp, true);
  k::omp::pixels_healpix(d.quats.data(), d.flags.data(), 1, nside, nest,
                         d.intervals, d.n_det, d.n_samp, out_host.data(),
                         ctx_omp, false);
  k::jax::pixels_healpix(d.quats.data(), d.flags.data(), 1, nside, nest,
                         d.intervals, d.n_det, d.n_samp, out_jax.data(),
                         ctx_jax);
  expect_inputs_untouched(d, before);

  expect_equal_i(out_cpu, out_omp, "omp-device");
  expect_equal_i(out_cpu, out_host, "omp-host");
  expect_equal_i(out_cpu, out_jax, "jax");

  // Flagged samples must be -1, in-interval unflagged samples valid.
  for (const auto& ival : d.intervals) {
    for (std::int64_t s = ival.start; s < ival.stop; ++s) {
      const auto v = out_cpu[static_cast<std::size_t>(s)];
      if (d.flags[static_cast<std::size_t>(s)] & 1) {
        EXPECT_EQ(v, -1);
      } else {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 12 * nside * nside);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NsideSchemes, PixelsHealpixEquivalence,
    ::testing::Combine(::testing::Values<std::int64_t>(16, 64, 256),
                       ::testing::Bool()));

TEST(KernelEquivalence, StokesWeightsIqu) {
  TestData d;
  const TestData before = d;
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);

  const std::size_t n = static_cast<std::size_t>(3 * d.n_det * d.n_samp);
  std::vector<double> out_cpu(n, 0.0), out_omp(n, 0.0), out_host(n, 0.0),
      out_jax(n, 0.0);

  k::cpu::stokes_weights_iqu(d.quats, d.hwp, d.pol_eff, d.intervals, d.n_det,
                             d.n_samp, out_cpu, ctx_cpu);
  k::omp::stokes_weights_iqu(d.quats.data(), d.hwp.data(), d.pol_eff.data(),
                             d.intervals, d.n_det, d.n_samp, out_omp.data(),
                             ctx_omp, true);
  k::omp::stokes_weights_iqu(d.quats.data(), d.hwp.data(), d.pol_eff.data(),
                             d.intervals, d.n_det, d.n_samp, out_host.data(),
                             ctx_omp, false);
  k::jax::stokes_weights_iqu(d.quats.data(), d.hwp.data(), d.pol_eff.data(),
                             d.intervals, d.n_det, d.n_samp, out_jax.data(),
                             ctx_jax);
  expect_inputs_untouched(d, before);

  expect_equal(out_cpu, out_omp, "omp-device");
  expect_equal(out_cpu, out_host, "omp-host");
  expect_equal(out_cpu, out_jax, "jax");

  // Physics sanity: |Q/U weight| <= eta, I weight == 1 inside intervals.
  for (const auto& ival : d.intervals) {
    for (std::int64_t s = ival.start; s < ival.stop; ++s) {
      for (std::int64_t det = 0; det < d.n_det; ++det) {
        const std::size_t off =
            static_cast<std::size_t>(3 * (det * d.n_samp + s));
        EXPECT_DOUBLE_EQ(out_cpu[off], 1.0);
        const double eta = d.pol_eff[static_cast<std::size_t>(det)];
        EXPECT_LE(std::abs(out_cpu[off + 1]), eta + 1e-12);
        EXPECT_LE(std::abs(out_cpu[off + 2]), eta + 1e-12);
        EXPECT_NEAR(out_cpu[off + 1] * out_cpu[off + 1] +
                        out_cpu[off + 2] * out_cpu[off + 2],
                    eta * eta, 1e-9);
      }
    }
  }
}

TEST(KernelEquivalence, StokesWeightsIquNoHwp) {
  TestData d;
  const TestData before = d;
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_jax = make_ctx(Backend::kJax);
  const std::size_t n = static_cast<std::size_t>(3 * d.n_det * d.n_samp);
  std::vector<double> out_cpu(n, 0.0), out_jax(n, 0.0);
  k::cpu::stokes_weights_iqu(d.quats, {}, d.pol_eff, d.intervals, d.n_det,
                             d.n_samp, out_cpu, ctx_cpu);
  k::jax::stokes_weights_iqu(d.quats.data(), nullptr, d.pol_eff.data(),
                             d.intervals, d.n_det, d.n_samp, out_jax.data(),
                             ctx_jax);
  expect_inputs_untouched(d, before);
  expect_equal(out_cpu, out_jax, "jax-nohwp");
}

TEST(KernelEquivalence, StokesWeightsI) {
  TestData d;
  const TestData before = d;
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);
  const std::size_t n = static_cast<std::size_t>(d.n_det * d.n_samp);
  std::vector<double> out_cpu(n, -5.0), out_omp(n, -5.0), out_jax(n, -5.0);
  k::cpu::stokes_weights_i(d.intervals, d.n_det, d.n_samp, out_cpu, ctx_cpu);
  k::omp::stokes_weights_i(d.intervals, d.n_det, d.n_samp, out_omp.data(),
                           ctx_omp, true);
  k::jax::stokes_weights_i(d.intervals, d.n_det, d.n_samp, out_jax.data(),
                           ctx_jax);
  expect_inputs_untouched(d, before);
  expect_equal(out_cpu, out_omp, "omp");
  expect_equal(out_cpu, out_jax, "jax");
  // Outside the intervals the buffer is untouched (sample 205 is in the
  // gap between the second and third interval).
  EXPECT_DOUBLE_EQ(out_cpu[205], -5.0);
}

TEST(KernelEquivalence, ScanMap) {
  TestData d;
  const TestData before = d;
  const std::int64_t nside = 16, nnz = 3;
  const std::int64_t n_pix = 12 * nside * nside;
  std::vector<double> sky(static_cast<std::size_t>(n_pix * nnz));
  std::mt19937 gen(5);
  std::normal_distribution<double> nd(0.0, 1.0);
  for (auto& v : sky) v = nd(gen);
  const std::vector<double> sky_before = sky;

  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);

  std::vector<double> sig_cpu = d.signal, sig_omp = d.signal,
                      sig_host = d.signal, sig_jax = d.signal;
  k::cpu::scan_map(sky, nnz, d.pixels, d.weights, 1.25, d.intervals, d.n_det,
                   d.n_samp, sig_cpu, ctx_cpu);
  k::omp::scan_map(sky.data(), nnz, d.pixels.data(), d.weights.data(), 1.25,
                   d.intervals, d.n_det, d.n_samp, sig_omp.data(), ctx_omp,
                   true);
  k::omp::scan_map(sky.data(), nnz, d.pixels.data(), d.weights.data(), 1.25,
                   d.intervals, d.n_det, d.n_samp, sig_host.data(), ctx_omp,
                   false);
  k::jax::scan_map(sky.data(), n_pix, nnz, d.pixels.data(), d.weights.data(),
                   1.25, d.intervals, d.n_det, d.n_samp, sig_jax.data(),
                   ctx_jax);
  expect_inputs_untouched(d, before);
  expect_untouched(sky, sky_before, "sky map");
  expect_equal(sig_cpu, sig_omp, "omp-device");
  expect_equal(sig_cpu, sig_host, "omp-host");
  expect_equal(sig_cpu, sig_jax, "jax");
}

TEST(KernelEquivalence, NoiseWeight) {
  TestData d;
  const TestData before = d;
  const std::vector<double> det_w = {0.5, 2.0, 1.5};
  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);
  std::vector<double> s_cpu = d.signal, s_omp = d.signal, s_jax = d.signal;
  k::cpu::noise_weight(det_w, d.intervals, d.n_det, d.n_samp, s_cpu, ctx_cpu);
  k::omp::noise_weight(det_w.data(), d.intervals, d.n_det, d.n_samp,
                       s_omp.data(), ctx_omp, true);
  k::jax::noise_weight(det_w.data(), d.intervals, d.n_det, d.n_samp,
                       s_jax.data(), ctx_jax);
  expect_inputs_untouched(d, before);
  expect_untouched(det_w, std::vector<double>{0.5, 2.0, 1.5}, "det weights");
  expect_equal(s_cpu, s_omp, "omp");
  expect_equal(s_cpu, s_jax, "jax");
}

TEST(KernelEquivalence, BuildNoiseWeighted) {
  TestData d;
  const TestData before = d;
  const std::int64_t nside = 16, nnz = 3;
  const std::int64_t n_pix = 12 * nside * nside;
  const std::vector<double> det_scale = {1.0, 0.8, 1.2};

  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);

  std::vector<double> z_cpu(static_cast<std::size_t>(n_pix * nnz), 0.0);
  std::vector<double> z_omp = z_cpu, z_host = z_cpu, z_jax = z_cpu;

  k::cpu::build_noise_weighted(d.pixels, d.weights, nnz, d.signal, det_scale,
                               d.flags, 1, d.intervals, d.n_det, d.n_samp,
                               z_cpu, ctx_cpu);
  k::omp::build_noise_weighted(d.pixels.data(), d.weights.data(), nnz,
                               d.signal.data(), det_scale.data(),
                               d.flags.data(), 1, d.intervals, d.n_det,
                               d.n_samp, z_omp.data(), ctx_omp, true);
  k::omp::build_noise_weighted(d.pixels.data(), d.weights.data(), nnz,
                               d.signal.data(), det_scale.data(),
                               d.flags.data(), 1, d.intervals, d.n_det,
                               d.n_samp, z_host.data(), ctx_omp, false);
  k::jax::build_noise_weighted(d.pixels.data(), d.weights.data(), n_pix, nnz,
                               d.signal.data(), det_scale.data(),
                               d.flags.data(), 1, d.intervals, d.n_det,
                               d.n_samp, z_jax.data(), ctx_jax);
  expect_inputs_untouched(d, before);
  expect_untouched(det_scale, std::vector<double>{1.0, 0.8, 1.2},
                   "det scale");
  expect_equal(z_cpu, z_omp, "omp-device");
  expect_equal(z_cpu, z_host, "omp-host");
  expect_equal(z_cpu, z_jax, "jax");
}

// Step lengths: one sample per amplitude, the solver's usual size, and a
// step longer than every interval (one amplitude per detector).
constexpr std::int64_t kOffsetSteps[] = {1, 32, 300};

TEST(KernelEquivalence, TemplateOffsetAddToSignal) {
  TestData d;
  const TestData before = d;
  for (const std::int64_t step : kOffsetSteps) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::int64_t n_amp_det = (d.n_samp + step - 1) / step;
    std::vector<double> amps(static_cast<std::size_t>(d.n_det * n_amp_det));
    std::mt19937 gen(9);
    std::normal_distribution<double> nd(0.0, 1.0);
    for (auto& v : amps) v = nd(gen);
    const std::vector<double> amps_before = amps;

    auto ctx_cpu = make_ctx(Backend::kCpu);
    auto ctx_omp = make_ctx(Backend::kOmpTarget);
    auto ctx_jax = make_ctx(Backend::kJax);
    std::vector<double> s_cpu = d.signal, s_omp = d.signal,
                        s_host = d.signal, s_jax = d.signal;
    k::cpu::template_offset_add_to_signal(step, amps, n_amp_det, d.intervals,
                                          d.n_det, d.n_samp, s_cpu, ctx_cpu);
    k::omp::template_offset_add_to_signal(step, amps.data(), n_amp_det,
                                          d.intervals, d.n_det, d.n_samp,
                                          s_omp.data(), ctx_omp, true);
    k::omp::template_offset_add_to_signal(step, amps.data(), n_amp_det,
                                          d.intervals, d.n_det, d.n_samp,
                                          s_host.data(), ctx_omp, false);
    k::jax::template_offset_add_to_signal(step, amps.data(), n_amp_det,
                                          d.intervals, d.n_det, d.n_samp,
                                          s_jax.data(), ctx_jax);
    expect_inputs_untouched(d, before);
    expect_untouched(amps, amps_before, "amplitudes");
    expect_equal(s_cpu, s_omp, "omp-device");
    expect_equal(s_cpu, s_host, "omp-host");
    expect_equal(s_cpu, s_jax, "jax");
  }
}

TEST(KernelEquivalence, TemplateOffsetProjectSignal) {
  TestData d;
  const TestData before = d;
  for (const std::int64_t step : kOffsetSteps) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::int64_t n_amp_det = (d.n_samp + step - 1) / step;
    // Non-zero starting amplitudes: the projection accumulates into them.
    std::vector<double> start(static_cast<std::size_t>(d.n_det * n_amp_det));
    std::mt19937 gen(11);
    std::normal_distribution<double> nd(0.0, 1.0);
    for (auto& v : start) v = nd(gen);

    auto ctx_cpu = make_ctx(Backend::kCpu);
    auto ctx_omp = make_ctx(Backend::kOmpTarget);
    auto ctx_jax = make_ctx(Backend::kJax);
    std::vector<double> a_cpu = start, a_omp = start, a_host = start,
                        a_jax = start;
    k::cpu::template_offset_project_signal(step, d.signal, d.intervals,
                                           d.n_det, d.n_samp, a_cpu,
                                           n_amp_det, ctx_cpu);
    k::omp::template_offset_project_signal(step, d.signal.data(), d.intervals,
                                           d.n_det, d.n_samp, a_omp.data(),
                                           n_amp_det, ctx_omp, true);
    k::omp::template_offset_project_signal(step, d.signal.data(), d.intervals,
                                           d.n_det, d.n_samp, a_host.data(),
                                           n_amp_det, ctx_omp, false);
    k::jax::template_offset_project_signal(step, d.signal.data(), d.intervals,
                                           d.n_det, d.n_samp, a_jax.data(),
                                           n_amp_det, ctx_jax);
    expect_inputs_untouched(d, before);
    expect_equal(a_cpu, a_omp, "omp-device");
    expect_equal(a_cpu, a_host, "omp-host");
    expect_equal(a_cpu, a_jax, "jax");
  }
}

TEST(KernelEquivalence, TemplateOffsetPrecond) {
  const std::int64_t n = 77;
  std::vector<double> var(static_cast<std::size_t>(n)), in(static_cast<std::size_t>(n));
  std::mt19937 gen(3);
  std::uniform_real_distribution<double> ud(0.1, 2.0);
  for (auto& v : var) v = ud(gen);
  for (auto& v : in) v = ud(gen);
  const std::vector<double> var_before = var, in_before = in;

  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);
  std::vector<double> o_cpu(static_cast<std::size_t>(n)), o_omp = o_cpu, o_jax = o_cpu;
  k::cpu::template_offset_apply_diag_precond(var, in, o_cpu, ctx_cpu);
  k::omp::template_offset_apply_diag_precond(var.data(), in.data(), n,
                                             o_omp.data(), ctx_omp, true);
  k::jax::template_offset_apply_diag_precond(var.data(), in.data(), n,
                                             o_jax.data(), ctx_jax);
  expect_untouched(var, var_before, "offset variance");
  expect_untouched(in, in_before, "amplitudes");
  expect_equal(o_cpu, o_omp, "omp");
  expect_equal(o_cpu, o_jax, "jax");
}

TEST(KernelArgs, InputsAreBorrowedAndOutputsDonated) {
  // The ports hand their inputs to the call as read-only views and their
  // output as a writable one: no argument is copied.
  std::vector<double> in = {1.0, 2.0, 3.0};
  std::vector<std::int64_t> pix = {4, 5};
  const auto a = k::jax::borrow(std::as_const(in).data(), 3);
  const auto b = k::jax::borrow(std::as_const(pix).data(), 2);
  const auto c = k::jax::donate(in.data(), 3);
  const auto e = k::jax::donate(pix.data(), 2);
  EXPECT_EQ(a.data(), in.data());
  EXPECT_EQ(b.data(), pix.data());
  EXPECT_EQ(c.data(), in.data());
  EXPECT_EQ(e.data(), pix.data());
  EXPECT_TRUE(a.borrowed() && b.borrowed() && c.borrowed() && e.borrowed());
  EXPECT_FALSE(a.writable() || b.writable());
  EXPECT_TRUE(c.writable() && e.writable());
  // An absent optional input is an owned zero array.
  const auto absent = k::jax::borrow(static_cast<const double*>(nullptr), 3);
  EXPECT_FALSE(absent.borrowed());
  EXPECT_EQ(absent.f64()[2], 0.0);
}

TEST(KernelBehaviour, JaxPaysForPadding) {
  // Intervals of very different lengths: the JAX port must execute
  // (and be charged for) the padded index space.
  TestData d;
  d.intervals = {{0, 200}, {200, 210}, {210, 215}};  // max_len = 200
  auto ctx_jax = make_ctx(Backend::kJax);
  ctx_jax.jax().set_work_scale(1e6);  // lift above dispatch overheads
  std::vector<double> sig = d.signal;
  const std::vector<double> det_w = {1.0, 1.0, 1.0};
  k::jax::noise_weight(det_w.data(), d.intervals, d.n_det, d.n_samp,
                       sig.data(), ctx_jax);
  // 3 intervals padded to 200 each = 600 lanes per det vs 215 true.
  // The kernel's device work must reflect the padded flop count: compare
  // against an equal-size problem without padding waste.
  auto ctx_ref = make_ctx(Backend::kJax);
  ctx_ref.jax().set_work_scale(1e6);
  std::vector<double> sig2 = d.signal;
  std::vector<Interval> uniform = {{0, 72}, {72, 144}, {144, 215}};
  k::jax::noise_weight(det_w.data(), uniform, d.n_det, d.n_samp, sig2.data(),
                       ctx_ref);
  const double padded = ctx_jax.log().seconds("noise_weight");
  const double compact = ctx_ref.log().seconds("noise_weight");
  EXPECT_GT(padded, compact);
}

TEST(KernelBehaviour, OmpGuardCutsPaddingCost) {
  // The OpenMP port's guard makes overhang iterations nearly free: padded
  // and compact interval layouts cost about the same.
  TestData d;
  auto ctx_a = make_ctx(Backend::kOmpTarget);
  auto ctx_b = make_ctx(Backend::kOmpTarget);
  std::vector<double> s1 = d.signal, s2 = d.signal;
  const std::vector<double> det_w = {1.0, 1.0, 1.0};
  std::vector<Interval> skewed = {{0, 200}, {200, 210}, {210, 215}};
  std::vector<Interval> uniform = {{0, 72}, {72, 144}, {144, 215}};
  k::omp::noise_weight(det_w.data(), skewed, d.n_det, d.n_samp, s1.data(),
                       ctx_a, true);
  k::omp::noise_weight(det_w.data(), uniform, d.n_det, d.n_samp, s2.data(),
                       ctx_b, true);
  const double t_skewed = ctx_a.log().seconds("noise_weight");
  const double t_uniform = ctx_b.log().seconds("noise_weight");
  // Within 1.5x of each other (guard iterations cost only the test).
  EXPECT_LT(t_skewed / t_uniform, 1.5);
}

TEST(KernelBehaviour, ProjectSignalLowersToSegmentedReduce) {
  // The JAX project_signal scatter has sorted indices; the OMP version
  // pays atomic conflicts.  Check the resulting asymmetry in modelled
  // device time for a compute-equal problem.
  TestData d;
  const std::int64_t step = 64;
  const std::int64_t n_amp_det = (d.n_samp + step - 1) / step;
  auto ctx_omp = make_ctx(Backend::kOmpTarget);
  auto ctx_jax = make_ctx(Backend::kJax);
  ctx_omp.omp().set_work_scale(1e6);
  ctx_jax.jax().set_work_scale(1e6);
  std::vector<double> a1(static_cast<std::size_t>(d.n_det * n_amp_det), 0.0);
  std::vector<double> a2 = a1;
  k::omp::template_offset_project_signal(step, d.signal.data(), d.intervals,
                                         d.n_det, d.n_samp, a1.data(),
                                         n_amp_det, ctx_omp, true);
  k::jax::template_offset_project_signal(step, d.signal.data(), d.intervals,
                                         d.n_det, d.n_samp, a2.data(),
                                         n_amp_det, ctx_jax);
  const double t_omp = ctx_omp.log().seconds("template_offset_project_signal");
  const double t_jax = ctx_jax.log().seconds("template_offset_project_signal");
  EXPECT_GT(t_omp, t_jax);
}

// ---------------------------------------------------------------------------
// The map-making loop of the JAX ports: only the timestream and the
// amplitudes change between iterations, so each declared kernel reuses
// what it computed from its index inputs.  The products and every TimeLog
// category must equal a loop with cold JIT caches before every call, which
// cannot reuse anything (it pays the compile charge on every call).
// ---------------------------------------------------------------------------

namespace {

const char* const kMapMakingKernels[] = {
    "noise_weight", "build_noise_weighted", "template_offset_project_signal",
    "template_offset_add_to_signal"};

struct MapMakingRun {
  std::vector<double> signal, zmap, amps;
  toast::accel::TimeLog log;
  std::map<std::string, std::size_t> hits;
};

/// `iterations` passes of noise_weight -> build_noise_weighted ->
/// project_signal -> add_to_signal on one observation.  `cold` clears the
/// JIT caches before every call; `touch_pixels` changes one pixel in place
/// before every build_noise_weighted call but the first.
MapMakingRun run_map_making(const TestData& d, int iterations, bool cold,
                            bool touch_pixels = false) {
  const std::int64_t nside = 16, nnz = 3, step = 32;
  const std::int64_t n_pix = 12 * nside * nside;
  const std::int64_t n_amp_det = (d.n_samp + step - 1) / step;
  const std::vector<double> det_w = {0.5, 2.0, 1.5};
  const std::vector<double> det_scale = {1.0, 0.8, 1.2};
  std::vector<std::int64_t> pixels = d.pixels;
  MapMakingRun run;
  run.signal = d.signal;
  run.zmap.assign(static_cast<std::size_t>(n_pix * nnz), 0.0);
  run.amps.assign(static_cast<std::size_t>(d.n_det * n_amp_det), 0.0);
  k::jax::clear_jit_caches();
  auto ctx = make_ctx(Backend::kJax);
  const auto before_call = [&] {
    if (cold) k::jax::clear_jit_caches();
  };
  for (int it = 0; it < iterations; ++it) {
    before_call();
    k::jax::noise_weight(det_w.data(), d.intervals, d.n_det, d.n_samp,
                         run.signal.data(), ctx);
    if (touch_pixels && it > 0) pixels[7] = (pixels[7] + 1) % n_pix;
    before_call();
    k::jax::build_noise_weighted(pixels.data(), d.weights.data(), n_pix, nnz,
                                 run.signal.data(), det_scale.data(),
                                 d.flags.data(), 1, d.intervals, d.n_det,
                                 d.n_samp, run.zmap.data(), ctx);
    before_call();
    k::jax::template_offset_project_signal(step, run.signal.data(),
                                           d.intervals, d.n_det, d.n_samp,
                                           run.amps.data(), n_amp_det, ctx);
    before_call();
    k::jax::template_offset_add_to_signal(step, run.amps.data(), n_amp_det,
                                          d.intervals, d.n_det, d.n_samp,
                                          run.signal.data(), ctx);
  }
  run.log = ctx.log();
  for (const char* name : kMapMakingKernels) {
    run.hits[name] = k::jax::registered_jit(name).reuse_hits();
  }
  return run;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

void expect_same_run(const MapMakingRun& reused, const MapMakingRun& cold) {
  expect_same_bits(reused.signal, cold.signal, "signal");
  expect_same_bits(reused.zmap, cold.zmap, "zmap");
  expect_same_bits(reused.amps, cold.amps, "amplitudes");
  EXPECT_EQ(reused.log.categories(), cold.log.categories());
  for (const auto& cat : cold.log.categories()) {
    if (cat == "jit_compile") continue;
    EXPECT_EQ(reused.log.seconds(cat), cold.log.seconds(cat)) << cat;
    EXPECT_EQ(reused.log.calls(cat), cold.log.calls(cat)) << cat;
  }
}

}  // namespace

TEST(KernelReuse, MapMakingLoopReusesIndexWork) {
  TestData d;
  const MapMakingRun reused = run_map_making(d, 5, /*cold=*/false);
  const MapMakingRun cold = run_map_making(d, 5, /*cold=*/true);
  expect_same_run(reused, cold);
  EXPECT_EQ(reused.log.calls("jit_compile"), 4);
  EXPECT_EQ(cold.log.calls("jit_compile"), 20);
  for (const char* name : kMapMakingKernels) {
    EXPECT_EQ(reused.hits.at(name), 4u) << name;
  }
}

TEST(KernelReuse, PixelsChangedInPlaceRecompute) {
  TestData d;
  const MapMakingRun reused = run_map_making(d, 3, false, /*touch=*/true);
  const MapMakingRun cold = run_map_making(d, 3, true, /*touch=*/true);
  expect_same_run(reused, cold);
  EXPECT_EQ(reused.hits.at("build_noise_weighted"), 0u);
  EXPECT_EQ(reused.hits.at("noise_weight"), 2u);
}

// ---------------------------------------------------------------------------
// Static arguments.  A double static is keyed by its bits: two scales that
// print alike to six decimals are still two traces, so neither call runs
// the other's graph.
// ---------------------------------------------------------------------------

TEST(KernelStatics, ScanMapScalesThatPrintAlikeAreDistinctTraces) {
  TestData d;
  const std::int64_t nside = 16, nnz = 3;
  const std::int64_t n_pix = 12 * nside * nside;
  std::vector<double> sky(static_cast<std::size_t>(n_pix * nnz));
  std::mt19937 gen(5);
  std::normal_distribution<double> nd(0.0, 1.0);
  for (auto& v : sky) v = nd(gen);

  auto ctx_cpu = make_ctx(Backend::kCpu);
  auto ctx_jax = make_ctx(Backend::kJax);
  for (const double scale : {1e-7, 2e-7}) {
    std::vector<double> sig_cpu = d.signal, sig_jax = d.signal;
    k::cpu::scan_map(sky, nnz, d.pixels, d.weights, scale, d.intervals,
                     d.n_det, d.n_samp, sig_cpu, ctx_cpu);
    k::jax::scan_map(sky.data(), n_pix, nnz, d.pixels.data(),
                     d.weights.data(), scale, d.intervals, d.n_det, d.n_samp,
                     sig_jax.data(), ctx_jax);
    expect_equal(sig_cpu, sig_jax, scale == 1e-7 ? "1e-7" : "2e-7");
  }
}

// ---------------------------------------------------------------------------
// Concurrency: each thread owns its JIT registry, so two threads with their
// own ExecContexts run every JAX entry point exactly as one thread alone:
// the same products and the same TimeLog, cold compiles included.
// ---------------------------------------------------------------------------

namespace {

struct AllKernelsRun {
  std::vector<double> quats, weights, weights_i, signal, zmap, amps, amp_out;
  std::vector<std::int64_t> pixels;
  toast::accel::TimeLog log;
};

/// Two passes over all ten JAX entry points, each feeding the next, on a
/// fresh context and with this thread's JIT caches cleared first.
AllKernelsRun run_all_kernels(const TestData& d) {
  const std::int64_t nside = 16, nnz = 3, step = 32;
  const std::int64_t n_pix = 12 * nside * nside;
  const std::int64_t n_amp_det = (d.n_samp + step - 1) / step;
  const std::int64_t n_amp = d.n_det * n_amp_det;
  const std::int64_t n = d.n_det * d.n_samp;
  const std::vector<double> det_w = {0.5, 2.0, 1.5};
  const std::vector<double> det_scale = {1.0, 0.8, 1.2};
  std::vector<double> sky(static_cast<std::size_t>(n_pix * nnz));
  for (std::size_t i = 0; i < sky.size(); ++i) sky[i] = std::sin(0.37 * i);
  std::vector<double> var(static_cast<std::size_t>(n_amp), 0.5);

  AllKernelsRun run;
  run.quats.assign(static_cast<std::size_t>(4 * n), 0.0);
  run.pixels.assign(static_cast<std::size_t>(n), 0);
  run.weights.assign(static_cast<std::size_t>(3 * n), 0.0);
  run.weights_i.assign(static_cast<std::size_t>(n), 0.0);
  run.signal = d.signal;
  run.zmap.assign(static_cast<std::size_t>(n_pix * nnz), 0.0);
  run.amps.assign(static_cast<std::size_t>(n_amp), 0.0);
  run.amp_out.assign(static_cast<std::size_t>(n_amp), 0.0);
  k::jax::clear_jit_caches();
  auto ctx = make_ctx(Backend::kJax);
  for (int pass = 0; pass < 2; ++pass) {
    k::jax::pointing_detector(d.fp_quats.data(), d.boresight.data(),
                              d.flags.data(), 1, d.intervals, d.n_det,
                              d.n_samp, run.quats.data(), ctx);
    k::jax::pixels_healpix(run.quats.data(), d.flags.data(), 1, nside,
                           pass == 0, d.intervals, d.n_det, d.n_samp,
                           run.pixels.data(), ctx);
    k::jax::stokes_weights_iqu(run.quats.data(), d.hwp.data(),
                               d.pol_eff.data(), d.intervals, d.n_det,
                               d.n_samp, run.weights.data(), ctx);
    k::jax::stokes_weights_i(d.intervals, d.n_det, d.n_samp,
                             run.weights_i.data(), ctx);
    k::jax::scan_map(sky.data(), n_pix, nnz, run.pixels.data(),
                     run.weights.data(), 1.5, d.intervals, d.n_det, d.n_samp,
                     run.signal.data(), ctx);
    k::jax::noise_weight(det_w.data(), d.intervals, d.n_det, d.n_samp,
                         run.signal.data(), ctx);
    k::jax::build_noise_weighted(run.pixels.data(), run.weights.data(), n_pix,
                                 nnz, run.signal.data(), det_scale.data(),
                                 d.flags.data(), 1, d.intervals, d.n_det,
                                 d.n_samp, run.zmap.data(), ctx);
    k::jax::template_offset_project_signal(step, run.signal.data(),
                                           d.intervals, d.n_det, d.n_samp,
                                           run.amps.data(), n_amp_det, ctx);
    k::jax::template_offset_apply_diag_precond(var.data(), run.amps.data(),
                                               n_amp, run.amp_out.data(),
                                               ctx);
    k::jax::template_offset_add_to_signal(step, run.amp_out.data(), n_amp_det,
                                          d.intervals, d.n_det, d.n_samp,
                                          run.signal.data(), ctx);
  }
  run.log = ctx.log();
  return run;
}

void expect_same_all(const AllKernelsRun& a, const AllKernelsRun& b) {
  expect_same_bits(a.quats, b.quats, "quats");
  EXPECT_EQ(a.pixels, b.pixels);
  expect_same_bits(a.weights, b.weights, "weights");
  expect_same_bits(a.weights_i, b.weights_i, "weights_i");
  expect_same_bits(a.signal, b.signal, "signal");
  expect_same_bits(a.zmap, b.zmap, "zmap");
  expect_same_bits(a.amps, b.amps, "amps");
  expect_same_bits(a.amp_out, b.amp_out, "amp_out");
  ASSERT_EQ(a.log.categories(), b.log.categories());
  for (const auto& cat : a.log.categories()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.log.seconds(cat)),
              std::bit_cast<std::uint64_t>(b.log.seconds(cat)))
        << cat;
    EXPECT_EQ(a.log.calls(cat), b.log.calls(cat)) << cat;
  }
}

}  // namespace

TEST(KernelThreads, TwoThreadsMatchOneThread) {
  const TestData d;
  const AllKernelsRun alone = run_all_kernels(d);
  EXPECT_EQ(alone.log.calls("jit_compile"), 11);
  const auto run_into = [&d](AllKernelsRun& out) {
    try {
      out = run_all_kernels(d);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  };
  AllKernelsRun first, second;
  std::thread a(run_into, std::ref(first));
  std::thread b(run_into, std::ref(second));
  a.join();
  b.join();
  expect_same_all(first, alone);
  expect_same_all(second, alone);
}

// ---------------------------------------------------------------------------
// Host threads: the cpu kernels and both omp-target paths run their
// detector loops on accel::host_threads().  Each must equal a serial loop
// written here, bit for bit, on 8 detectors and jittered intervals.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kMask = 1;

/// 8 detectors over intervals of random length and gap (some adjacent, so
/// offset steps straddle interval boundaries).
struct WideData {
  std::int64_t n_det = 8;
  std::int64_t n_samp = 1031;
  std::int64_t nside = 16;
  std::int64_t nnz = 3;
  std::int64_t step = 7;
  std::vector<Interval> intervals;
  std::vector<double> fp_quats, boresight, hwp, pol_eff, det_w, sky, signal,
      amps;
  std::vector<std::uint8_t> flags;

  std::int64_t n_amp_det() const { return (n_samp + step - 1) / step; }

  WideData() {
    std::mt19937 gen(2024);
    std::normal_distribution<double> nd(0.0, 1.0);
    std::uniform_int_distribution<std::int64_t> len(1, 150), gap(0, 5);
    for (std::int64_t s = gap(gen); s < n_samp;) {
      const std::int64_t stop = std::min(n_samp, s + len(gen));
      intervals.push_back({s, stop});
      const std::int64_t g = gap(gen);
      s = stop + (g < 3 ? 0 : g);
    }
    auto unit_quats = [&](std::int64_t n) {
      std::vector<double> out;
      for (std::int64_t i = 0; i < n; ++i) {
        const auto q = toast::qarray::normalize(
            toast::qarray::Quat{nd(gen), nd(gen), nd(gen), nd(gen)});
        out.insert(out.end(), q.begin(), q.end());
      }
      return out;
    };
    fp_quats = unit_quats(n_det);
    boresight = unit_quats(n_samp);
    flags.assign(static_cast<std::size_t>(n_samp), 0);
    for (std::int64_t s = 3; s < n_samp; s += 13) {
      flags[static_cast<std::size_t>(s)] = kMask;
    }
    for (std::int64_t s = 0; s < n_samp; ++s) {
      hwp.push_back(0.01 * static_cast<double>(s));
    }
    for (std::int64_t d = 0; d < n_det; ++d) {
      pol_eff.push_back(0.9 + 0.01 * static_cast<double>(d));
      det_w.push_back(0.5 + 0.25 * static_cast<double>(d));
    }
    sky.resize(static_cast<std::size_t>(12 * nside * nside * nnz));
    for (auto& v : sky) v = nd(gen);
    signal.resize(static_cast<std::size_t>(n_det * n_samp));
    for (auto& v : signal) v = nd(gen);
    amps.resize(static_cast<std::size_t>(n_det * n_amp_det()));
    for (auto& v : amps) v = nd(gen);
  }
};

/// The products of the eight detector-parallel kernels, chained.
struct HostChain {
  std::vector<double> quats, weights, weights_i, signal, amps;
  std::vector<std::int64_t> pixels;
  toast::accel::TimeLog log;

  explicit HostChain(const WideData& d) {
    const auto n = static_cast<std::size_t>(d.n_det * d.n_samp);
    quats.assign(4 * n, 0.0);
    weights.assign(3 * n, 0.0);
    weights_i.assign(n, 0.0);
    pixels.assign(n, 0);
    signal = d.signal;
    amps = d.amps;
  }
};

/// Serial reference: one detector after another, one sample at a time.
HostChain serial_chain(const WideData& d) {
  HostChain r(d);
  const toast::healpix::Healpix hp(d.nside);
  const double zaxis[3] = {0.0, 0.0, 1.0};
  auto each = [&](auto&& visit) {
    for (std::int64_t det = 0; det < d.n_det; ++det) {
      for (const auto& ival : d.intervals) {
        for (std::int64_t s = ival.start; s < ival.stop; ++s) {
          visit(det, s, static_cast<std::size_t>(det * d.n_samp + s));
        }
      }
    }
  };
  auto flagged = [&](std::int64_t s) {
    return (d.flags[static_cast<std::size_t>(s)] & kMask) != 0;
  };
  each([&](std::int64_t det, std::int64_t s, std::size_t off) {
    const double* fp = &d.fp_quats[static_cast<std::size_t>(4 * det)];
    double* out = &r.quats[4 * off];
    if (flagged(s)) {
      std::copy(fp, fp + 4, out);
    } else {
      k::quat_mult(&d.boresight[static_cast<std::size_t>(4 * s)], fp, out);
    }
  });
  each([&](std::int64_t, std::int64_t s, std::size_t off) {
    double dir[3];
    k::quat_rotate(&r.quats[4 * off], zaxis, dir);
    r.pixels[off] = flagged(s) ? -1 : hp.vec2pix_nest(dir[0], dir[1], dir[2]);
  });
  each([&](std::int64_t det, std::int64_t s, std::size_t off) {
    const double eta = d.pol_eff[static_cast<std::size_t>(det)];
    const double ang = k::detector_angle(&r.quats[4 * off]) +
                       2.0 * d.hwp[static_cast<std::size_t>(s)];
    r.weights[3 * off] = 1.0;
    r.weights[3 * off + 1] = eta * std::cos(2.0 * ang);
    r.weights[3 * off + 2] = eta * std::sin(2.0 * ang);
    r.weights_i[off] = 1.0;
  });
  each([&](std::int64_t, std::int64_t, std::size_t off) {
    const std::int64_t pix = r.pixels[off];
    if (pix < 0) {
      return;
    }
    double value = 0.0;
    for (std::int64_t c = 0; c < d.nnz; ++c) {
      value += d.sky[static_cast<std::size_t>(d.nnz * pix + c)] *
               r.weights[static_cast<std::size_t>(d.nnz) * off +
                         static_cast<std::size_t>(c)];
    }
    r.signal[off] += 1.5 * value;
  });
  each([&](std::int64_t det, std::int64_t, std::size_t off) {
    r.signal[off] *= d.det_w[static_cast<std::size_t>(det)];
  });
  auto amp = [&](std::int64_t det, std::int64_t s) -> double& {
    return r.amps[static_cast<std::size_t>(det * d.n_amp_det() +
                                           s / d.step)];
  };
  each([&](std::int64_t det, std::int64_t s, std::size_t off) {
    amp(det, s) += r.signal[off];
  });
  each([&](std::int64_t det, std::int64_t s, std::size_t off) {
    r.signal[off] += amp(det, s);
  });
  return r;
}

HostChain cpu_chain(const WideData& d) {
  HostChain r(d);
  auto ctx = make_ctx(Backend::kCpu);
  k::cpu::pointing_detector(d.fp_quats, d.boresight, d.flags, kMask,
                            d.intervals, d.n_det, d.n_samp, r.quats, ctx);
  k::cpu::pixels_healpix(r.quats, d.flags, kMask, d.nside, true, d.intervals,
                         d.n_det, d.n_samp, r.pixels, ctx);
  k::cpu::stokes_weights_iqu(r.quats, d.hwp, d.pol_eff, d.intervals, d.n_det,
                             d.n_samp, r.weights, ctx);
  k::cpu::stokes_weights_i(d.intervals, d.n_det, d.n_samp, r.weights_i, ctx);
  k::cpu::scan_map(d.sky, d.nnz, r.pixels, r.weights, 1.5, d.intervals,
                   d.n_det, d.n_samp, r.signal, ctx);
  k::cpu::noise_weight(d.det_w, d.intervals, d.n_det, d.n_samp, r.signal,
                       ctx);
  k::cpu::template_offset_project_signal(d.step, r.signal, d.intervals,
                                         d.n_det, d.n_samp, r.amps,
                                         d.n_amp_det(), ctx);
  k::cpu::template_offset_add_to_signal(d.step, r.amps, d.n_amp_det(),
                                        d.intervals, d.n_det, d.n_samp,
                                        r.signal, ctx);
  r.log = ctx.log();
  return r;
}

HostChain omp_chain(const WideData& d, bool use_accel) {
  HostChain r(d);
  auto ctx = make_ctx(Backend::kOmpTarget);
  k::omp::pointing_detector(d.fp_quats.data(), d.boresight.data(),
                            d.flags.data(), kMask, d.intervals, d.n_det,
                            d.n_samp, r.quats.data(), ctx, use_accel);
  k::omp::pixels_healpix(r.quats.data(), d.flags.data(), kMask, d.nside, true,
                         d.intervals, d.n_det, d.n_samp, r.pixels.data(), ctx,
                         use_accel);
  k::omp::stokes_weights_iqu(r.quats.data(), d.hwp.data(), d.pol_eff.data(),
                             d.intervals, d.n_det, d.n_samp,
                             r.weights.data(), ctx, use_accel);
  k::omp::stokes_weights_i(d.intervals, d.n_det, d.n_samp,
                           r.weights_i.data(), ctx, use_accel);
  k::omp::scan_map(d.sky.data(), d.nnz, r.pixels.data(), r.weights.data(),
                   1.5, d.intervals, d.n_det, d.n_samp, r.signal.data(), ctx,
                   use_accel);
  k::omp::noise_weight(d.det_w.data(), d.intervals, d.n_det, d.n_samp,
                       r.signal.data(), ctx, use_accel);
  k::omp::template_offset_project_signal(
      d.step, r.signal.data(), d.intervals, d.n_det, d.n_samp, r.amps.data(),
      d.n_amp_det(), ctx, use_accel);
  k::omp::template_offset_add_to_signal(
      d.step, r.amps.data(), d.n_amp_det(), d.intervals, d.n_det, d.n_samp,
      r.signal.data(), ctx, use_accel);
  r.log = ctx.log();
  return r;
}

void expect_same_chain(const HostChain& a, const HostChain& b,
                       bool same_log) {
  expect_same_bits(a.quats, b.quats, "quats");
  EXPECT_EQ(a.pixels, b.pixels);
  expect_same_bits(a.weights, b.weights, "weights");
  expect_same_bits(a.weights_i, b.weights_i, "weights_i");
  expect_same_bits(a.signal, b.signal, "signal");
  expect_same_bits(a.amps, b.amps, "amps");
  if (!same_log) {
    return;
  }
  ASSERT_EQ(a.log.categories(), b.log.categories());
  for (const auto& cat : a.log.categories()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.log.seconds(cat)),
              std::bit_cast<std::uint64_t>(b.log.seconds(cat)))
        << cat;
    EXPECT_EQ(a.log.calls(cat), b.log.calls(cat)) << cat;
  }
}

}  // namespace

TEST(KernelHostThreads, EveryDetectorLoopMatchesASerialLoop) {
  const WideData d;
  ASSERT_GT(d.intervals.size(), 8u);
  const HostChain want = serial_chain(d);
  {
    SCOPED_TRACE("cpu");
    expect_same_chain(cpu_chain(d), want, false);
  }
  {
    SCOPED_TRACE("omp-host");
    expect_same_chain(omp_chain(d, false), want, false);
  }
  {
    SCOPED_TRACE("omp-device");
    expect_same_chain(omp_chain(d, true), want, false);
  }
}

TEST(KernelHostThreads, ProjectSignalStepsStraddlingIntervals) {
  // Adjacent intervals whose boundaries fall inside a step: the device
  // path's running sum is stored at a row's last sample and reloaded by
  // the next row, which must equal the per-sample += of the host paths.
  const std::int64_t n_det = 8, n_samp = 300;
  const std::vector<Interval> intervals{
      {0, 13}, {13, 40}, {40, 41}, {41, 90}, {97, 150}, {150, 151},
      {151, 299}};
  std::mt19937 gen(77);
  std::normal_distribution<double> nd(0.0, 1.0);
  std::vector<double> signal(static_cast<std::size_t>(n_det * n_samp));
  for (auto& v : signal) v = nd(gen);
  for (const std::int64_t step : {1, 4, 16, 64, 300}) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::int64_t n_amp_det = (n_samp + step - 1) / step;
    std::vector<double> start(static_cast<std::size_t>(n_det * n_amp_det));
    for (auto& v : start) v = nd(gen);
    std::vector<double> want = start;
    for (std::int64_t det = 0; det < n_det; ++det) {
      for (const auto& ival : intervals) {
        for (std::int64_t s = ival.start; s < ival.stop; ++s) {
          want[static_cast<std::size_t>(det * n_amp_det + s / step)] +=
              signal[static_cast<std::size_t>(det * n_samp + s)];
        }
      }
    }
    auto ctx_cpu = make_ctx(Backend::kCpu);
    auto ctx_omp = make_ctx(Backend::kOmpTarget);
    std::vector<double> a_cpu = start, a_host = start, a_dev = start;
    k::cpu::template_offset_project_signal(step, signal, intervals, n_det,
                                           n_samp, a_cpu, n_amp_det, ctx_cpu);
    k::omp::template_offset_project_signal(step, signal.data(), intervals,
                                           n_det, n_samp, a_host.data(),
                                           n_amp_det, ctx_omp, false);
    k::omp::template_offset_project_signal(step, signal.data(), intervals,
                                           n_det, n_samp, a_dev.data(),
                                           n_amp_det, ctx_omp, true);
    expect_equal(want, a_cpu, "cpu");
    expect_equal(want, a_host, "omp-host");
    expect_equal(want, a_dev, "omp-device");
  }
}

TEST(KernelThreads, HostKernelsTwoThreadsMatchOneThread) {
  // Two user threads contend for the host pool: whichever finds it busy
  // runs its detector loop inline, with the same products and TimeLog.
  const WideData d;
  auto run_all = [&d] {
    return std::array<HostChain, 3>{cpu_chain(d), omp_chain(d, false),
                                    omp_chain(d, true)};
  };
  const auto alone = run_all();
  std::vector<std::thread> threads;
  std::array<std::optional<std::array<HostChain, 3>>, 2> out;
  for (auto& slot : out) {
    threads.emplace_back([&slot, &run_all] {
      for (int round = 0; round < 3; ++round) {
        slot = run_all();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const auto& slot : out) {
    ASSERT_TRUE(slot.has_value());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      expect_same_chain((*slot)[i], alone[i], true);
    }
  }
}
