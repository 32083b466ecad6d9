// Edge-case tests for the kernels: degenerate interval lists, single
// samples, fully flagged data, extreme template step lengths - each run
// across all three implementations and compared.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "accel/work.hpp"
#include "kernels/common.hpp"
#include "kernels/cpu.hpp"
#include "kernels/jax.hpp"
#include "kernels/omptarget.hpp"
#include "qarray/qarray.hpp"

namespace core = toast::core;
namespace k = toast::kernels;
using core::Backend;
using core::Interval;

namespace {

core::ExecContext make_ctx(Backend b) {
  core::ExecConfig cfg;
  cfg.backend = b;
  return core::ExecContext(cfg);
}

std::vector<double> random_unit_quats(std::int64_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> nd(0.0, 1.0);
  std::vector<double> out(static_cast<std::size_t>(4 * n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto q =
        toast::qarray::normalize({nd(gen), nd(gen), nd(gen), nd(gen)});
    for (int c = 0; c < 4; ++c) {
      out[static_cast<std::size_t>(4 * i + c)] =
          q[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

}  // namespace

TEST(KernelEdge, EmptyIntervalList) {
  // No intervals: every implementation must leave outputs untouched and
  // charge (almost) nothing.
  const std::int64_t n_det = 2, n_samp = 64;
  const std::vector<Interval> none;
  const auto quats = random_unit_quats(n_det * n_samp, 1);
  auto cpu = make_ctx(Backend::kCpu);
  auto omp = make_ctx(Backend::kOmpTarget);
  auto jax = make_ctx(Backend::kJax);

  std::vector<std::int64_t> p_cpu(static_cast<std::size_t>(n_det * n_samp), -7);
  auto p_omp = p_cpu;
  auto p_jax = p_cpu;
  k::cpu::pixels_healpix(quats, {}, 1, 16, true, none, n_det, n_samp, p_cpu,
                         cpu);
  k::omp::pixels_healpix(quats.data(), nullptr, 1, 16, true, none, n_det,
                         n_samp, p_omp.data(), omp, true);
  k::jax::pixels_healpix(quats.data(), nullptr, 1, 16, true, none, n_det,
                         n_samp, p_jax.data(), jax);
  for (std::size_t i = 0; i < p_cpu.size(); ++i) {
    EXPECT_EQ(p_cpu[i], -7);
    EXPECT_EQ(p_omp[i], -7);
    EXPECT_EQ(p_jax[i], -7);
  }
}

TEST(KernelEdge, SingleSampleIntervals) {
  const std::int64_t n_det = 3, n_samp = 32;
  const std::vector<Interval> ivals{{0, 1}, {5, 6}, {31, 32}};
  const std::vector<double> det_w{2.0, 3.0, 4.0};
  std::vector<double> sig(static_cast<std::size_t>(n_det * n_samp), 1.0);
  auto s_cpu = sig, s_omp = sig, s_jax = sig;
  auto cpu = make_ctx(Backend::kCpu);
  auto omp = make_ctx(Backend::kOmpTarget);
  auto jax = make_ctx(Backend::kJax);
  k::cpu::noise_weight(det_w, ivals, n_det, n_samp, s_cpu, cpu);
  k::omp::noise_weight(det_w.data(), ivals, n_det, n_samp, s_omp.data(), omp,
                       true);
  k::jax::noise_weight(det_w.data(), ivals, n_det, n_samp, s_jax.data(), jax);
  for (std::int64_t d = 0; d < n_det; ++d) {
    for (std::int64_t s = 0; s < n_samp; ++s) {
      const auto i = static_cast<std::size_t>(d * n_samp + s);
      const bool inside = s == 0 || s == 5 || s == 31;
      const double expect =
          inside ? det_w[static_cast<std::size_t>(d)] : 1.0;
      EXPECT_DOUBLE_EQ(s_cpu[i], expect);
      EXPECT_DOUBLE_EQ(s_omp[i], expect);
      EXPECT_DOUBLE_EQ(s_jax[i], expect);
    }
  }
}

TEST(KernelEdge, AllSamplesFlagged) {
  const std::int64_t n_det = 2, n_samp = 48;
  const std::vector<Interval> ivals{{0, 48}};
  const auto quats = random_unit_quats(n_det * n_samp, 2);
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(n_samp), 1);
  auto cpu = make_ctx(Backend::kCpu);
  auto jax = make_ctx(Backend::kJax);
  std::vector<std::int64_t> p_cpu(static_cast<std::size_t>(n_det * n_samp), 0);
  auto p_jax = p_cpu;
  k::cpu::pixels_healpix(quats, flags, 1, 16, true, ivals, n_det, n_samp,
                         p_cpu, cpu);
  k::jax::pixels_healpix(quats.data(), flags.data(), 1, 16, true, ivals,
                         n_det, n_samp, p_jax.data(), jax);
  for (std::size_t i = 0; i < p_cpu.size(); ++i) {
    EXPECT_EQ(p_cpu[i], -1);
    EXPECT_EQ(p_jax[i], -1);
  }
}

TEST(KernelEdge, ScanMapSingleComponent) {
  // nnz = 1 (intensity-only mapping).
  const std::int64_t n_det = 2, n_samp = 40, n_pix = 12 * 4 * 4;
  const std::vector<Interval> ivals{{0, 40}};
  std::vector<double> map(static_cast<std::size_t>(n_pix), 0.0);
  for (std::size_t i = 0; i < map.size(); ++i) map[i] = static_cast<double>(i);
  std::vector<std::int64_t> pixels(static_cast<std::size_t>(n_det * n_samp));
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<std::int64_t>(i % static_cast<std::size_t>(n_pix));
  }
  std::vector<double> ones(static_cast<std::size_t>(n_det * n_samp), 1.0);
  std::vector<double> s_cpu(ones.size(), 0.0), s_jax = s_cpu, s_omp = s_cpu;
  auto cpu = make_ctx(Backend::kCpu);
  auto omp = make_ctx(Backend::kOmpTarget);
  auto jax = make_ctx(Backend::kJax);
  k::cpu::scan_map(map, 1, pixels, ones, 1.0, ivals, n_det, n_samp, s_cpu,
                   cpu);
  k::omp::scan_map(map.data(), 1, pixels.data(), ones.data(), 1.0, ivals,
                   n_det, n_samp, s_omp.data(), omp, true);
  k::jax::scan_map(map.data(), n_pix, 1, pixels.data(), ones.data(), 1.0,
                   ivals, n_det, n_samp, s_jax.data(), jax);
  for (std::size_t i = 0; i < s_cpu.size(); ++i) {
    EXPECT_DOUBLE_EQ(s_cpu[i],
                     static_cast<double>(pixels[i]));
    EXPECT_DOUBLE_EQ(s_omp[i], s_cpu[i]);
    EXPECT_DOUBLE_EQ(s_jax[i], s_cpu[i]);
  }
}

class OffsetStepLengths : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(OffsetStepLengths, AllBackendsAgree) {
  // Sweep step lengths from 1 (one amplitude per sample) to larger than
  // the whole observation.
  const std::int64_t step = GetParam();
  const std::int64_t n_det = 2, n_samp = 96;
  const std::vector<Interval> ivals{{0, 50}, {60, 96}};
  const std::int64_t n_amp_det = (n_samp + step - 1) / step;
  std::mt19937 gen(static_cast<unsigned>(step));
  std::normal_distribution<double> nd(0.0, 1.0);
  std::vector<double> amps(static_cast<std::size_t>(n_det * n_amp_det));
  for (auto& v : amps) v = nd(gen);
  std::vector<double> sig(static_cast<std::size_t>(n_det * n_samp));
  for (auto& v : sig) v = nd(gen);

  auto cpu = make_ctx(Backend::kCpu);
  auto omp = make_ctx(Backend::kOmpTarget);
  auto jax = make_ctx(Backend::kJax);

  auto s_cpu = sig, s_omp = sig, s_jax = sig;
  k::cpu::template_offset_add_to_signal(step, amps, n_amp_det, ivals, n_det,
                                        n_samp, s_cpu, cpu);
  k::omp::template_offset_add_to_signal(step, amps.data(), n_amp_det, ivals,
                                        n_det, n_samp, s_omp.data(), omp,
                                        true);
  k::jax::template_offset_add_to_signal(step, amps.data(), n_amp_det, ivals,
                                        n_det, n_samp, s_jax.data(), jax);
  for (std::size_t i = 0; i < s_cpu.size(); ++i) {
    ASSERT_DOUBLE_EQ(s_cpu[i], s_omp[i]) << "step " << step;
    ASSERT_DOUBLE_EQ(s_cpu[i], s_jax[i]) << "step " << step;
  }

  std::vector<double> a_cpu(amps.size(), 0.0), a_omp = a_cpu, a_jax = a_cpu;
  k::cpu::template_offset_project_signal(step, sig, ivals, n_det, n_samp,
                                         a_cpu, n_amp_det, cpu);
  k::omp::template_offset_project_signal(step, sig.data(), ivals, n_det,
                                         n_samp, a_omp.data(), n_amp_det,
                                         omp, true);
  k::jax::template_offset_project_signal(step, sig.data(), ivals, n_det,
                                         n_samp, a_jax.data(), n_amp_det,
                                         jax);
  for (std::size_t i = 0; i < a_cpu.size(); ++i) {
    ASSERT_DOUBLE_EQ(a_cpu[i], a_omp[i]) << "step " << step;
    ASSERT_DOUBLE_EQ(a_cpu[i], a_jax[i]) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Steps, OffsetStepLengths,
                         ::testing::Values<std::int64_t>(1, 2, 7, 32, 96,
                                                         1000));

TEST(KernelEdge, SingleDetector) {
  const std::int64_t n_det = 1, n_samp = 128;
  const std::vector<Interval> ivals{{10, 100}};
  const auto quats = random_unit_quats(n_det * n_samp, 3);
  std::vector<double> hwp(static_cast<std::size_t>(n_samp), 0.5);
  const std::vector<double> eff{0.9};
  auto cpu = make_ctx(Backend::kCpu);
  auto jax = make_ctx(Backend::kJax);
  std::vector<double> w_cpu(static_cast<std::size_t>(3 * n_samp), 0.0);
  auto w_jax = w_cpu;
  k::cpu::stokes_weights_iqu(quats, hwp, eff, ivals, n_det, n_samp, w_cpu,
                             cpu);
  k::jax::stokes_weights_iqu(quats.data(), hwp.data(), eff.data(), ivals,
                             n_det, n_samp, w_jax.data(), jax);
  for (std::size_t i = 0; i < w_cpu.size(); ++i) {
    ASSERT_DOUBLE_EQ(w_cpu[i], w_jax[i]);
  }
}

TEST(KernelEdge, BuildNoiseWeightedIgnoresBadPixels) {
  // All pixels flagged/-1: the map must remain exactly zero everywhere.
  const std::int64_t n_det = 2, n_samp = 32, n_pix = 12 * 4 * 4, nnz = 3;
  const std::vector<Interval> ivals{{0, 32}};
  std::vector<std::int64_t> pixels(static_cast<std::size_t>(n_det * n_samp),
                                   -1);
  std::vector<double> weights(static_cast<std::size_t>(nnz * n_det * n_samp),
                              1.0);
  std::vector<double> signal(static_cast<std::size_t>(n_det * n_samp), 5.0);
  const std::vector<double> scale{1.0, 1.0};
  auto cpu = make_ctx(Backend::kCpu);
  auto jax = make_ctx(Backend::kJax);
  std::vector<double> z_cpu(static_cast<std::size_t>(n_pix * nnz), 0.0);
  auto z_jax = z_cpu;
  k::cpu::build_noise_weighted(pixels, weights, nnz, signal, scale, {}, 0,
                               ivals, n_det, n_samp, z_cpu, cpu);
  k::jax::build_noise_weighted(pixels.data(), weights.data(), n_pix, nnz,
                               signal.data(), scale.data(), nullptr, 0,
                               ivals, n_det, n_samp, z_jax.data(), jax);
  for (std::size_t i = 0; i < z_cpu.size(); ++i) {
    EXPECT_DOUBLE_EQ(z_cpu[i], 0.0);
    EXPECT_DOUBLE_EQ(z_jax[i], 0.0);
  }
}

TEST(KernelEdge, IntervalCoveringEverything) {
  // One interval spanning the full range: padding ratio exactly 1 and
  // every implementation touches every sample.
  const std::int64_t n_det = 2, n_samp = 64;
  const std::vector<Interval> ivals{{0, n_samp}};
  EXPECT_DOUBLE_EQ(toast::kernels::padding_ratio(ivals), 1.0);
  std::vector<double> s(static_cast<std::size_t>(n_det * n_samp), 2.0);
  const std::vector<double> w{0.5, 0.25};
  auto jax = make_ctx(Backend::kJax);
  k::jax::noise_weight(w.data(), ivals, n_det, n_samp, s.data(), jax);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(n_samp)], 0.5);
}

TEST(KernelEdge, ConflictRateHelper) {
  const auto estimate_conflict_rate = [](std::span<const std::int64_t> s) {
    return toast::accel::count_window_conflicts(s).rate();
  };
  // Distinct indices in each window: no conflicts.
  std::vector<std::int64_t> distinct(64);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    distinct[i] = static_cast<std::int64_t>(i);
  }
  EXPECT_DOUBLE_EQ(estimate_conflict_rate(distinct), 0.0);
  // Identical indices: (window-1)/window conflicts.
  std::vector<std::int64_t> same(64, 7);
  EXPECT_NEAR(estimate_conflict_rate(same), 31.0 / 32.0, 1e-12);
  // Negative (flagged) entries are ignored.
  std::vector<std::int64_t> flagged(64, -1);
  EXPECT_DOUBLE_EQ(estimate_conflict_rate(flagged), 0.0);
  const std::vector<std::int64_t> empty;
  EXPECT_DOUBLE_EQ(estimate_conflict_rate(empty), 0.0);
}

namespace {

// The earlier hash-map counter, kept as the oracle of the window scan.
double hash_map_conflict_rate(std::span<const std::int64_t> indices,
                              std::int64_t window = 32) {
  if (indices.empty()) {
    return 0.0;
  }
  double conflicts = 0.0;
  double valid = 0.0;
  std::unordered_map<std::int64_t, int> seen;
  const auto n = static_cast<std::int64_t>(indices.size());
  for (std::int64_t start = 0; start < n; start += window) {
    seen.clear();
    const std::int64_t stop = std::min(n, start + window);
    for (std::int64_t i = start; i < stop; ++i) {
      if (indices[i] < 0) {
        continue;
      }
      valid += 1.0;
      if (++seen[indices[i]] > 1) {
        conflicts += 1.0;
      }
    }
  }
  return valid > 0.0 ? conflicts / valid : 0.0;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Lanes in [-4, range): about 1 in 8 negative (flagged), runs of up to 40
// repeats of one target, the rest spread over `range` targets.
std::vector<std::int64_t> conflict_stream(std::uint64_t seed, std::size_t n,
                                          std::int64_t range) {
  std::uint64_t state = seed;
  std::vector<std::int64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::uint64_t r = splitmix64(state);
    auto lane = static_cast<std::int64_t>(
        r % static_cast<std::uint64_t>(range));
    if ((r >> 40) % 8 == 0) {
      lane = -1 - static_cast<std::int64_t>((r >> 50) % 4);
    }
    std::size_t run = 1;
    if ((r >> 44) % 5 == 0) run = 2 + static_cast<std::size_t>((r >> 52) % 39);
    for (std::size_t k = 0; k < run && out.size() < n; ++k) out.push_back(lane);
  }
  return out;
}

}  // namespace

TEST(KernelEdge, ConflictRateMatchesHashMapOracle) {
  const auto estimate_conflict_rate = [](std::span<const std::int64_t> s) {
    return toast::accel::count_window_conflicts(s).rate();
  };
  const std::size_t lengths[] = {1, 5, 31, 32, 33, 63, 100, 257, 1000, 4099};
  const std::int64_t ranges[] = {1, 3, 17, 40, 1000, 1 << 20};
  std::uint64_t seed = 1;
  for (const auto n : lengths) {
    for (const auto range : ranges) {
      const auto stream = conflict_stream(seed++, n, range);
      EXPECT_EQ(estimate_conflict_rate(stream),
                hash_map_conflict_rate(stream))
          << "n=" << n << " range=" << range;
    }
  }
}

TEST(KernelEdge, BoundedWindowConflictsMatchHashMapOracle) {
  // The XLA scatter lowering drops lanes >= the base length too; the
  // oracle sees them as flagged.
  const std::size_t lengths[] = {1, 31, 32, 33, 95, 256, 1001};
  const std::int64_t ranges[] = {4, 40, 300};
  std::uint64_t seed = 100;
  for (const auto n : lengths) {
    for (const auto range : ranges) {
      const auto stream = conflict_stream(seed++, n, range);
      for (const std::int64_t bound : {range / 2, range, range + 1}) {
        std::vector<std::int64_t> masked = stream;
        std::int64_t in_range = 0;
        for (auto& lane : masked) {
          if (lane >= bound) lane = -1;
          if (lane >= 0) ++in_range;
        }
        const auto counted =
            toast::accel::count_window_conflicts(stream, bound);
        EXPECT_EQ(counted.valid, in_range)
            << "n=" << n << " range=" << range << " bound=" << bound;
        EXPECT_EQ(counted.rate(), hash_map_conflict_rate(masked))
            << "n=" << n << " range=" << range << " bound=" << bound;
      }
    }
  }
}
