// Tests of the satellite simulation workload generator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "core/context.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace core = toast::core;
namespace sim = toast::sim;

TEST(Focalplane, HexLayoutProperties) {
  const auto fp = sim::hex_focalplane(64, 37.0);
  EXPECT_EQ(fp.n_detectors(), 64);
  EXPECT_EQ(fp.names.size(), 64u);
  EXPECT_EQ(fp.net.size(), 64u);
  // All detector offsets are unit quaternions.
  for (const auto& q : fp.quats) {
    EXPECT_NEAR(toast::qarray::norm(q), 1.0, 1e-12);
  }
  // Detectors come in pairs with orthogonal polarization.
  for (int d = 0; d + 1 < 64; d += 2) {
    const double delta = std::abs(fp.pol_angles[static_cast<std::size_t>(d + 1)] -
                                  fp.pol_angles[static_cast<std::size_t>(d)]);
    EXPECT_NEAR(delta, M_PI / 2.0, 1e-12);
  }
}

TEST(Focalplane, OddCountsWork) {
  EXPECT_EQ(sim::hex_focalplane(1, 37.0).n_detectors(), 1);
  EXPECT_EQ(sim::hex_focalplane(7, 37.0).n_detectors(), 7);
  EXPECT_EQ(sim::hex_focalplane(2048, 37.0).n_detectors(), 2048);
}

TEST(Satellite, ObservationStructure) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  const auto ob = sim::simulate_satellite("test", fp, 4096, {}, 1);
  EXPECT_EQ(ob.n_samples(), 4096);
  EXPECT_EQ(ob.n_detectors(), 4);
  EXPECT_TRUE(ob.has_field(core::fields::kBoresight));
  EXPECT_TRUE(ob.has_field(core::fields::kHwpAngle));
  EXPECT_TRUE(ob.has_field(core::fields::kTimes));
  EXPECT_TRUE(ob.has_field(core::fields::kSharedFlags));
  EXPECT_FALSE(ob.intervals().empty());
}

TEST(Satellite, BoresightQuaternionsAreUnit) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  const auto ob = sim::simulate_satellite("test", fp, 2048, {}, 2);
  const auto bore = ob.field(core::fields::kBoresight).f64();
  for (std::int64_t s = 0; s < ob.n_samples(); s += 17) {
    const std::size_t off = static_cast<std::size_t>(4 * s);
    const double n = std::sqrt(bore[off] * bore[off] +
                               bore[off + 1] * bore[off + 1] +
                               bore[off + 2] * bore[off + 2] +
                               bore[off + 3] * bore[off + 3]);
    EXPECT_NEAR(n, 1.0, 1e-12);
  }
}

TEST(Satellite, ScanCoversSkyBand) {
  // The precession+spin motion must sweep a wide band of the sphere, not
  // stare at one spot.
  const auto fp = sim::hex_focalplane(1, 37.0);
  sim::ScanParams params;
  params.spin_period = 60.0;
  params.prec_period = 600.0;
  const auto ob = sim::simulate_satellite("test", fp, 16384, params, 3);
  const auto bore = ob.field(core::fields::kBoresight).f64();
  double zmin = 1.0, zmax = -1.0;
  for (std::int64_t s = 0; s < ob.n_samples(); ++s) {
    const toast::qarray::Quat q{
        bore[static_cast<std::size_t>(4 * s)],
        bore[static_cast<std::size_t>(4 * s + 1)],
        bore[static_cast<std::size_t>(4 * s + 2)],
        bore[static_cast<std::size_t>(4 * s + 3)]};
    const auto dir = toast::qarray::rotate(q, {0.0, 0.0, 1.0});
    zmin = std::min(zmin, dir[2]);
    zmax = std::max(zmax, dir[2]);
  }
  EXPECT_LT(zmin, -0.3);
  EXPECT_GT(zmax, 0.3);
}

TEST(Satellite, IntervalsVaryTileAndStayInRange) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  sim::ScanParams params;
  params.spin_period = 20.0;  // many intervals
  const auto ob = sim::simulate_satellite("test", fp, 8192, params, 4);
  const auto& ivals = ob.intervals();
  ASSERT_GT(ivals.size(), 4u);
  std::set<std::int64_t> lengths;
  std::int64_t prev_stop = 0;
  for (const auto& v : ivals) {
    EXPECT_GE(v.start, prev_stop);
    EXPECT_GT(v.stop, v.start);
    EXPECT_LE(v.stop, ob.n_samples());
    lengths.insert(v.length());
    prev_stop = v.stop;
  }
  // Jitter produces genuinely varying lengths (the padding stressor).
  EXPECT_GT(lengths.size(), 2u);
}

TEST(Satellite, DeterministicPerSeed) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  const auto a = sim::simulate_satellite("a", fp, 1024, {}, 42);
  const auto b = sim::simulate_satellite("b", fp, 1024, {}, 42);
  const auto c = sim::simulate_satellite("c", fp, 1024, {}, 43);
  EXPECT_EQ(a.intervals().size(), b.intervals().size());
  const auto fa = a.field(core::fields::kSharedFlags).u8();
  const auto fb = b.field(core::fields::kSharedFlags).u8();
  const auto fc = c.field(core::fields::kSharedFlags).u8();
  EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin()));
  EXPECT_FALSE(std::equal(fa.begin(), fa.end(), fc.begin()));
}

TEST(SyntheticSky, SmoothAndFinite) {
  const auto map = sim::synthetic_sky(16, 3);
  ASSERT_EQ(map.size(), 12u * 16 * 16 * 3);
  double power = 0.0;
  for (const double v : map) {
    ASSERT_TRUE(std::isfinite(v));
    power += v * v;
  }
  EXPECT_GT(power, 0.0);
  // Reproducible for the same seed.
  EXPECT_EQ(map, sim::synthetic_sky(16, 3));
  EXPECT_NE(map, sim::synthetic_sky(16, 3, 99));
}

TEST(SimNoise, NoiseHasOneOverFCharacter) {
  // Strong 1/f: knee well inside the sampled band.
  const auto fp = sim::hex_focalplane(2, 37.0, 10.0, 50.0e-6, 2.0, 1.5);
  auto ob = sim::simulate_satellite("test", fp, 16384, {}, 5);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SimNoiseOp noise(777);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);

  const auto signal = ob.det_f64(core::fields::kSignal, 0);
  // Nonzero and finite.
  double var = 0.0, mean = 0.0;
  for (const double v : signal) {
    ASSERT_TRUE(std::isfinite(v));
    mean += v;
  }
  mean /= static_cast<double>(signal.size());
  for (const double v : signal) var += (v - mean) * (v - mean);
  var /= static_cast<double>(signal.size());
  EXPECT_GT(var, 0.0);

  // 1/f character: power in long-timescale differences exceeds white
  // expectation.  Compare lag-1 and lag-1024 structure functions: for
  // white noise they are equal; 1/f noise has more large-scale power.
  double d1 = 0.0, dlong = 0.0;
  const std::size_t n = signal.size();
  for (std::size_t i = 0; i + 1024 < n; ++i) {
    d1 += (signal[i + 1] - signal[i]) * (signal[i + 1] - signal[i]);
    dlong += (signal[i + 1024] - signal[i]) * (signal[i + 1024] - signal[i]);
  }
  EXPECT_GT(dlong, 1.5 * d1);
}

TEST(SimNoise, DetectorsAreIndependent) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto ob = sim::simulate_satellite("test", fp, 4096, {}, 6);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SimNoiseOp noise(888);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
  const auto s0 = ob.det_f64(core::fields::kSignal, 0);
  const auto s1 = ob.det_f64(core::fields::kSignal, 1);
  double dot = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < s0.size(); ++i) {
    dot += s0[i] * s1[i];
    n0 += s0[i] * s0[i];
    n1 += s1[i] * s1[i];
  }
  EXPECT_LT(std::abs(dot) / std::sqrt(n0 * n1), 0.2);
}

namespace {

std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

std::vector<std::uint64_t> signal_bits(core::Observation& ob) {
  std::vector<std::uint64_t> out;
  for (std::int64_t det = 0; det < ob.n_detectors(); ++det) {
    const auto b = bits(ob.det_f64(core::fields::kSignal, det));
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

// Run a sky + noise pair over one observation, as the benchmark pipeline
// does.
void run_sim(sim::SynthSkyOp& sky, sim::SimNoiseOp& noise,
             core::Observation& ob) {
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sky.ensure_fields(ob);
  sky.exec(ob, ctx, nullptr, core::Backend::kCpu);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
}

// The same observation run through fresh op instances: the reference
// every kept map and noise realization must reproduce bit for bit.
void run_fresh(core::Observation& ob) {
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  run_sim(sky, noise, ob);
}

core::Observation memo_obs(const core::Focalplane& fp, std::int64_t n_samp,
                           std::uint64_t seed) {
  return sim::simulate_satellite("memo" + std::to_string(seed), fp, n_samp,
                                 {}, seed);
}

}  // namespace

TEST(SimMemo, ObservationsOfOneJobMatchFreshOps) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto ob = memo_obs(fp, 1000, 10 + i);
    auto ref = memo_obs(fp, 1000, 10 + i);
    run_sim(sky, noise, ob);
    run_fresh(ref);
    EXPECT_EQ(bits(ob.field(core::fields::kSkyMap).f64()),
              bits(ref.field(core::fields::kSkyMap).f64()))
        << "observation " << i;
    EXPECT_EQ(signal_bits(ob), signal_bits(ref)) << "observation " << i;
  }
  // One realization per detector, reused by the three later observations.
  EXPECT_EQ(noise.realizations(), 4);
}

TEST(SimMemo, ChangedNoiseParameterRecomputesThatDetectorOnly) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  struct Change {
    const char* what;
    std::vector<double> core::Focalplane::*param;
    double value;
  };
  const Change changes[] = {
      {"fknee", &core::Focalplane::fknee, 0.3},
      {"net", &core::Focalplane::net, 70.0e-6},
      {"alpha", &core::Focalplane::alpha, 1.7},
      {"fmin", &core::Focalplane::fmin, 0.1},
  };
  for (const auto& c : changes) {
    sim::SynthSkyOp sky(8, 3);
    sim::SimNoiseOp noise(4242);
    auto first = memo_obs(fp, 1000, 20);
    run_sim(sky, noise, first);
    auto fp2 = fp;
    (fp2.*c.param)[2] = c.value;
    auto ob = memo_obs(fp2, 1000, 21);
    auto ref = memo_obs(fp2, 1000, 21);
    run_sim(sky, noise, ob);
    run_fresh(ref);
    EXPECT_EQ(noise.realizations(), 5) << c.what;
    EXPECT_EQ(signal_bits(ob), signal_bits(ref)) << c.what;
    EXPECT_NE(bits(ob.det_f64(core::fields::kSignal, 2)),
              bits(first.det_f64(core::fields::kSignal, 2)))
        << c.what << " does not change the noise";
  }
}

TEST(SimMemo, NegativeZeroFminDoesNotAlias) {
  auto fp = sim::hex_focalplane(2, 37.0);
  fp.fmin[1] = 0.0;
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  auto first = memo_obs(fp, 512, 30);
  run_sim(sky, noise, first);
  ASSERT_EQ(noise.realizations(), 2);
  fp.fmin[1] = -0.0;
  auto ob = memo_obs(fp, 512, 31);
  auto ref = memo_obs(fp, 512, 31);
  run_sim(sky, noise, ob);
  run_fresh(ref);
  // Equal as doubles, different bit patterns: the key compares bits.
  EXPECT_EQ(noise.realizations(), 3);
  EXPECT_EQ(signal_bits(ob), signal_bits(ref));
}

TEST(SimMemo, SampleCountOrRateChangeRecomputes) {
  const auto fp = sim::hex_focalplane(3, 37.0);
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  auto first = memo_obs(fp, 1000, 40);
  run_sim(sky, noise, first);
  ASSERT_EQ(noise.realizations(), 3);

  // Same FFT length (1024), different sample count.
  auto shorter = memo_obs(fp, 999, 41);
  auto shorter_ref = memo_obs(fp, 999, 41);
  run_sim(sky, noise, shorter);
  run_fresh(shorter_ref);
  EXPECT_EQ(noise.realizations(), 6);
  EXPECT_EQ(signal_bits(shorter), signal_bits(shorter_ref));

  auto fp_rate = fp;
  fp_rate.sample_rate = 19.0;
  auto slower = memo_obs(fp_rate, 999, 42);
  auto slower_ref = memo_obs(fp_rate, 999, 42);
  run_sim(sky, noise, slower);
  run_fresh(slower_ref);
  EXPECT_EQ(noise.realizations(), 9);
  EXPECT_EQ(signal_bits(slower), signal_bits(slower_ref));
}

TEST(SimMemo, KeptNoiseIsAddedToExistingSignal) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  auto first = memo_obs(fp, 700, 50);
  run_sim(sky, noise, first);

  auto prefill = [](core::Observation& ob) {
    sim::SimNoiseOp(4242).ensure_fields(ob);
    for (std::int64_t det = 0; det < ob.n_detectors(); ++det) {
      auto sig = ob.det_f64(core::fields::kSignal, det);
      for (std::size_t s = 0; s < sig.size(); ++s) {
        sig[s] = 1.0e-3 * static_cast<double>(s % 13) -
                 2.0e-4 * static_cast<double>(det);
      }
    }
  };
  auto ob = memo_obs(fp, 700, 51);
  auto ref = memo_obs(fp, 700, 51);
  prefill(ob);
  prefill(ref);
  run_sim(sky, noise, ob);
  run_fresh(ref);
  EXPECT_EQ(noise.realizations(), 2);  // reused, not recomputed
  EXPECT_EQ(signal_bits(ob), signal_bits(ref));
  EXPECT_NE(signal_bits(ob), signal_bits(first));
}

TEST(SimMemo, ExistingSkyMapIsKept) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  sim::SynthSkyOp sky(8, 3);
  sim::SimNoiseOp noise(4242);
  auto first = memo_obs(fp, 300, 60);
  run_sim(sky, noise, first);

  auto ob = memo_obs(fp, 300, 61);
  auto& own = ob.create_buffer(core::fields::kSkyMap, core::FieldType::kF64,
                               12 * 8 * 8 * 3);
  auto own_span = own.f64();
  for (std::size_t i = 0; i < own_span.size(); ++i) {
    own_span[i] = -static_cast<double>(i);
  }
  const auto before = bits(own_span);
  run_sim(sky, noise, ob);
  EXPECT_EQ(bits(ob.field(core::fields::kSkyMap).f64()), before);
  EXPECT_NE(bits(first.field(core::fields::kSkyMap).f64()), before);
}

TEST(Workflow, BenchmarkPipelineComposition) {
  sim::WorkflowConfig cfg;
  cfg.map_iterations = 3;
  const auto pipeline = sim::make_benchmark_pipeline(cfg);
  // 2 sim + 4 pointing/scan + 2 unported + 3*4 mapmaking + 2 unported.
  EXPECT_EQ(pipeline.operators().size(), 2u + 4u + 2u + 12u + 2u);
  cfg.include_unported = false;
  EXPECT_EQ(sim::make_benchmark_pipeline(cfg).operators().size(),
            2u + 4u + 12u);
  EXPECT_EQ(sim::make_pointing_pipeline(cfg).operators().size(), 3u);
  EXPECT_EQ(sim::make_mapmaking_pipeline(cfg).operators().size(), 5u);
}
