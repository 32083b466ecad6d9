// Tests of the satellite simulation workload generator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "sim/input_cache.hpp"
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

using Kind = sim::InputCache::Kind;

// Hits and misses of one kind since construction: each test reads the
// process-wide cache's counts before and after, and uses keys (noise
// seeds, nsides, sample counts) no other test uses.
struct CountsSince {
  Kind kind;
  sim::InputCache::Counts before = sim::input_cache().stats()[kind];
  std::size_t hits() const {
    return sim::input_cache().stats()[kind].hits - before.hits;
  }
  std::size_t misses() const {
    return sim::input_cache().stats()[kind].misses - before.misses;
  }
};

// Run a sky + noise pair over one observation, as the benchmark pipeline
// does; both read the process-wide input cache.
void run_sim(core::Observation& ob, std::uint64_t seed,
             std::int64_t nside = 8) {
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SynthSkyOp sky(nside, 3);
  sim::SimNoiseOp noise(seed);
  sky.ensure_fields(ob);
  sky.exec(ob, ctx, nullptr, core::Backend::kCpu);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
}

// The reference every cached input must reproduce bit for bit: the sky
// map and each detector's noise computed by the pure functions, with no
// cache, the noise added to whatever signal `ob` already holds.
void run_uncached(core::Observation& ob, std::uint64_t seed,
                  std::int64_t nside = 8) {
  if (!ob.has_field(core::fields::kSkyMap)) {
    const auto map = sim::synthetic_sky(nside, 3);
    auto& f = ob.create_buffer(core::fields::kSkyMap, core::FieldType::kF64,
                               static_cast<std::int64_t>(map.size()));
    std::copy(map.begin(), map.end(), f.f64().begin());
  }
  sim::SimNoiseOp(seed).ensure_fields(ob);
  const auto& fp = ob.focalplane();
  for (std::int64_t det = 0; det < ob.n_detectors(); ++det) {
    const auto d = static_cast<std::size_t>(det);
    const auto addend = sim::noise_addend(
        {seed, det, ob.n_samples(), fp.sample_rate, fp.net[d], fp.fknee[d],
         fp.fmin[d], fp.alpha[d]});
    auto signal = ob.det_f64(core::fields::kSignal, det);
    for (std::size_t s = 0; s < addend.size(); ++s) {
      signal[s] += addend[s];
    }
  }
}

core::Observation memo_obs(const core::Focalplane& fp, std::int64_t n_samp,
                           std::uint64_t seed,
                           const sim::ScanParams& params = {}) {
  return sim::simulate_satellite("memo" + std::to_string(seed), fp, n_samp,
                                 params, seed);
}

// Times, boresight and HWP angle of `ob`, in satellite_scan's layout.
std::vector<std::uint64_t> scan_bits(const core::Observation& ob) {
  std::vector<std::uint64_t> out;
  for (const char* name : {core::fields::kTimes, core::fields::kBoresight,
                           core::fields::kHwpAngle}) {
    const auto b = bits(ob.field(name).f64());
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

}  // namespace

TEST(SimMemo, ObservationsOfOneJobMatchUncachedInputs) {
  const std::uint64_t seed = 4101;
  const auto fp = sim::hex_focalplane(4, 37.0);
  const CountsSince sky{Kind::kSky};
  const CountsSince noise{Kind::kNoise};
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto ob = memo_obs(fp, 1000, 10 + i);
    auto ref = memo_obs(fp, 1000, 10 + i);
    run_sim(ob, seed, 4);
    run_uncached(ref, seed, 4);
    EXPECT_EQ(bits(ob.field(core::fields::kSkyMap).f64()),
              bits(ref.field(core::fields::kSkyMap).f64()))
        << "observation " << i;
    EXPECT_EQ(signal_bits(ob), signal_bits(ref)) << "observation " << i;
  }
  // One map and one realization per detector, reused by the three later
  // observations.
  EXPECT_EQ(sky.misses(), 1u);
  EXPECT_EQ(sky.hits(), 3u);
  EXPECT_EQ(noise.misses(), 4u);
  EXPECT_EQ(noise.hits(), 12u);
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
  std::uint64_t seed = 4201;
  for (const auto& c : changes) {
    ++seed;
    auto first = memo_obs(fp, 1000, 20);
    run_sim(first, seed);
    auto fp2 = fp;
    (fp2.*c.param)[2] = c.value;
    auto ob = memo_obs(fp2, 1000, 21);
    auto ref = memo_obs(fp2, 1000, 21);
    const CountsSince noise{Kind::kNoise};
    run_sim(ob, seed);
    run_uncached(ref, seed);
    EXPECT_EQ(noise.misses(), 1u) << c.what;
    EXPECT_EQ(noise.hits(), 3u) << c.what;
    EXPECT_EQ(signal_bits(ob), signal_bits(ref)) << c.what;
    EXPECT_NE(bits(ob.det_f64(core::fields::kSignal, 2)),
              bits(first.det_f64(core::fields::kSignal, 2)))
        << c.what << " does not change the noise";
  }
}

TEST(SimMemo, NegativeZeroFminDoesNotAlias) {
  const std::uint64_t seed = 4301;
  auto fp = sim::hex_focalplane(2, 37.0);
  fp.fmin[1] = 0.0;
  const CountsSince noise{Kind::kNoise};
  auto first = memo_obs(fp, 512, 30);
  run_sim(first, seed);
  ASSERT_EQ(noise.misses(), 2u);
  fp.fmin[1] = -0.0;
  auto ob = memo_obs(fp, 512, 31);
  auto ref = memo_obs(fp, 512, 31);
  run_sim(ob, seed);
  run_uncached(ref, seed);
  // Equal as doubles, different bit patterns: the key compares bits.
  EXPECT_EQ(noise.misses(), 3u);
  EXPECT_EQ(noise.hits(), 1u);
  EXPECT_EQ(signal_bits(ob), signal_bits(ref));
}

TEST(SimMemo, SampleCountOrRateChangeRecomputes) {
  const std::uint64_t seed = 4401;
  const auto fp = sim::hex_focalplane(3, 37.0);
  const CountsSince noise{Kind::kNoise};
  auto first = memo_obs(fp, 1000, 40);
  run_sim(first, seed);
  ASSERT_EQ(noise.misses(), 3u);

  // Same FFT length (1024), different sample count.
  auto shorter = memo_obs(fp, 999, 41);
  auto shorter_ref = memo_obs(fp, 999, 41);
  run_sim(shorter, seed);
  run_uncached(shorter_ref, seed);
  EXPECT_EQ(noise.misses(), 6u);
  EXPECT_EQ(signal_bits(shorter), signal_bits(shorter_ref));

  auto fp_rate = fp;
  fp_rate.sample_rate = 19.0;
  auto slower = memo_obs(fp_rate, 999, 42);
  auto slower_ref = memo_obs(fp_rate, 999, 42);
  run_sim(slower, seed);
  run_uncached(slower_ref, seed);
  EXPECT_EQ(noise.misses(), 9u);
  EXPECT_EQ(noise.hits(), 0u);
  EXPECT_EQ(signal_bits(slower), signal_bits(slower_ref));
}

TEST(SimMemo, KeptNoiseIsAddedToExistingSignal) {
  const std::uint64_t seed = 4501;
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto first = memo_obs(fp, 700, 50);
  run_sim(first, seed);

  auto prefill = [](core::Observation& ob) {
    sim::SimNoiseOp().ensure_fields(ob);
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
  const CountsSince noise{Kind::kNoise};
  run_sim(ob, seed);
  run_uncached(ref, seed);
  EXPECT_EQ(noise.misses(), 0u);  // reused, not recomputed
  EXPECT_EQ(noise.hits(), 2u);
  EXPECT_EQ(signal_bits(ob), signal_bits(ref));
  EXPECT_NE(signal_bits(ob), signal_bits(first));
}

TEST(SimMemo, ExistingSkyMapIsKept) {
  const std::uint64_t seed = 4601;
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto first = memo_obs(fp, 300, 60);
  run_sim(first, seed);

  auto ob = memo_obs(fp, 300, 61);
  auto& own = ob.create_buffer(core::fields::kSkyMap, core::FieldType::kF64,
                               12 * 8 * 8 * 3);
  auto own_span = own.f64();
  for (std::size_t i = 0; i < own_span.size(); ++i) {
    own_span[i] = -static_cast<double>(i);
  }
  const auto before = bits(own_span);
  const CountsSince sky{Kind::kSky};
  run_sim(ob, seed);
  EXPECT_EQ(bits(ob.field(core::fields::kSkyMap).f64()), before);
  EXPECT_NE(bits(first.field(core::fields::kSkyMap).f64()), before);
  EXPECT_EQ(sky.hits() + sky.misses(), 0u);  // the cache is not asked
}

TEST(SimMemo, EachScanInputMissesOnItsOwn) {
  const std::int64_t n_samp = 4701;
  const auto fp = sim::hex_focalplane(1, 37.0);
  const sim::ScanParams base;
  const CountsSince scan{Kind::kScan};
  auto first = memo_obs(fp, n_samp, 70, base);
  ASSERT_EQ(scan.misses(), 1u);
  EXPECT_EQ(scan_bits(first),
            bits(sim::satellite_scan(n_samp, base)));

  // Another job seed redraws flags and intervals but hits the scan.
  auto again = memo_obs(fp, n_samp, 71, base);
  EXPECT_EQ(scan.hits(), 1u);
  EXPECT_EQ(scan_bits(again), scan_bits(first));

  struct Change {
    const char* what;
    double sim::ScanParams::*param;
  };
  const Change changes[] = {
      {"sample_rate", &sim::ScanParams::sample_rate},
      {"spin_period", &sim::ScanParams::spin_period},
      {"prec_period", &sim::ScanParams::prec_period},
      {"spin_angle_deg", &sim::ScanParams::spin_angle_deg},
      {"prec_angle_deg", &sim::ScanParams::prec_angle_deg},
      {"interval_gap_fraction", &sim::ScanParams::interval_gap_fraction},
      {"interval_jitter_fraction",
       &sim::ScanParams::interval_jitter_fraction},
  };
  std::size_t misses = 1;
  for (const auto& c : changes) {
    auto params = base;
    params.*c.param *= 1.25;
    auto ob = memo_obs(fp, n_samp, 72, params);
    EXPECT_EQ(scan.misses(), ++misses) << c.what;
    EXPECT_EQ(scan_bits(ob), bits(sim::satellite_scan(n_samp, params)))
        << c.what;
  }
  auto longer = memo_obs(fp, n_samp + 1, 73, base);
  EXPECT_EQ(scan.misses(), ++misses);
  EXPECT_EQ(scan_bits(longer), bits(sim::satellite_scan(n_samp + 1, base)));
  EXPECT_EQ(scan.hits(), 1u);
}

TEST(SimMemo, EvictionKeepsValuesBitIdentical) {
  // A cache of its own, with room for two 1000-sample addends.
  sim::InputCache cache(2 * 1000 * sizeof(double) + 8);
  const auto fp = sim::hex_focalplane(3, 37.0);
  const auto inputs = [&fp](std::int64_t det, std::int64_t n_samp) {
    const auto d = static_cast<std::size_t>(det);
    return sim::NoiseInputs{4801, det, n_samp, fp.sample_rate,
                            fp.net[d], fp.fknee[d], fp.fmin[d], fp.alpha[d]};
  };
  // Each lookup must return the uncached value, kept or not.
  const auto check = [&cache](const sim::NoiseInputs& in) {
    const auto value =
        cache.get(Kind::kNoise, in, [&in] { return sim::noise_addend(in); });
    EXPECT_EQ(bits(*value), bits(sim::noise_addend(in)));
  };
  for (std::int64_t det = 0; det < 3; ++det) {
    check(inputs(det, 1000));
  }
  EXPECT_EQ(cache.stats().evictions, 1u);  // detector 0 made room for 2
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().held_bytes, 2 * 1000 * sizeof(double));
  // Detector 0 again: recomputed, and detector 1 (now the least recently
  // used) makes room.  Detector 2 is still kept.
  check(inputs(0, 1000));
  EXPECT_EQ(cache.stats()[Kind::kNoise].misses, 4u);
  check(inputs(2, 1000));
  EXPECT_EQ(cache.stats()[Kind::kNoise].hits, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);

  // Larger than the budget: returned, not kept, nothing evicted.
  check(inputs(1, 3000));
  check(inputs(1, 3000));
  EXPECT_EQ(cache.stats()[Kind::kNoise].misses, 6u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SimMemo, TwoThreadsMatchOneThread) {
  // Each thread simulates its own job with its own ExecContext: two
  // observations whose keys both threads share and one whose sky, noise
  // and scan keys are its thread's own.
  struct Products {
    std::vector<std::vector<std::uint64_t>> scan, sky, signal;
  };
  const auto job = [](std::uint64_t own_seed, std::int64_t own_samp,
                       std::int64_t own_nside) {
    Products p;
    const struct {
      std::uint64_t seed;
      std::int64_t n_det, n_samp, nside;
    } obs[] = {{4901, 4, 1000, 8},
               {4901, 4, 1000, 8},
               {own_seed, 3, own_samp, own_nside}};
    for (const auto& o : obs) {
      auto ob = memo_obs(sim::hex_focalplane(o.n_det, 37.0), o.n_samp, 80);
      run_sim(ob, o.seed, o.nside);
      p.scan.push_back(scan_bits(ob));
      p.sky.push_back(bits(ob.field(core::fields::kSkyMap).f64()));
      p.signal.push_back(signal_bits(ob));
    }
    return p;
  };
  Products first, second;
  std::thread a([&] { first = job(4902, 902, 16); });
  std::thread b([&] { second = job(4903, 903, 32); });
  a.join();
  b.join();
  const Products first_alone = job(4902, 902, 16);
  const Products second_alone = job(4903, 903, 32);
  EXPECT_EQ(first.scan, first_alone.scan);
  EXPECT_EQ(first.sky, first_alone.sky);
  EXPECT_EQ(first.signal, first_alone.signal);
  EXPECT_EQ(second.scan, second_alone.scan);
  EXPECT_EQ(second.sky, second_alone.sky);
  EXPECT_EQ(second.signal, second_alone.signal);

  // And the one-thread products are the uncached ones.
  auto shared = memo_obs(sim::hex_focalplane(4, 37.0), 1000, 80);
  run_uncached(shared, 4901);
  EXPECT_EQ(first_alone.scan[0], bits(sim::satellite_scan(1000)));
  EXPECT_EQ(first_alone.sky[0],
            bits(shared.field(core::fields::kSkyMap).f64()));
  EXPECT_EQ(first_alone.signal[0], signal_bits(shared));
  auto own = memo_obs(sim::hex_focalplane(3, 37.0), 903, 80);
  run_uncached(own, 4903, 32);
  EXPECT_EQ(second_alone.scan[2], bits(sim::satellite_scan(903)));
  EXPECT_EQ(second_alone.sky[2],
            bits(own.field(core::fields::kSkyMap).f64()));
  EXPECT_EQ(second_alone.signal[2], signal_bits(own));
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
