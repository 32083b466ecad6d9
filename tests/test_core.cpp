// Tests for the framework core: observation data model, exec context
// dispatch, and the AccelStore device-copy semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "accel/work.hpp"
#include "core/accel_store.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"

namespace core = toast::core;
using core::Backend;
using core::FieldType;
using core::Observation;

namespace {

core::Focalplane tiny_fp(int n_det = 2) {
  core::Focalplane fp;
  for (int d = 0; d < n_det; ++d) {
    fp.quats.push_back({0.0, 0.0, 0.0, 1.0});
    fp.names.push_back(std::string("d").append(std::to_string(d)));
    fp.pol_angles.push_back(0.0);
    fp.pol_eff.push_back(1.0);
    fp.net.push_back(1.0);
    fp.fknee.push_back(0.1);
    fp.fmin.push_back(1e-5);
    fp.alpha.push_back(1.0);
  }
  return fp;
}

// A pixel-like stream: short runs of repeated targets over a few dozen
// pixels, about 1 lane in 13 flagged (negative).
std::vector<std::int64_t> pixel_stream(std::size_t n, std::int64_t seed) {
  std::vector<std::int64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::int64_t>(i);
    out[i] = k % 13 == 0 ? -1 : (k / 3 * 7 + seed) % 37;
  }
  return out;
}

double scanned_rate(std::span<const std::int64_t> lanes) {
  return toast::accel::count_window_conflicts(lanes).rate();
}

}  // namespace

TEST(Observation, FieldLifecycle) {
  Observation ob("test", tiny_fp(), 100);
  EXPECT_FALSE(ob.has_field("signal"));
  auto& f = ob.create_detdata("signal", FieldType::kF64);
  EXPECT_TRUE(ob.has_field("signal"));
  EXPECT_EQ(f.count(), 200);
  EXPECT_TRUE(f.scalable());
  EXPECT_EQ(f.byte_size(), 1600u);
  ob.remove_field("signal");
  EXPECT_FALSE(ob.has_field("signal"));
  EXPECT_THROW(ob.field("signal"), std::out_of_range);
}

TEST(Observation, SharedAndBufferFields) {
  Observation ob("test", tiny_fp(), 64);
  auto& bore = ob.create_shared("boresight", FieldType::kF64, 4);
  EXPECT_EQ(bore.count(), 256);
  auto& map = ob.create_buffer("zmap", FieldType::kF64, 1000);
  EXPECT_FALSE(map.scalable());
  auto& amps = ob.create_buffer("amps", FieldType::kF64, 10, true);
  EXPECT_TRUE(amps.scalable());
}

TEST(Observation, DetSpanAddressing) {
  Observation ob("test", tiny_fp(2), 8);
  ob.create_detdata("x", FieldType::kF64, 1);
  auto d0 = ob.det_f64("x", 0);
  auto d1 = ob.det_f64("x", 1);
  EXPECT_EQ(d0.size(), 8u);
  d1[3] = 7.0;
  EXPECT_DOUBLE_EQ(ob.field("x").f64()[11], 7.0);
  EXPECT_DOUBLE_EQ(d0[3], 0.0);
}

TEST(Observation, MaxIntervalLength) {
  Observation ob("test", tiny_fp(), 100);
  EXPECT_EQ(ob.max_interval_length(), 0);
  ob.intervals() = {{0, 10}, {20, 55}, {60, 70}};
  EXPECT_EQ(ob.max_interval_length(), 35);
}

TEST(Observation, ByteSizeSumsFields) {
  Observation ob("test", tiny_fp(2), 10);
  ob.create_detdata("a", FieldType::kF64);       // 2*10*8 = 160
  ob.create_shared("b", FieldType::kU8);         // 10
  ob.create_buffer("c", FieldType::kI64, 5);     // 40
  EXPECT_GE(ob.byte_size(), 210u);
}

TEST(ExecContext, DispatchOverrides) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kCpu;
  core::ExecContext ctx(cfg);
  EXPECT_EQ(ctx.backend_for("pixels_healpix"), Backend::kCpu);
  ctx.set_kernel_backend("pixels_healpix", Backend::kJax);
  EXPECT_EQ(ctx.backend_for("pixels_healpix"), Backend::kJax);
  EXPECT_EQ(ctx.backend_for("scan_map"), Backend::kCpu);
  ctx.clear_kernel_backends();
  EXPECT_EQ(ctx.backend_for("pixels_healpix"), Backend::kCpu);
}

TEST(ExecContext, JaxCpuModeConfigured) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kJaxCpu;
  cfg.threads = 4;
  core::ExecContext ctx(cfg);
  EXPECT_TRUE(ctx.jax().cpu_backend());
  EXPECT_FALSE(core::is_accel(Backend::kJaxCpu));
}

TEST(ExecContext, ChargingAdvancesClockAndLog) {
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  toast::accel::WorkEstimate w;
  w.flops = 1e9;
  w.bytes_read = 1e9;
  w.launches = 1;
  w.parallel_items = 1e6;
  ctx.charge_host_kernel("k", w);
  EXPECT_GT(ctx.elapsed(), 0.0);
  EXPECT_GT(ctx.log().seconds("k"), 0.0);
  const double t1 = ctx.elapsed();
  ctx.charge_serial("s", 1.5);
  EXPECT_DOUBLE_EQ(ctx.elapsed(), t1 + 1.5);
}

TEST(ExecContext, WorkScaleAppliesOnlyToScaledCharge) {
  core::ExecConfig cfg;
  cfg.work_scale = 100.0;
  core::ExecContext ctx(cfg);
  toast::accel::WorkEstimate w;
  w.flops = 1e8;
  w.parallel_items = 1e6;
  ctx.charge_host_kernel("scaled", w);
  ctx.charge_host_kernel_raw("raw", w);
  EXPECT_NEAR(ctx.log().seconds("scaled") / ctx.log().seconds("raw"), 100.0,
              1.0);
}

TEST(ExecContext, ConflictRateHitsOnEqualContentAtAnotherAddress) {
  const core::ExecConfig config;
  core::ExecContext ctx(config);
  const auto a = pixel_stream(1000, 3);
  const auto b = a;
  ASSERT_NE(a.data(), b.data());
  EXPECT_EQ(ctx.conflict_rate(a), scanned_rate(a));
  EXPECT_EQ(ctx.conflict_rate(b), scanned_rate(b));
  EXPECT_EQ(ctx.conflict_scans(), 1u);
}

TEST(ExecContext, ConflictRateRecountsALaneChangedInPlace) {
  const core::ExecConfig config;
  core::ExecContext ctx(config);
  std::vector<std::int64_t> lanes(64, 7);
  const double before = ctx.conflict_rate(lanes);
  EXPECT_EQ(before, scanned_rate(lanes));
  // Same buffer, same size, one lane retargeted: a memo keyed by address
  // would return the stale rate.
  lanes[5] = 99;
  ASSERT_NE(scanned_rate(lanes), before);
  EXPECT_EQ(ctx.conflict_rate(lanes), scanned_rate(lanes));
  EXPECT_EQ(ctx.conflict_scans(), 2u);
}

TEST(ExecContext, ConflictRateCorrectAfterEviction) {
  const core::ExecConfig config;
  core::ExecContext ctx(config);
  const auto first = pixel_stream(500, 0);
  const std::vector<std::int64_t> second(500, 7);
  ASSERT_NE(scanned_rate(first), scanned_rate(second));
  EXPECT_EQ(ctx.conflict_rate(first), scanned_rate(first));
  EXPECT_EQ(ctx.conflict_rate(first), scanned_rate(first));
  EXPECT_EQ(ctx.conflict_scans(), 1u);
  // A different stream replaces the entry...
  EXPECT_EQ(ctx.conflict_rate(second), scanned_rate(second));
  EXPECT_EQ(ctx.conflict_scans(), 2u);
  EXPECT_EQ(ctx.conflict_rate(second), scanned_rate(second));
  EXPECT_EQ(ctx.conflict_scans(), 2u);
  // ...so a return to the first one is a recount, with the same value.
  EXPECT_EQ(ctx.conflict_rate(first), scanned_rate(first));
  EXPECT_EQ(ctx.conflict_scans(), 3u);
}

TEST(ExecContext, ConflictRateOfEmptyStream) {
  const core::ExecConfig config;
  core::ExecContext ctx(config);
  const std::vector<std::int64_t> empty;
  EXPECT_EQ(ctx.conflict_rate(empty), scanned_rate(empty));
  EXPECT_EQ(ctx.conflict_rate(empty), 0.0);
  const auto full = pixel_stream(100, 1);
  EXPECT_EQ(ctx.conflict_rate(full), scanned_rate(full));
  EXPECT_EQ(ctx.conflict_rate(empty), 0.0);
}

TEST(ExecContext, ConflictRateEqualPrefixDifferentLength) {
  const core::ExecConfig config;
  core::ExecContext ctx(config);
  const auto lanes = pixel_stream(256, 5);
  const std::span<const std::int64_t> whole(lanes);
  const auto prefix = whole.first(40);
  ASSERT_NE(scanned_rate(prefix), scanned_rate(whole));
  EXPECT_EQ(ctx.conflict_rate(whole), scanned_rate(whole));
  EXPECT_EQ(ctx.conflict_rate(prefix), scanned_rate(prefix));
  EXPECT_EQ(ctx.conflict_rate(whole), scanned_rate(whole));
  EXPECT_EQ(ctx.conflict_scans(), 3u);
}

TEST(AccelStore, ShadowCopySemantics) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kOmpTarget;
  core::ExecContext ctx(cfg);
  core::AccelStore store(ctx);

  Observation ob("t", tiny_fp(), 16);
  auto& f = ob.create_detdata("signal", FieldType::kF64);
  f.f64()[0] = 1.0;

  EXPECT_FALSE(store.present(f));
  EXPECT_THROW(store.device_ptr<double>(f), std::logic_error);
  store.create(f);
  EXPECT_TRUE(store.present(f));

  store.update_device(f);
  double* dev = store.device_ptr<double>(f);
  EXPECT_DOUBLE_EQ(dev[0], 1.0);
  dev[0] = 9.0;
  EXPECT_DOUBLE_EQ(f.f64()[0], 1.0);  // host stale until update_host
  store.update_host(f);
  EXPECT_DOUBLE_EQ(f.f64()[0], 9.0);

  store.reset(f);
  EXPECT_DOUBLE_EQ(store.device_ptr<double>(f)[0], 0.0);

  store.remove(f);
  EXPECT_FALSE(store.present(f));
}

TEST(AccelStore, DoubleCreateThrows) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kOmpTarget;
  core::ExecContext ctx(cfg);
  core::AccelStore store(ctx);
  Observation ob("t", tiny_fp(), 4);
  auto& f = ob.create_detdata("x", FieldType::kF64);
  store.create(f);
  EXPECT_THROW(store.create(f), std::logic_error);
}

TEST(AccelStore, JaxTransfersCheaperThanOmp) {
  // The paper's Figure 6 shows JAX spending less time on update_device
  // and (especially) reset.
  Observation ob("t", tiny_fp(), 4096);

  core::ExecConfig omp_cfg;
  omp_cfg.backend = Backend::kOmpTarget;
  omp_cfg.work_scale = 1e5;
  core::ExecContext omp_ctx(omp_cfg);
  core::AccelStore omp_store(omp_ctx);

  core::ExecConfig jax_cfg = omp_cfg;
  jax_cfg.backend = Backend::kJax;
  core::ExecContext jax_ctx(jax_cfg);
  core::AccelStore jax_store(jax_ctx);

  auto& f = ob.create_detdata("signal", FieldType::kF64);
  omp_store.create(f);
  jax_store.create(f);
  omp_store.update_device(f);
  jax_store.update_device(f);
  omp_store.reset(f);
  jax_store.reset(f);

  EXPECT_LT(jax_ctx.log().seconds("accel_data_update_device"),
            omp_ctx.log().seconds("accel_data_update_device"));
  EXPECT_LT(jax_ctx.log().seconds("accel_data_reset"),
            omp_ctx.log().seconds("accel_data_reset"));
}

TEST(AccelStore, MapDomainFieldsUseMapScale) {
  Observation ob("t", tiny_fp(), 1024);
  core::ExecConfig cfg;
  cfg.backend = Backend::kOmpTarget;
  cfg.work_scale = 1e6;  // huge timestream scale
  cfg.map_scale = 1.0;   // maps already at production size
  core::ExecContext ctx(cfg);
  core::AccelStore store(ctx);

  auto& ts = ob.create_detdata("signal", FieldType::kF64);   // scalable
  auto& map = ob.create_buffer("zmap", FieldType::kF64,
                               2 * 1024);                    // map domain
  store.create(ts);
  store.create(map);
  store.update_device(ts);
  const double t_ts = ctx.log().seconds("accel_data_update_device");
  store.update_device(map);
  const double t_map =
      ctx.log().seconds("accel_data_update_device") - t_ts;
  // Same actual byte size, but the timestream transfer is modelled at
  // paper scale (1e6x) while the map is not.
  EXPECT_GT(t_ts, 100.0 * t_map);
}

TEST(AccelStore, ClearReleasesEverything) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kOmpTarget;
  core::ExecContext ctx(cfg);
  core::AccelStore store(ctx);
  Observation ob("t", tiny_fp(), 64);
  auto& a = ob.create_detdata("a", FieldType::kF64);
  auto& b = ob.create_shared("b", FieldType::kI64);
  store.create(a);
  store.create(b);
  EXPECT_EQ(store.n_mapped(), 2u);
  EXPECT_GT(store.mapped_bytes(), 0u);
  store.clear();
  EXPECT_EQ(store.n_mapped(), 0u);
  EXPECT_EQ(store.mapped_bytes(), 0u);
  EXPECT_FALSE(store.present(a));
}
