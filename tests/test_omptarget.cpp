// Tests for the mini OpenMP-target-offload runtime: memory pool, data
// environment (shadow-copy semantics), and the collapse(3) launch model.

#include "omptarget/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <vector>

namespace accel = toast::accel;
namespace omp = toast::omptarget;

namespace {

struct Fixture {
  accel::SimDevice device;
  accel::VirtualClock clock;
  toast::obs::Tracer tracer{&clock};
  omp::Runtime rt{device, clock, tracer};
};

}  // namespace

TEST(DevicePool, SizeClasses) {
  EXPECT_EQ(omp::DevicePool::size_class(1), 64u);
  EXPECT_EQ(omp::DevicePool::size_class(64), 64u);
  EXPECT_EQ(omp::DevicePool::size_class(65), 128u);
  EXPECT_EQ(omp::DevicePool::size_class(1000), 1024u);
}

TEST(DevicePool, ReusesReleasedBlocks) {
  accel::SimDevice dev;
  omp::DevicePool pool(dev);
  double cost = 0.0;
  const auto a = pool.allocate(1000, cost);
  EXPECT_GT(cost, 0.0);  // first allocation is a raw omp_target_alloc
  EXPECT_EQ(pool.misses(), 1u);
  pool.release(a);
  const auto b = pool.allocate(900, cost);  // same 1024-byte class
  EXPECT_DOUBLE_EQ(cost, 0.0);              // pool hit
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(b.id, a.id);
}

TEST(DevicePool, TracksDeviceMemory) {
  accel::SimDevice dev;
  {
    omp::DevicePool pool(dev);
    double cost = 0.0;
    const auto a = pool.allocate(1 << 20, cost);
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{1} << 20);
    pool.release(a);
    // Pool keeps the block (device memory still claimed).
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{1} << 20);
    pool.release_all();
    EXPECT_EQ(dev.allocated_bytes(), 0u);
  }
}

TEST(DevicePool, DoubleReleaseIsHarmless) {
  accel::SimDevice dev;
  omp::DevicePool pool(dev);
  double cost = 0.0;
  const auto a = pool.allocate(128, cost);
  pool.release(a);
  pool.release(a);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
}

TEST(DevicePool, HighWaterMark) {
  accel::SimDevice dev;
  omp::DevicePool pool(dev);
  double cost = 0.0;
  const auto a = pool.allocate(1024, cost);
  const auto b = pool.allocate(2048, cost);
  EXPECT_EQ(pool.high_water_bytes(), 3072u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.high_water_bytes(), 3072u);
}

TEST(OmpTargetData, CreateUpdateDeleteRoundTrip) {
  Fixture f;
  std::vector<double> host(128, 1.5);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  EXPECT_TRUE(f.rt.data_present(host.data()));
  f.rt.data_update_device(host.data());

  double* dev = f.rt.device_ptr(host.data());
  ASSERT_NE(dev, nullptr);
  EXPECT_DOUBLE_EQ(dev[0], 1.5);
  dev[0] = 9.0;

  // Host copy untouched until update_host.
  EXPECT_DOUBLE_EQ(host[0], 1.5);
  f.rt.data_update_host(host.data());
  EXPECT_DOUBLE_EQ(host[0], 9.0);

  f.rt.data_delete(host.data());
  EXPECT_FALSE(f.rt.data_present(host.data()));
}

TEST(OmpTargetData, StaleShadowWithoutUpdate) {
  // Forgetting update_device leaves stale data on the device, like a real
  // offload bug.
  Fixture f;
  std::vector<double> host(8, 1.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  f.rt.data_update_device(host.data());
  host[0] = 42.0;  // modified on host only
  EXPECT_DOUBLE_EQ(f.rt.device_ptr(host.data())[0], 1.0);
}

TEST(OmpTargetData, UnmappedAccessThrows) {
  Fixture f;
  double x = 0.0;
  EXPECT_THROW(f.rt.device_ptr(&x), std::logic_error);
  EXPECT_THROW(f.rt.data_update_device(&x), std::logic_error);
  EXPECT_THROW(f.rt.data_update_host(&x), std::logic_error);
  EXPECT_THROW(f.rt.data_reset(&x), std::logic_error);
}

TEST(OmpTargetData, DoubleCreateThrows) {
  Fixture f;
  std::vector<double> host(8);
  f.rt.data_create(host.data(), 64);
  EXPECT_THROW(f.rt.data_create(host.data(), 64), std::logic_error);
}

TEST(OmpTargetData, ResetZeroesDeviceCopy) {
  Fixture f;
  std::vector<double> host(16, 3.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  f.rt.data_update_device(host.data());
  f.rt.data_reset(host.data());
  EXPECT_DOUBLE_EQ(f.rt.device_ptr(host.data())[5], 0.0);
  EXPECT_DOUBLE_EQ(host[5], 3.0);
  EXPECT_GT(f.tracer.seconds("accel_data_reset"), 0.0);
}

TEST(OmpTargetData, TransfersAdvanceClockAndLog) {
  Fixture f;
  std::vector<double> host(1 << 16, 1.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  const double t0 = f.clock.now();
  f.rt.data_update_device(host.data());
  EXPECT_GT(f.clock.now(), t0);
  EXPECT_GT(f.tracer.seconds("accel_data_update_device"), 0.0);
  EXPECT_EQ(f.tracer.calls("accel_data_update_device"), 1);
}

TEST(OmpTargetData, WorkScaleScalesTransfers) {
  Fixture a;
  Fixture b;
  b.rt.set_work_scale(1000.0);
  std::vector<double> host(1 << 14, 0.0);
  a.rt.data_create(host.data(), host.size() * sizeof(double));
  b.rt.data_create(host.data(), host.size() * sizeof(double));
  a.rt.data_update_device(host.data());
  b.rt.data_update_device(host.data());
  EXPECT_GT(b.tracer.seconds("accel_data_update_device"),
            100.0 * a.tracer.seconds("accel_data_update_device"));
}

TEST(OmpTargetAsync, TransfersHideBehindKernels) {
  // An async upload followed by enough kernel work costs nothing extra at
  // the synchronization point.
  Fixture f;
  f.rt.set_work_scale(1e6);
  std::vector<double> host(1 << 10, 1.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  f.rt.data_update_device_async(host.data());
  // Long kernel while the transfer is in flight (kernel time must exceed
  // the modelled transfer time for full overlap).
  omp::IterCost cost;
  cost.flops = 2000.0;
  cost.bytes_read = 64.0;
  f.rt.target_for("busy", 1 << 13, cost, [](std::int64_t) { return true; });
  const double before = f.clock.now();
  f.rt.wait_transfers();
  EXPECT_NEAR(f.clock.now(), before, 1e-12);
  // The device copy is nevertheless up to date.
  EXPECT_DOUBLE_EQ(f.rt.device_ptr(host.data())[0], 1.0);
}

TEST(OmpTargetAsync, ImmediateWaitPaysFullTransfer) {
  Fixture f;
  f.rt.set_work_scale(1e6);
  std::vector<double> host(1 << 12, 2.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  const double t_sync_ref = f.device.transfer_time(
      static_cast<double>(host.size() * sizeof(double)) * 1e6);
  f.rt.data_update_device_async(host.data());
  const double before = f.clock.now();
  f.rt.wait_transfers();
  EXPECT_NEAR(f.clock.now() - before, t_sync_ref, 1e-9);
  // A second wait is free.
  const double after = f.clock.now();
  f.rt.wait_transfers();
  EXPECT_DOUBLE_EQ(f.clock.now(), after);
}

TEST(OmpTargetAsync, TransfersSerializeOnTheLink) {
  Fixture f;
  f.rt.set_work_scale(1e6);
  std::vector<double> a(1 << 12, 1.0), b(1 << 12, 2.0);
  f.rt.data_create(a.data(), a.size() * sizeof(double));
  f.rt.data_create(b.data(), b.size() * sizeof(double));
  const double t_one = f.device.transfer_time(
      static_cast<double>(a.size() * sizeof(double)) * 1e6);
  f.rt.data_update_device_async(a.data());
  f.rt.data_update_device_async(b.data());
  const double before = f.clock.now();
  f.rt.wait_transfers();
  EXPECT_NEAR(f.clock.now() - before, 2.0 * t_one, 1e-6);
}

TEST(OmpTargetAsync, UnmappedAsyncThrows) {
  Fixture f;
  double x = 0.0;
  EXPECT_THROW(f.rt.data_update_device_async(&x), std::logic_error);
  EXPECT_THROW(f.rt.data_update_host_async(&x), std::logic_error);
}

TEST(OmpTargetAsync, NowaitLaunchReturnsAfterDispatch) {
  // A nowait region costs the host only the submission; the kernel body
  // runs on its stream until a synchronization point.
  Fixture f;
  f.rt.set_work_scale(1e6);
  omp::IterCost cost;
  cost.flops = 2000.0;
  cost.bytes_read = 64.0;
  omp::LaunchOptions nowait;
  nowait.nowait = true;
  const double t0 = f.clock.now();
  const auto w = f.rt.target_for("k", 1 << 13, cost,
                                 [](std::int64_t) { return true; }, nowait);
  EXPECT_DOUBLE_EQ(f.clock.now() - t0, f.rt.dispatch_overhead());
  const double body = f.device.exec_time(w);
  f.rt.sync_all();
  EXPECT_NEAR(f.clock.now() - t0, f.rt.dispatch_overhead() + body, 1e-12);
  EXPECT_GT(f.tracer.seconds("accel_device_wait"), 0.0);
}

TEST(OmpTargetAsync, DependsOrdersKernelAfterTransfer) {
  // depend(in: buf) on a nowait region: the kernel waits for the async
  // upload even though they sit on different streams.
  Fixture f;
  f.rt.set_work_scale(1e6);
  std::vector<double> host(1 << 12, 1.0);
  f.rt.data_create(host.data(), host.size() * sizeof(double));
  f.rt.data_update_device_async(host.data(), /*stream=*/0);
  const auto ev = f.rt.record_event(0);

  omp::IterCost cost;
  cost.flops = 10.0;
  omp::LaunchOptions opts;
  opts.nowait = true;
  opts.stream = 1;
  opts.depends = {ev};
  f.rt.target_for("consume", 64, cost, [](std::int64_t) { return true; },
                  opts);
  const auto& ops = f.rt.scheduler().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_GE(ops[1].start, ops[0].end);

  // Without the depend clause the kernel starts immediately.
  Fixture g;
  g.rt.set_work_scale(1e6);
  g.rt.data_create(host.data(), host.size() * sizeof(double));
  g.rt.data_update_device_async(host.data(), /*stream=*/0);
  omp::LaunchOptions free_opts;
  free_opts.nowait = true;
  free_opts.stream = 1;
  const double dispatched = g.clock.now() + g.rt.dispatch_overhead();
  g.rt.target_for("consume", 64, cost, [](std::int64_t) { return true; },
                  free_opts);
  EXPECT_DOUBLE_EQ(g.rt.scheduler().ops()[1].start, dispatched);
}

TEST(OmpTargetAsync, StreamedPipelineBeatsTheSerialOne) {
  // The bench_overlap shape in miniature: H2D + nowait kernel per chunk,
  // round-robin over two streams, versus the same ops one stream.
  const auto pipeline = [](int n_streams) {
    Fixture f;
    f.rt.set_work_scale(1e6);
    f.rt.set_dispatch_overhead(0.0);
    std::vector<std::vector<double>> chunks(4,
                                            std::vector<double>(1 << 10, 1.0));
    omp::IterCost cost;
    cost.flops = 100.0;
    cost.bytes_read = 64.0;
    for (int i = 0; i < 4; ++i) {
      auto& c = chunks[static_cast<std::size_t>(i)];
      f.rt.data_create(c.data(), c.size() * sizeof(double));
      const toast::sched::StreamId s = i % n_streams;
      f.rt.data_update_device_async(c.data(), s);
      omp::LaunchOptions opts;
      opts.nowait = true;
      opts.stream = s;
      f.rt.target_for("chunk", 1 << 10, cost,
                      [](std::int64_t) { return true; }, opts);
    }
    f.rt.sync_all();
    return f.clock.now();
  };
  EXPECT_LT(pipeline(2), pipeline(1));
}

TEST(OmpTargetLaunch, ExecutesFullIndexSpace) {
  Fixture f;
  const std::int64_t na = 3, nb = 4, nc = 5;
  std::vector<int> hits(static_cast<std::size_t>(na * nb * nc), 0);
  omp::IterCost cost;
  cost.flops = 1.0;
  f.rt.target_for_collapse3("k", na, nb, nc, cost,
                            [&](std::int64_t a, std::int64_t b,
                                std::int64_t c) {
                              hits[static_cast<std::size_t>(
                                  (a * nb + b) * nc + c)]++;
                              return true;
                            });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

namespace {

/// A collapse(3) body that records, per row, the (b, c) order it saw and
/// how many calls its own object had made when the row began.
struct RowRecorder {
  std::vector<std::vector<std::array<std::int64_t, 2>>>* visits;
  std::vector<std::int64_t>* calls_at_row_start;
  std::int64_t calls = 0;

  bool operator()(std::int64_t a, std::int64_t b, std::int64_t c) {
    auto& row = (*visits)[static_cast<std::size_t>(a)];
    if (row.empty()) {
      (*calls_at_row_start)[static_cast<std::size_t>(a)] = calls;
    }
    ++calls;
    row.push_back({b, c});
    return (a + b + c) % 3 != 0;  // the guard cuts one in three
  }
};

}  // namespace

TEST(OmpTargetLaunch, RowsWithoutAtomicsRunOnTheirOwnBodyCopy) {
  Fixture f;
  const std::int64_t na = 16, nb = 3, nc = 5;
  std::vector<std::vector<std::array<std::int64_t, 2>>> visits(na);
  std::vector<std::int64_t> calls_at_row_start(na, -1);
  RowRecorder body{&visits, &calls_at_row_start};
  omp::IterCost cost;
  cost.flops = 10.0;
  cost.guard_flops = 3.0;
  const auto w = f.rt.target_for_collapse3("k", na, nb, nc, cost, body);
  std::vector<std::array<std::int64_t, 2>> row_order;
  std::int64_t executed = 0;
  for (std::int64_t a = 0; a < na; ++a) {
    for (std::int64_t b = 0; b < nb; ++b) {
      for (std::int64_t c = 0; c < nc; ++c) {
        if (a == 0) {
          row_order.push_back({b, c});
        }
        executed += (a + b + c) % 3 != 0 ? 1 : 0;
      }
    }
  }
  for (std::int64_t a = 0; a < na; ++a) {
    EXPECT_EQ(visits[a], row_order) << "row " << a;
    EXPECT_EQ(calls_at_row_start[a], 0) << "row " << a;
  }
  EXPECT_EQ(body.calls, 0);  // the caller's object only seeds the copies
  const std::int64_t cut = na * nb * nc - executed;
  EXPECT_EQ(w.flops, static_cast<double>(executed) * 10.0 +
                         static_cast<double>(cut) * 3.0);
  EXPECT_EQ(w.parallel_items, static_cast<double>(na * nb * nc));
}

TEST(OmpTargetLaunch, VisitsRowMajorWithLastIndexFastest) {
  // A region that declares atomics runs in program order, so a body may
  // share state across rows.
  Fixture f;
  const std::int64_t na = 4, nb = 3, nc = 4;
  std::vector<std::array<std::int64_t, 3>> order;
  omp::IterCost cost;
  cost.atomic_ops = 1.0;
  f.rt.target_for_collapse3("k", na, nb, nc, cost,
                            [&](std::int64_t a, std::int64_t b,
                                std::int64_t c) {
                              order.push_back({a, b, c});
                              return true;
                            });
  std::vector<std::array<std::int64_t, 3>> want;
  for (std::int64_t a = 0; a < na; ++a) {
    for (std::int64_t b = 0; b < nb; ++b) {
      for (std::int64_t c = 0; c < nc; ++c) {
        want.push_back({a, b, c});
      }
    }
  }
  EXPECT_EQ(order, want);
}

TEST(OmpTargetLaunch, RegionWithAtomicsRunsTheCallersBodyInPlace) {
  Fixture f;
  const std::int64_t na = 6, nb = 2, nc = 3;
  std::vector<std::vector<std::array<std::int64_t, 2>>> visits(na);
  std::vector<std::int64_t> calls_at_row_start(na, -1);
  RowRecorder body{&visits, &calls_at_row_start};
  omp::IterCost cost;
  cost.atomic_ops = 2.0;
  f.rt.target_for_collapse3("k", na, nb, nc, cost, body);
  EXPECT_EQ(body.calls, na * nb * nc);
  for (std::int64_t a = 0; a < na; ++a) {
    EXPECT_EQ(calls_at_row_start[a], a * nb * nc) << "row " << a;
  }
}

TEST(OmpTargetLaunch, StatefulMoveOnlyBodyRuns) {
  Fixture f;
  omp::IterCost cost;
  cost.flops = 1.0;
  // The body owns its state and cannot be copied; the launch runs the
  // caller's object in place, so the state it leaves is visible after.
  auto owned = std::make_unique<std::int64_t>(0);
  const std::int64_t* visits = owned.get();
  auto body = [state = std::move(owned)](std::int64_t) mutable {
    return ++*state % 2 == 0;
  };
  const auto w = f.rt.target_for("k", 10, cost, body);
  EXPECT_EQ(*visits, 10);
  EXPECT_DOUBLE_EQ(w.flops, 5.0 * 1.0 + 5.0 * cost.guard_flops);
  // collapse(3) shares state across rows only in a region that declares
  // atomics, which runs in program order on the caller's object.
  cost.atomic_ops = 1.0;
  auto owned3 = std::make_unique<std::int64_t>(0);
  const std::int64_t* visits3 = owned3.get();
  auto body3 = [state = std::move(owned3)](std::int64_t, std::int64_t,
                                           std::int64_t) mutable {
    return ++*state <= 6;
  };
  const auto w3 = f.rt.target_for_collapse3("k3", 2, 2, 2, cost, body3);
  EXPECT_EQ(*visits3, 8);
  EXPECT_DOUBLE_EQ(w3.flops, 6.0 * 1.0 + 2.0 * cost.guard_flops);
  EXPECT_EQ(f.tracer.calls("k3"), 1);
}

TEST(OmpTargetLaunch, ExecutedAndCutCountsReachTheEstimate) {
  Fixture f;
  omp::IterCost cost;
  cost.flops = 10.0;
  cost.bytes_read = 24.0;
  cost.bytes_written = 8.0;
  cost.guard_flops = 3.0;
  cost.divergence = 1.5;
  cost.atomic_ops = 2.0;
  cost.atomic_conflict_rate = 0.25;
  // 4 x 5 x 6 = 120 iterations; c < 4 executes: 80 executed, 40 cut.
  const auto w = f.rt.target_for_collapse3(
      "k", 4, 5, 6, cost,
      [](std::int64_t, std::int64_t, std::int64_t c) { return c < 4; });
  EXPECT_EQ(w.flops, 80.0 * 10.0 + 40.0 * 3.0);
  EXPECT_EQ(w.bytes_read, 80.0 * 24.0);
  EXPECT_EQ(w.bytes_written, 80.0 * 8.0);
  EXPECT_EQ(w.atomic_ops, 80.0 * 2.0);
  EXPECT_EQ(w.atomic_conflict_rate, 0.25);
  EXPECT_EQ(w.divergence, 1.5);
  EXPECT_EQ(w.parallel_items, 120.0);
  EXPECT_EQ(w.launches, 1.0);
  // The flat loop over the same mix charges the same estimate.
  const auto flat = f.rt.target_for(
      "k", 120, cost, [](std::int64_t i) { return i % 6 < 4; });
  EXPECT_EQ(flat.flops, w.flops);
  EXPECT_EQ(flat.bytes_read, w.bytes_read);
  EXPECT_EQ(flat.atomic_ops, w.atomic_ops);
  EXPECT_EQ(flat.parallel_items, w.parallel_items);
}

TEST(OmpTargetLaunch, GuardCutIterationsChargeOnlyGuard) {
  Fixture f;
  omp::IterCost cost;
  cost.flops = 100.0;
  cost.guard_flops = 2.0;
  // Half the iterations are cut by the guard.
  const auto w = f.rt.target_for(
      "k", 1000, cost, [](std::int64_t i) { return i < 500; });
  EXPECT_DOUBLE_EQ(w.flops, 500.0 * 100.0 + 500.0 * 2.0);
  EXPECT_DOUBLE_EQ(w.parallel_items, 1000.0);
}

TEST(OmpTargetLaunch, OneLaunchPerTargetRegion) {
  Fixture f;
  omp::IterCost cost;
  cost.flops = 1.0;
  f.rt.target_for("a", 10, cost, [](std::int64_t) { return true; });
  f.rt.target_for("a", 10, cost, [](std::int64_t) { return true; });
  f.rt.target_for("b", 10, cost, [](std::int64_t) { return true; });
  EXPECT_EQ(f.device.total_launches(), 3u);
  EXPECT_EQ(f.tracer.calls("a"), 2);
  EXPECT_EQ(f.tracer.calls("b"), 1);
}

TEST(OmpTargetLaunch, DispatchOverheadBoundsSmallKernels) {
  Fixture f;
  omp::IterCost cost;
  cost.flops = 1.0;
  const double t0 = f.clock.now();
  f.rt.target_for("k", 1, cost, [](std::int64_t) { return true; });
  EXPECT_GE(f.clock.now() - t0, f.rt.dispatch_overhead());
}

TEST(OmpTargetLaunch, WorkScaleMultipliesWork) {
  Fixture f;
  f.rt.set_work_scale(1e6);
  omp::IterCost cost;
  cost.flops = 10.0;
  cost.bytes_read = 8.0;
  const auto w = f.rt.target_for("k", 100, cost,
                                 [](std::int64_t) { return true; });
  EXPECT_DOUBLE_EQ(w.flops, 10.0 * 100.0 * 1e6);
  EXPECT_DOUBLE_EQ(w.bytes_read, 8.0 * 100.0 * 1e6);
  EXPECT_DOUBLE_EQ(w.launches, 1.0);
}
