// Tests for the simulated-device performance model, problem sizing, the
// host block recycler and the host thread pool.

#include "accel/host_model.hpp"
#include "accel/host_pool.hpp"
#include "accel/host_threads.hpp"
#include "accel/sim_device.hpp"
#include "accel/work.hpp"
#include "bench_model/problem.hpp"
#include "core/accel_store.hpp"
#include "core/observation.hpp"

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace accel = toast::accel;
using accel::Sharing;
using accel::SimDevice;
using accel::WorkEstimate;

namespace {

WorkEstimate streaming_kernel(double n) {
  WorkEstimate w;
  w.flops = 4.0 * n;
  w.bytes_read = 16.0 * n;
  w.bytes_written = 8.0 * n;
  w.launches = 1.0;
  w.parallel_items = n;
  return w;
}

WorkEstimate compute_kernel(double n) {
  WorkEstimate w;
  w.flops = 500.0 * n;
  w.bytes_read = 16.0 * n;
  w.bytes_written = 8.0 * n;
  w.launches = 1.0;
  w.parallel_items = n;
  return w;
}

}  // namespace

TEST(SimDevice, ZeroWorkCostsNothing) {
  SimDevice dev;
  WorkEstimate w;
  w.launches = 0.0;
  EXPECT_DOUBLE_EQ(dev.kernel_time(w), 0.0);
  EXPECT_DOUBLE_EQ(dev.exec_time(w), 0.0);
}

TEST(SimDevice, TimeIsMonotonicInWork) {
  SimDevice dev;
  const double t1 = dev.kernel_time(streaming_kernel(1e6));
  const double t2 = dev.kernel_time(streaming_kernel(2e6));
  const double t4 = dev.kernel_time(streaming_kernel(4e6));
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t4);
}

TEST(SimDevice, LargeKernelsScaleLinearly) {
  SimDevice dev;
  // Past saturation, doubling the work should roughly double the time.
  const double t1 = dev.kernel_time(streaming_kernel(1e9));
  const double t2 = dev.kernel_time(streaming_kernel(2e9));
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(SimDevice, SmallKernelsAreLaunchBound) {
  SimDevice dev;
  const WorkEstimate w = streaming_kernel(100.0);
  EXPECT_GT(dev.exec_time(w), dev.spec().launch_latency);
  EXPECT_LT(dev.kernel_time(w), dev.spec().launch_latency);
}

TEST(SimDevice, MemoryBoundVsComputeBound) {
  SimDevice dev;
  // The streaming kernel has arithmetic intensity 4/24 flop/byte, far below
  // the A100 roofline ridge, so it must be memory-bound; the compute kernel
  // at ~20 flop/byte must be compute-bound.
  const double n = 1e9;
  const WorkEstimate ws = streaming_kernel(n);
  const double t_mem_only =
      ws.total_bytes() / (dev.spec().hbm_bandwidth * dev.spec().hbm_efficiency);
  EXPECT_NEAR(dev.kernel_time(ws), t_mem_only, 0.05 * t_mem_only);

  const WorkEstimate wc = compute_kernel(n);
  const double t_cmp_only = wc.flops / (dev.spec().fp64_flops *
                                        dev.spec().compute_efficiency);
  EXPECT_NEAR(dev.kernel_time(wc), t_cmp_only, 0.05 * t_cmp_only);
}

TEST(SimDevice, DivergenceSlowsComputeBoundKernels) {
  SimDevice dev;
  WorkEstimate w = compute_kernel(1e9);
  const double base = dev.kernel_time(w);
  w.divergence = 3.0;
  EXPECT_NEAR(dev.kernel_time(w) / base, 3.0, 0.01);
}

TEST(SimDevice, ConflictingAtomicsAddTime) {
  SimDevice dev;
  WorkEstimate w = streaming_kernel(1e8);
  const double base = dev.kernel_time(w);
  w.atomic_ops = 1e8;
  w.atomic_conflict_rate = 0.5;
  EXPECT_GT(dev.kernel_time(w), base);
  // Conflict-free atomics are free in the model (covered by write traffic).
  w.atomic_conflict_rate = 0.0;
  EXPECT_DOUBLE_EQ(dev.kernel_time(w), base);
}

TEST(SimDevice, MpsSharingDividesThroughput) {
  SimDevice solo;
  SimDevice shared;
  shared.set_sharing(Sharing::kMps, 4);
  const WorkEstimate w = streaming_kernel(1e9);
  const double t_solo = solo.exec_time(w);
  const double t_shared = shared.exec_time(w);
  EXPECT_NEAR(t_shared / t_solo, 4.0, 0.1);
}

TEST(SimDevice, TimeSlicingPaysContextSwitches) {
  SimDevice mps;
  mps.set_sharing(Sharing::kMps, 4);
  SimDevice sliced;
  sliced.set_sharing(Sharing::kTimeSliced, 4);
  // Many small launches: the no-MPS path must be much slower, which is the
  // paper's observation that MPS is required for oversubscription (§3.1.2).
  WorkEstimate w = streaming_kernel(1e5);
  w.launches = 100.0;
  EXPECT_GT(sliced.exec_time(w), 3.0 * mps.exec_time(w));
}

TEST(SimDevice, SharingWithOneProcessIsExclusive) {
  SimDevice dev;
  dev.set_sharing(Sharing::kMps, 1);
  EXPECT_EQ(dev.sharing(), Sharing::kExclusive);
}

TEST(SimDevice, TransfersShareLink) {
  SimDevice solo;
  SimDevice shared;
  shared.set_sharing(Sharing::kMps, 2);
  const double bytes = 1e9;
  EXPECT_GT(shared.transfer_time(bytes), 1.9 * solo.transfer_time(bytes) -
                                             solo.spec().pcie_latency);
  EXPECT_DOUBLE_EQ(solo.transfer_time(0.0), 0.0);
}

TEST(SimDevice, AllocationTrackingAndOom) {
  SimDevice dev;
  const std::size_t cap = dev.capacity_bytes();
  dev.allocate(cap / 2);
  EXPECT_EQ(dev.allocated_bytes(), cap / 2);
  dev.allocate(cap / 4);
  EXPECT_THROW(dev.allocate(cap / 2), accel::DeviceOomError);
  dev.deallocate(cap / 2);
  EXPECT_NO_THROW(dev.allocate(cap / 2));
  dev.deallocate(2 * cap);  // over-free clamps to zero
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(SimDevice, OomErrorMessageIsDiagnostic) {
  SimDevice dev;
  const std::size_t cap = dev.capacity_bytes();
  dev.allocate(cap - 100);
  try {
    dev.allocate(1000);
    FAIL() << "allocation past capacity must throw";
  } catch (const accel::DeviceOomError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulated device out of memory"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("requested 1000 B"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(cap - 100)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(cap) + " B capacity"),
              std::string::npos)
        << msg;
  }
  // A failed allocation leaves the accounting untouched.
  EXPECT_EQ(dev.allocated_bytes(), cap - 100);
}

TEST(SimDevice, DeallocateUnderflowClampsToZero) {
  SimDevice dev;
  dev.deallocate(64);  // free on an empty device is a no-op
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  dev.allocate(10);
  dev.deallocate(4);
  EXPECT_EQ(dev.allocated_bytes(), 6u);
  dev.deallocate(100);  // over-free clamps instead of wrapping
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_NO_THROW(dev.allocate(dev.capacity_bytes()));
}

TEST(SimDevice, TransferCountersSplitByDirection) {
  SimDevice dev;
  dev.note_transfer(1000.0, 2.0, /*to_device=*/true);
  dev.note_transfer(300.0, 0.5, /*to_device=*/false);
  EXPECT_DOUBLE_EQ(dev.total_h2d_bytes(), 1000.0);
  EXPECT_DOUBLE_EQ(dev.total_d2h_bytes(), 300.0);
  EXPECT_DOUBLE_EQ(dev.total_h2d_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(dev.total_d2h_seconds(), 0.5);
  // Direction splits always sum to the aggregate counters.
  EXPECT_DOUBLE_EQ(dev.total_transfer_bytes(),
                   dev.total_h2d_bytes() + dev.total_d2h_bytes());
  EXPECT_DOUBLE_EQ(dev.total_transfer_seconds(),
                   dev.total_h2d_seconds() + dev.total_d2h_seconds());
  dev.reset_counters();
  EXPECT_DOUBLE_EQ(dev.total_h2d_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(dev.total_d2h_seconds(), 0.0);
}

TEST(HostModel, ThreadScalingComputeBound) {
  accel::HostModel host;
  const WorkEstimate w = compute_kernel(1e8);
  const double t1 = host.exec_time(w, 1, 1);
  const double t16 = host.exec_time(w, 16, 16);
  // Sub-linear: 16 threads deliver 16x work through a documented
  // thread-scaling efficiency of 1/(1 + 0.025 (t-1)).
  const double eff = 1.0 / (1.0 + 0.025 * 15.0);
  EXPECT_NEAR(t1 / t16, 16.0 * eff, 0.5);
  EXPECT_GT(t1 / t16, 8.0);
}

TEST(HostModel, MemoryBoundKernelsDontScalePastBandwidth) {
  accel::HostModel host;
  const WorkEstimate w = streaming_kernel(2e9);
  // All 64 threads active on the socket: using 16 vs 64 threads of a fully
  // busy socket changes only this kernel's *share*.
  const double t_full = host.exec_time(w, 64, 64);
  const double t_quarter = host.exec_time(w, 16, 64);
  EXPECT_NEAR(t_quarter / t_full, 4.0, 0.2);
}

TEST(HostModel, DivergenceCostsVectorizationOnly) {
  accel::HostModel host;
  WorkEstimate w = compute_kernel(1e8);
  const double base = host.exec_time(w, 8, 8);
  w.divergence = 2.0;
  const double slowed = host.exec_time(w, 8, 8);
  // CPU penalty for divergence is bounded (no lockstep execution).
  EXPECT_GT(slowed, base);
  EXPECT_LT(slowed, 2.5 * base);
}

TEST(HostModel, SerialIsSlowerThanThreaded) {
  accel::HostModel host;
  const WorkEstimate w = compute_kernel(1e8);
  EXPECT_GT(host.exec_time_serial(w), host.exec_time(w, 32, 32));
}

TEST(Problem, SizesMatchPaper) {
  const auto medium = toast::bench_model::medium_problem();
  EXPECT_DOUBLE_EQ(medium.paper_total_samples, 5.0e9);
  EXPECT_EQ(medium.nodes, 1);
  // ~1 TB of data as the paper states.
  EXPECT_NEAR(medium.paper_total_bytes(), 1.0e12, 2e11);

  const auto large = toast::bench_model::large_problem();
  EXPECT_DOUBLE_EQ(large.paper_total_samples, 5.0e10);
  EXPECT_EQ(large.nodes, 8);
  EXPECT_NEAR(large.paper_total_bytes(), 1.0e13, 2e12);
}

TEST(Problem, ThreadSplit) {
  auto p = toast::bench_model::medium_problem();
  p.procs_per_node = 16;
  EXPECT_EQ(p.threads_per_proc(), 4);
  p.procs_per_node = 64;
  EXPECT_EQ(p.threads_per_proc(), 1);
  p.procs_per_node = 1;
  EXPECT_EQ(p.threads_per_proc(), 64);
}

TEST(Problem, ScaleFactorIsConsistent) {
  const auto p = toast::bench_model::medium_problem();
  const double actual = static_cast<double>(p.actual_n_detectors) *
                        static_cast<double>(p.actual_n_samples) *
                        static_cast<double>(p.observations_per_proc);
  EXPECT_NEAR(p.sample_scale() * actual * p.total_procs(),
              p.paper_total_samples, 1.0);
}

TEST(WorkEstimateTest, ScalingLeavesStructureAlone) {
  WorkEstimate w = compute_kernel(1e3);
  w.divergence = 2.5;
  w.launches = 7.0;
  const WorkEstimate s = w.scaled(100.0);
  EXPECT_DOUBLE_EQ(s.flops, w.flops * 100.0);
  EXPECT_DOUBLE_EQ(s.bytes_read, w.bytes_read * 100.0);
  EXPECT_DOUBLE_EQ(s.divergence, 2.5);
  EXPECT_DOUBLE_EQ(s.launches, 7.0);
}

TEST(WorkEstimateTest, AccumulationWeightsStructure) {
  WorkEstimate a = compute_kernel(1e6);
  a.divergence = 1.0;
  WorkEstimate b = compute_kernel(1e6);
  b.divergence = 3.0;
  WorkEstimate sum = a;
  sum += b;
  EXPECT_DOUBLE_EQ(sum.divergence, 2.0);
  EXPECT_DOUBLE_EQ(sum.flops, a.flops + b.flops);
  EXPECT_DOUBLE_EQ(sum.launches, 2.0);
}

// --- host block recycler ----------------------------------------------------

namespace {

using accel::HostPool;
namespace core = toast::core;

constexpr std::size_t kMin = HostPool::kMinBlock;

bool within_cap(const HostPool& pool) {
  const auto st = pool.stats();
  return st.live_bytes + st.retained_bytes <= st.peak_live_bytes;
}

}  // namespace

TEST(HostPool, EightClassesPerPowerOfTwo) {
  EXPECT_EQ(HostPool::class_size(kMin), kMin);
  EXPECT_EQ(HostPool::class_size(kMin + 1), kMin + kMin / 8);
  EXPECT_EQ(HostPool::class_size(2 * kMin - 1), 2 * kMin);
  EXPECT_EQ(HostPool::class_size(5 * kMin + 1), 5 * kMin + kMin / 2);
}

TEST(HostPool, SameClassTakeAfterGiveIsAHit) {
  HostPool pool;
  const std::size_t bytes = kMin + 1000;
  void* first = pool.take(bytes);
  pool.give(first, bytes);
  const std::size_t same_class = HostPool::class_size(bytes);
  void* second = pool.take(same_class);
  EXPECT_EQ(second, first);
  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.live_bytes, same_class);
  EXPECT_EQ(st.retained_bytes, 0u);
  pool.give(second, same_class);
}

TEST(HostPool, SmallBlocksBypassTheRecycler) {
  HostPool pool;
  void* p = pool.take(kMin - 1);
  pool.give(p, kMin - 1);
  const auto st = pool.stats();
  EXPECT_EQ(st.hits + st.misses, 0u);
  EXPECT_EQ(st.peak_live_bytes, 0u);
  EXPECT_EQ(st.retained_bytes, 0u);
}

TEST(HostPool, HeldBytesNeverExceedPeakLive) {
  HostPool pool;
  std::mt19937 gen(17);
  std::uniform_int_distribution<std::size_t> size(kMin, 8 * kMin);
  std::vector<std::pair<void*, std::size_t>> live;
  std::size_t expected_live = 0;
  for (int op = 0; op < 400; ++op) {
    if (live.empty() || gen() % 2 == 0) {
      const std::size_t bytes = size(gen);
      live.emplace_back(pool.take(bytes), bytes);
      expected_live += HostPool::class_size(bytes);
    } else {
      const std::size_t i = gen() % live.size();
      pool.give(live[i].first, live[i].second);
      expected_live -= HostPool::class_size(live[i].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(pool.stats().live_bytes, expected_live) << "op " << op;
    ASSERT_TRUE(within_cap(pool)) << "op " << op;
    if (op == 200) {
      // Drain half way, so later takes meet a full set of retained blocks.
      for (const auto& [p, bytes] : live) {
        pool.give(p, bytes);
      }
      live.clear();
      expected_live = 0;
      ASSERT_TRUE(within_cap(pool));
    }
  }
  EXPECT_GT(pool.stats().hits, 0u);
  for (const auto& [p, bytes] : live) {
    pool.give(p, bytes);
  }
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_TRUE(within_cap(pool));
}

TEST(HostPool, TwoThreadsTakeAndGive) {
  HostPool pool;
  auto worker = [&pool](std::size_t bytes) {
    for (int i = 0; i < 500; ++i) {
      auto* p = static_cast<unsigned char*>(pool.take(bytes));
      p[0] = 1;
      p[bytes - 1] = 1;
      pool.give(p, bytes);
    }
  };
  std::thread a(worker, kMin);
  std::thread b(worker, 3 * kMin + 5);
  a.join();
  b.join();
  const auto st = pool.stats();
  EXPECT_EQ(st.hits + st.misses, 1000u);
  EXPECT_EQ(st.live_bytes, 0u);
  EXPECT_TRUE(within_cap(pool));
}

TEST(HostPool, RecycledFieldReadsAllZeros) {
  const std::int64_t n = 40000;  // 320,000 bytes as f64 / i64
  const std::pair<core::FieldType, std::int64_t> cases[] = {
      {core::FieldType::kF64, n},
      {core::FieldType::kI64, n},
      {core::FieldType::kU8, 8 * n}};
  for (const auto& [type, count] : cases) {
    accel::PooledAllocator<std::uint64_t> alloc;
    std::uint64_t* block = alloc.allocate(static_cast<std::size_t>(n));
    std::memset(block, 0xA5, static_cast<std::size_t>(n) * 8);
    alloc.deallocate(block, static_cast<std::size_t>(n));
    const auto hits = accel::host_pool().stats().hits;

    const core::Field f(type, 1, count);
    EXPECT_EQ(f.raw(), static_cast<const void*>(block));
    EXPECT_EQ(accel::host_pool().stats().hits, hits + 1);
    const auto* bytes = static_cast<const unsigned char*>(f.raw());
    EXPECT_TRUE(std::all_of(bytes, bytes + f.byte_size(),
                            [](unsigned char b) { return b == 0; }));
  }
}

TEST(HostPool, AccelStoreRecreateReusesTheShadow) {
  core::ExecConfig cfg;
  cfg.backend = core::Backend::kOmpTarget;
  core::ExecContext ctx(cfg);
  core::AccelStore store(ctx);
  const std::int64_t n = 32768;
  core::Field f(core::FieldType::kF64, 1, n);

  store.create(f);
  double* first = store.device_ptr<double>(f);
  std::fill(first, first + n, 3.0);
  store.remove(f);
  const auto hits = accel::host_pool().stats().hits;
  store.create(f);
  const double* second = store.device_ptr<double>(f);
  EXPECT_EQ(second, first);
  EXPECT_EQ(accel::host_pool().stats().hits, hits + 1);
  EXPECT_TRUE(std::all_of(second, second + n, [](double v) {
    return std::bit_cast<std::uint64_t>(v) == 0;
  }));
}

TEST(HostPool, ObservationCopyOwnsItsFields) {
  core::Focalplane fp;
  fp.quats.push_back({0.0, 0.0, 0.0, 1.0});
  core::Observation ob("o", fp, 40000);
  core::Field& sig = ob.create_detdata("signal", core::FieldType::kF64);
  sig.f64()[7] = 2.5;

  core::Observation copy = ob;
  core::Field& copied = copy.field("signal");
  EXPECT_NE(copied.raw(), sig.raw());
  EXPECT_EQ(copied.f64()[7], 2.5);
  copied.f64()[7] = 1.0;
  EXPECT_EQ(sig.f64()[7], 2.5);
  copy = ob;
  EXPECT_EQ(copy.field("signal").f64()[7], 2.5);
}

TEST(HostPoolDeathTest, UseAfterReleaseStillAborts) {
#if defined(__SANITIZE_ADDRESS__)
  // A retained block is poisoned, so reading it through a stale pointer is
  // reported although the memory never went back to the allocator.
  accel::PooledAllocator<double> alloc;
  const std::size_t n = kMin / sizeof(double);
  double* block = alloc.allocate(n);
  block[0] = 1.0;
  alloc.deallocate(block, n);
  EXPECT_DEATH(
      {
        const volatile double* stale = block;
        static_cast<void>(stale[n / 2]);
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build (TOAST_SANITIZE=ON)";
#endif
}

// ---------------------------------------------------------------------------
// Host thread pool: every index exactly once, whoever runs it.
// ---------------------------------------------------------------------------

namespace {

/// Runs parallel_for(n) on the shared pool and returns how often each
/// index ran.  Each index sleeps for `pause` on the calling thread and
/// for `worker_pause` on a worker.
std::vector<int> visit_counts(std::size_t n,
                              std::chrono::microseconds pause = {},
                              std::chrono::microseconds worker_pause = {}) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(n);
  accel::host_threads().parallel_for(n, [&](std::size_t i) {
    std::this_thread::sleep_for(std::this_thread::get_id() == caller
                                    ? pause
                                    : worker_pause);
    hits[i].fetch_add(1);
  });
  std::vector<int> out;
  for (const auto& h : hits) {
    out.push_back(h.load());
  }
  return out;
}

}  // namespace

TEST(HostThreads, EveryIndexRunsExactlyOnce) {
  const auto workers =
      static_cast<std::size_t>(accel::host_threads().workers());
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, workers,
        workers + 1, std::size_t{1000}}) {
    EXPECT_EQ(visit_counts(n), std::vector<int>(n, 1)) << "n = " << n;
  }
  // Slow indices, slower on the workers: the caller runs out of indices
  // first, and the call must still wait for the workers to finish.
  EXPECT_EQ(visit_counts(64, std::chrono::microseconds{100},
                         std::chrono::microseconds{2000}),
            std::vector<int>(64, 1));
}

TEST(HostThreads, WorkerCountFollowsTheAffinityMaskAndTheCap) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const int cpus = CPU_COUNT(&set);
  EXPECT_EQ(accel::host_threads().workers(),
            std::min(cpus - 1, accel::HostThreads::kMaxWorkers));
  EXPECT_EQ(accel::HostThreads::workers_for(1), 0);
  EXPECT_EQ(accel::HostThreads::workers_for(2), 1);
  EXPECT_EQ(accel::HostThreads::workers_for(4), 3);
  EXPECT_EQ(accel::HostThreads::workers_for(8), 7);
  EXPECT_EQ(accel::HostThreads::workers_for(64), 7);
}

TEST(HostThreads, ExceptionReachesTheCallerAndThePoolStaysUsable) {
  auto& pool = accel::host_threads();
  const auto caller = std::this_thread::get_id();
  // Thrown on the caller's own share, then on a worker's: each index
  // sleeps long enough that the workers join in.
  for (const bool on_worker : {false, true}) {
    if (on_worker && pool.workers() == 0) {
      continue;
    }
    std::atomic<bool> thrown{false};
    try {
      pool.parallel_for(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if ((std::this_thread::get_id() != caller) == on_worker &&
            !thrown.exchange(true)) {
          throw std::runtime_error(on_worker ? "worker" : "caller");
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), on_worker ? "worker" : "caller");
    }
    EXPECT_TRUE(thrown.load());
    EXPECT_EQ(visit_counts(257), std::vector<int>(257, 1));
  }
}

TEST(HostThreads, NestedCallsRunInline) {
  const std::size_t n = 16;
  std::vector<std::atomic<int>> hits(n * n);
  accel::host_threads().parallel_for(n, [&](std::size_t i) {
    accel::host_threads().parallel_for(
        n, [&](std::size_t j) { hits[i * n + j].fetch_add(1); });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(HostThreads, TwoUserThreadsShareThePool) {
  // Each thread fills its own rows; whichever finds the pool busy runs
  // its loop inline.  The sums are per row, so they are exact.
  const std::size_t rows = 64, cols = 512;
  auto fill = [&](std::vector<double>& out, double scale) {
    for (int round = 0; round < 50; ++round) {
      accel::host_threads().parallel_for(rows, [&](std::size_t r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
          sum += scale * static_cast<double>(r * cols + c);
        }
        out[r] = sum;
      });
    }
  };
  std::vector<double> a(rows), b(rows), want_a(rows), want_b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      want_a[r] += 1.0 * static_cast<double>(r * cols + c);
      want_b[r] += 0.5 * static_cast<double>(r * cols + c);
    }
  }
  std::thread ta(fill, std::ref(a), 1.0);
  std::thread tb(fill, std::ref(b), 0.5);
  ta.join();
  tb.join();
  EXPECT_EQ(a, want_a);
  EXPECT_EQ(b, want_b);
}

namespace {

/// Blocks until `started` reaches `want` or a second has passed, so that
/// a worker has taken an index when the caller goes on.
void await_count(const std::atomic<int>& started, int want) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (started.load() < want && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

}  // namespace

TEST(HostThreads, BackToBackTinyJobsRunEveryIndexOnce) {
  // Jobs shorter than a worker's entry into them: workers enter late,
  // find a job closed or a newer one open, and the caller may run every
  // index alone.  Each index must still run exactly once per call.
  auto& pool = accel::host_threads();
  std::array<std::atomic<int>, 9> hits{};
  for (int call = 0; call < 20000; ++call) {
    const std::size_t n = 2 + static_cast<std::size_t>(call % 8);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].exchange(0), i < n ? 1 : 0)
          << "call " << call << " n = " << n << " index " << i;
    }
  }
}

TEST(HostThreads, CallWaitsForAnIndexStillRunningOnAWorker) {
  auto& pool = accel::host_threads();
  if (pool.workers() == 0) {
    GTEST_SKIP() << "no workers";
  }
  const auto caller = std::this_thread::get_id();
  int on_worker = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> started{0};
    std::atomic<bool> worker_started{false};
    std::atomic<bool> worker_done{false};
    pool.parallel_for(2, [&](std::size_t) {
      started.fetch_add(1);
      if (std::this_thread::get_id() == caller) {
        await_count(started, 2);  // then run out of indices at once
      } else {
        worker_started.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        worker_done.store(true);
      }
    });
    EXPECT_EQ(worker_done.load(), worker_started.load()) << round;
    on_worker += worker_started.load() ? 1 : 0;
  }
  EXPECT_GT(on_worker, 0);
}

TEST(HostThreads, ExceptionFromAWorkerInATinyJob) {
  auto& pool = accel::host_threads();
  if (pool.workers() == 0) {
    GTEST_SKIP() << "no workers";
  }
  const auto caller = std::this_thread::get_id();
  int thrown = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> started{0};
    try {
      pool.parallel_for(2, [&](std::size_t) {
        started.fetch_add(1);
        if (std::this_thread::get_id() != caller) {
          throw std::runtime_error("worker");
        }
        await_count(started, 2);
      });
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "worker");
      ++thrown;
    }
  }
  // A worker takes the second index while the caller waits in the first
  // unless the host starves every worker for a second.
  EXPECT_GT(thrown, 0);
  EXPECT_EQ(visit_counts(257), std::vector<int>(257, 1));
}

TEST(HostThreads, BusyPoolRunsCallsInlineOnTheirOwnThread) {
  auto& pool = accel::host_threads();
  // Nested: every inner index runs on the thread of its outer index.
  std::atomic<int> strays{0};
  pool.parallel_for(8, [&](std::size_t) {
    const auto outer = std::this_thread::get_id();
    pool.parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) strays.fetch_add(1);
    });
  });
  EXPECT_EQ(strays.load(), 0);
  // A second user thread calls while this one holds the pool.
  std::atomic<bool> other_done{false};
  std::atomic<int> other_strays{0};
  std::atomic<int> other_hits{0};
  pool.parallel_for(2, [&](std::size_t i) {
    if (i != 0) return;
    std::thread other([&] {
      const auto self = std::this_thread::get_id();
      pool.parallel_for(64, [&](std::size_t) {
        if (std::this_thread::get_id() != self) other_strays.fetch_add(1);
        other_hits.fetch_add(1);
      });
      other_done.store(true);
    });
    other.join();
  });
  EXPECT_TRUE(other_done.load());
  EXPECT_EQ(other_hits.load(), 64);
  EXPECT_EQ(other_strays.load(), 0);
}

TEST(HostThreads, ChunksCoverEveryElementOnceOnWholeGrains) {
  auto& pool = accel::host_threads();
  constexpr std::size_t g = accel::HostThreads::kGrain;
  const std::size_t most =
      2 * (static_cast<std::size_t>(pool.workers()) + 1);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, g - 1, g, g + 1, 2 * g, 7 * g + 5,
        40 * g + 33}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> ranges{0};
    std::atomic<int> misaligned{0};
    pool.parallel_chunks(n, [&](std::size_t b, std::size_t e) {
      ranges.fetch_add(1);
      if (b % g != 0 || b >= e) misaligned.fetch_add(1);
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    std::vector<int> counts;
    for (const auto& h : hits) counts.push_back(h.load());
    EXPECT_EQ(counts, std::vector<int>(n, 1)) << "n = " << n;
    EXPECT_EQ(misaligned.load(), 0) << "n = " << n;
    EXPECT_LE(ranges.load(), n <= g ? std::min<std::size_t>(n, 1) : most)
        << "n = " << n;
  }
  // Inside a pool job the pool is busy: one call over the whole range.
  const std::size_t n = 40 * g + 33;
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  pool.parallel_for(2, [&](std::size_t i) {
    if (i != 0) return;
    pool.parallel_chunks(n, [&](std::size_t b, std::size_t e) {
      calls.emplace_back(b, e);
    });
  });
  EXPECT_EQ(calls, (std::vector<std::pair<std::size_t, std::size_t>>{{0, n}}));
}

namespace {

/// The window scan written out per window, without ranges or a pool.
accel::WindowConflicts serial_window_count(const std::vector<std::int64_t>& lanes,
                                           std::int64_t bound) {
  accel::WindowConflicts out;
  for (std::size_t w0 = 0; w0 < lanes.size(); w0 += 32) {
    const std::size_t w1 = std::min(lanes.size(), w0 + 32);
    for (std::size_t k = w0; k < w1; ++k) {
      if (lanes[k] < 0 || lanes[k] >= bound) continue;
      ++out.valid;
      for (std::size_t p = w0; p < k; ++p) {
        if (lanes[p] == lanes[k]) {
          ++out.conflicts;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace

TEST(WindowConflicts, PoolRangesMatchASerialCount) {
  constexpr std::size_t g = accel::HostThreads::kGrain;
  const std::int64_t bound = 50;
  std::mt19937_64 rng(7);
  // Targets in [-10, 60): negative lanes and lanes >= bound are dropped.
  std::uniform_int_distribution<std::int64_t> lane(-10, 59);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{31}, std::size_t{32}, std::size_t{33},
        g - 1, g, g + 1, 3 * g + 17, 9 * g + 31}) {
    std::vector<std::int64_t> lanes(n);
    for (auto& l : lanes) l = lane(rng);
    const auto want = serial_window_count(lanes, bound);
    const auto got = accel::count_window_conflicts(lanes, bound);
    EXPECT_EQ(got.valid, want.valid) << "n = " << n;
    EXPECT_EQ(got.conflicts, want.conflicts) << "n = " << n;
    // From inside a job the pool is busy and the scan runs whole.
    accel::WindowConflicts inline_count;
    accel::host_threads().parallel_for(2, [&](std::size_t i) {
      if (i == 0) inline_count = accel::count_window_conflicts(lanes, bound);
    });
    EXPECT_EQ(inline_count.valid, want.valid) << "n = " << n;
    EXPECT_EQ(inline_count.conflicts, want.conflicts) << "n = " << n;
  }
}
