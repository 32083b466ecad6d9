#pragma once

// Mini OpenMP Target Offload runtime.
//
// Reproduces the structure of the paper's OpenMP port (§3.1.2):
//   - a host<->device pointer association table with explicit
//     update_device / update_host / reset operations (TOAST's accel data
//     API, implemented over omp_target_alloc + the memory pool);
//   - a launch entry point modelling
//       #pragma omp target teams distribute parallel for collapse(3)
//     over (detector, interval, padded-sample) index space with the
//     guard-cut pattern: iterations beyond the true interval length return
//     without doing work, and only the guard test is charged.
//
// Functional execution happens on the host against *device shadow copies*
// of the mapped buffers: a kernel that runs before its inputs were
// update_device()'d sees stale data, exactly like a real offload bug.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "accel/host_threads.hpp"
#include "accel/sim_device.hpp"
#include "accel/timelog.hpp"
#include "accel/work.hpp"
#include "obs/trace.hpp"
#include "omptarget/pool.hpp"
#include "sched/scheduler.hpp"

namespace toast::omptarget {

/// Per-iteration cost declaration for a target region.  OpenMP Target
/// Offload has no view of the loop body, so (like a performance engineer
/// reasoning about a kernel) the port declares its per-iteration work;
/// tests cross-check these declarations against the mini-XLA's counted
/// costs.
struct IterCost {
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  /// Cost of an iteration cut by the interval guard (just the test).
  double guard_flops = 2.0;
  /// Longest-path multiplier for divergent branches inside the body; SIMT
  /// warps pay the longest taken path, not the sum of all paths.
  double divergence = 1.0;
  /// Atomic updates per executed iteration and their conflict rate.
  double atomic_ops = 0.0;
  double atomic_conflict_rate = 0.0;
};

/// Async launch clauses for a target region, the OpenMP 5.x
/// `nowait` / `depend(...)` pair mapped onto the stream engine: a nowait
/// region enqueues on a stream (device queue) and returns after paying
/// only the host dispatch cost; `depends` are events from record_event().
struct LaunchOptions {
  bool nowait = false;
  sched::StreamId stream = 0;
  std::vector<sched::EventId> depends;
};

class Runtime {
 public:
  Runtime(accel::SimDevice& device, accel::VirtualClock& clock,
          obs::Tracer& tracer)
      : device_(device),
        clock_(clock),
        tracer_(tracer),
        pool_(device),
        sched_(device, clock, &tracer, /*n_streams=*/1, "omptarget") {}

  accel::SimDevice& device() { return device_; }
  accel::VirtualClock& clock() { return clock_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Flat per-category view of everything this runtime charged (the
  /// seed's TimeLog, aggregated from the tracer's spans).
  accel::TimeLog log() const { return tracer_.timelog(); }
  DevicePool& pool() { return pool_; }

  /// Attach a fault injector to this runtime's scheduler and pool
  /// (nullptr detaches).  Not owned.
  void set_fault_injector(fault::FaultInjector* f) {
    sched_.set_fault_injector(f);
    pool_.set_fault_injector(f);
  }

  /// Host-side cost of submitting one target region (OpenMP runtime +
  /// driver).  Lower than the JAX dispatch path, which is one of the
  /// paper's findings (§4.1, footnote 10).
  double dispatch_overhead() const { return dispatch_overhead_; }
  void set_dispatch_overhead(double s) { dispatch_overhead_ = s; }

  /// Ratio of paper-scale work to functionally executed work; multiplies
  /// work estimates and transfer sizes before they reach the clocks.
  double work_scale() const { return work_scale_; }
  void set_work_scale(double s) { work_scale_ = s; }

  // --- data environment (TOAST accel data API over map clauses) ---------

  /// Map a host buffer to the device: allocates a device shadow copy.
  void data_create(const void* host, std::size_t bytes);
  /// Copy host -> device shadow.
  void data_update_device(const void* host);
  /// The `nowait` form (paper §2.2.2: compilers attempt asynchronous data
  /// movement, but overlapping it with execution needs explicit
  /// dependencies).  The copy happens functionally at once; its modelled
  /// cost runs on `stream`'s timeline, serializes with other transfers on
  /// the PCIe link, and overlaps compute until a synchronization point.
  void data_update_device_async(const void* host, sched::StreamId stream = 0);
  /// Synchronize queued async transfers: charges only the portion of the
  /// transfer time not already hidden behind work submitted since.
  void wait_transfers();
  /// Completion time (virtual clock) of the queued transfers; 0.0 when
  /// the link is drained.
  double pending_transfer_completion() const {
    return sched_.pending_transfer_completion();
  }
  /// Copy device shadow -> host.
  void data_update_host(const void* host);
  /// Async device -> host readback on `stream` (the functional copy
  /// happens at once; the modelled cost queues on the link).
  void data_update_host_async(const void* host, sched::StreamId stream = 0);
  /// Zero the device shadow (device-side memset).
  void data_reset(const void* host);
  /// Unmap and release the device shadow.
  void data_delete(const void* host);
  bool data_present(const void* host) const;
  std::size_t data_bytes(const void* host) const;

  /// Device address of a mapped buffer (the shadow copy), typed.  Throws
  /// if the buffer is not mapped — the moral equivalent of an offload
  /// segfault, but diagnosable.
  template <typename T>
  T* device_ptr(const T* host) {
    return static_cast<T*>(raw_device_ptr(host));
  }

  // --- kernel launch -----------------------------------------------------

  /// #pragma omp target teams distribute parallel for collapse(3).
  ///
  /// Executes body(a, b, c) over [0,na) x [0,nb) x [0,nc); the body
  /// returns false when the interval guard cut the iteration.  Rows of `a`
  /// run in parallel on accel::host_threads(), each on its own copy of the
  /// body with `c` fastest from 0, so a body may keep running state within
  /// a row but must write disjoint memory per row.  A region that declares
  /// atomic updates (cost.atomic_ops != 0), or whose body cannot be
  /// copied, runs the caller's body in place in row-major order: program
  /// order stands in for the device's atomics.  Charges the device model
  /// with the measured executed/cut mix and logs the virtual time under
  /// `name`.  Returns the (scaled) work estimate for inspection.  The body
  /// is a template parameter, so the loop inlines it as the compiler
  /// inlines a real target region's body.
  template <typename Body>
  accel::WorkEstimate target_for_collapse3(const std::string& name,
                                           std::int64_t na, std::int64_t nb,
                                           std::int64_t nc,
                                           const IterCost& cost, Body&& body,
                                           const LaunchOptions& opts = {}) {
    using RowBody = std::remove_cvref_t<Body>;
    const auto run_row = [nb, nc](auto& row_body, std::int64_t a) {
      std::int64_t executed = 0;
      for (std::int64_t b = 0; b < nb; ++b) {
        for (std::int64_t c = 0; c < nc; ++c) {
          executed += row_body(a, b, c) ? 1 : 0;
        }
      }
      return executed;
    };
    const std::int64_t executed = [&] {
      if constexpr (std::is_copy_constructible_v<RowBody>) {
        if (cost.atomic_ops == 0.0) {
          std::atomic<std::int64_t> sum{0};
          accel::host_threads().parallel_for(
              static_cast<std::size_t>(std::max<std::int64_t>(na, 0)),
              [&](std::size_t a) {
                RowBody row_body = body;
                sum.fetch_add(
                    run_row(row_body, static_cast<std::int64_t>(a)),
                    std::memory_order_relaxed);
              });
          return sum.load(std::memory_order_relaxed);
        }
      }
      std::int64_t in_order = 0;
      for (std::int64_t a = 0; a < na; ++a) {
        in_order += run_row(body, a);
      }
      return in_order;
    }();
    // Trip counts are exact in a double below 2^53.
    const std::int64_t total = (na > 0 && nb > 0 && nc > 0) ? na * nb * nc : 0;
    return charge(name, static_cast<double>(executed),
                  static_cast<double>(total - executed),
                  static_cast<double>(na) * static_cast<double>(nb) *
                      static_cast<double>(nc),
                  cost, opts);
  }

  /// Single collapsed loop (used by the amplitude-space kernels).
  template <typename Body>
  accel::WorkEstimate target_for(const std::string& name, std::int64_t n,
                                 const IterCost& cost, Body&& body,
                                 const LaunchOptions& opts = {}) {
    std::int64_t executed = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      executed += body(i) ? 1 : 0;
    }
    return charge(name, static_cast<double>(executed),
                  static_cast<double>((n > 0 ? n : 0) - executed),
                  static_cast<double>(n), cost, opts);
  }

  // --- streams and events (the OpenMP task-graph surface) ----------------

  /// The stream engine all of this runtime's device time flows through.
  sched::Scheduler& scheduler() { return sched_; }
  /// Snapshot `stream`'s completion front for use in LaunchOptions or
  /// cross-stream waits.
  sched::EventId record_event(sched::StreamId stream) {
    return sched_.record_event(stream);
  }
  /// Block the host until `stream` drains (taskwait on one queue).
  void sync_stream(sched::StreamId stream) {
    sched_.sync_stream(stream, "accel_stream_wait");
  }
  /// Block the host until every queue and engine drains.
  void sync_all() { sched_.sync_all("accel_device_wait"); }

 private:
  void* raw_device_ptr(const void* host);
  accel::WorkEstimate charge(const std::string& name, double executed,
                             double cut, double total_items,
                             const IterCost& cost, const LaunchOptions& opts);

  struct Mapping {
    DevicePtr dptr;
    std::vector<std::byte> shadow;
  };

  accel::SimDevice& device_;
  accel::VirtualClock& clock_;
  obs::Tracer& tracer_;
  DevicePool pool_;
  sched::Scheduler sched_;
  std::map<const void*, Mapping> mapped_;
  double dispatch_overhead_ = 6.0e-6;
  double work_scale_ = 1.0;
};

/// RAII form of "#pragma omp target data map(...)": maps a set of host
/// buffers on entry and unmaps them on exit, optionally copying in/out.
class ScopedDataRegion {
 public:
  struct MapSpec {
    const void* host = nullptr;
    std::size_t bytes = 0;
    bool to_device = false;    // map(to:) / map(tofrom:)
    bool from_device = false;  // map(from:) / map(tofrom:)
  };

  ScopedDataRegion(Runtime& rt, std::vector<MapSpec> maps);
  ~ScopedDataRegion();

  ScopedDataRegion(const ScopedDataRegion&) = delete;
  ScopedDataRegion& operator=(const ScopedDataRegion&) = delete;

 private:
  Runtime& rt_;
  std::vector<MapSpec> maps_;
};

}  // namespace toast::omptarget
