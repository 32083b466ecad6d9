#pragma once

// ExecContext: everything one process needs to execute kernels — the
// simulated device, virtual clock, time log, host model, both backend
// runtimes, and the kernel dispatch table (paper §3.2.1: implementations
// selectable globally, per pipeline, or per kernel).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accel/host_model.hpp"
#include "accel/sim_device.hpp"
#include "accel/timelog.hpp"
#include "config/schedule.hpp"
#include "core/types.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "omptarget/runtime.hpp"
#include "resilience/manager.hpp"
#include "xla/jit.hpp"

namespace toast::core {

struct ExecConfig {
  Backend backend = Backend::kCpu;
  /// OpenMP threads of this process and total busy threads on the socket.
  int threads = 4;
  int socket_active_threads = 64;
  /// GPU sharing situation for this process.
  accel::Sharing sharing = accel::Sharing::kExclusive;
  int procs_per_gpu = 1;
  /// Paper-scale over executed-scale work ratio (timestream domain).
  double work_scale = 1.0;
  /// Paper-scale over executed-scale size ratio for map-domain buffers
  /// (e.g. (512/nside)^2 for production-resolution maps).
  double map_scale = 1.0;
  /// The unified schedule-space view of this process (docs/MODEL.md §12).
  /// The context applies its stream count to both backend runtimes and
  /// reads the JAX pool-preallocation flag from it; `backend` above is
  /// the *resolved* dispatch default — callers deriving an ExecConfig
  /// from a ScheduleConfig (mpisim does) keep the two coherent.
  config::ScheduleConfig schedule;
  /// Host-side cost of submitting one OpenMP target region; varies by
  /// compiler runtime (NVHPC/Clang/GCC differ, paper §3.3).
  double omp_dispatch_overhead = 6.0e-6;
  accel::DeviceSpec device_spec = accel::a100_spec();
  accel::HostSpec host_spec = accel::milan_spec();
  /// Fault-injection schedule (empty: injector disarmed, all hooks are
  /// no-ops and execution is bit-for-bit the no-fault timeline).
  fault::FaultPlan fault_plan;
  /// Declarative recovery policy (empty: resilience manager disarmed,
  /// every consult is a pass-through and execution is bit-for-bit the
  /// policy-free timeline).
  resilience::Policy resilience_policy;
};

class ExecContext {
 public:
  explicit ExecContext(const ExecConfig& config);

  const ExecConfig& config() const { return config_; }
  Backend backend() const { return config_.backend; }

  accel::SimDevice& device() { return device_; }
  accel::VirtualClock& clock() { return clock_; }
  /// The span tracer: source of truth for all charged time.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Flat per-category view (the seed's TimeLog), aggregated from the
  /// tracer's logged spans on demand.
  accel::TimeLog log() const { return tracer_.timelog(); }
  const accel::HostModel& host() const { return host_; }
  omptarget::Runtime& omp() { return omp_rt_; }
  xla::Runtime& jax() { return jax_rt_; }
  /// The fault injector every layer of this context shares (disarmed
  /// when the config's plan is empty).
  fault::FaultInjector& faults() { return faults_; }
  const fault::FaultInjector& faults() const { return faults_; }
  /// The resilience policy manager the injector and the recovery paths
  /// consult (disarmed when the config's policy is empty).
  resilience::Manager& resilience() { return resilience_; }
  const resilience::Manager& resilience() const { return resilience_; }

  // --- dispatch ----------------------------------------------------------

  /// Backend used for a given kernel: the per-kernel override if present,
  /// otherwise the context default.
  Backend backend_for(const std::string& kernel) const;
  void set_kernel_backend(const std::string& kernel, Backend b);
  void clear_kernel_backends() { overrides_.clear(); }

  // --- charging helpers ---------------------------------------------------

  /// Charge a CPU (OpenMP-threaded) kernel execution (timestream-domain
  /// work: scaled by work_scale).
  void charge_host_kernel(const std::string& name,
                          const accel::WorkEstimate& work);
  /// Same, but the estimate is already at paper scale (map-domain ops
  /// apply map_scale themselves).
  void charge_host_kernel_raw(const std::string& name,
                              const accel::WorkEstimate& work);
  /// Charge host-serial framework time (Python-side work in the paper).
  void charge_serial(const std::string& name, double seconds);

  double elapsed() const { return clock_.now(); }

  // --- measured model inputs ---------------------------------------------

  /// `accel::count_window_conflicts(lanes).rate()` of an atomic index
  /// stream.  A job runs its whole pipeline on one observation before the
  /// next, so the map-making loop scatters the same pixels field on every
  /// iteration; the context remembers the rate of the last stream it
  /// scanned.  The entry keeps a copy of the lanes and matches only a
  /// bitwise-equal stream, so a changed lane is a recount even at the
  /// same address.  The memo lives as long as the context (one job).
  double conflict_rate(std::span<const std::int64_t> lanes);
  /// Streams conflict_rate() actually scanned (its memo misses).
  std::size_t conflict_scans() const { return conflict_scans_; }

 private:
  ExecConfig config_;
  accel::SimDevice device_;
  accel::VirtualClock clock_;
  obs::Tracer tracer_;
  fault::FaultInjector faults_;
  resilience::Manager resilience_;
  accel::HostModel host_;
  omptarget::Runtime omp_rt_;
  xla::Runtime jax_rt_;
  std::map<std::string, Backend> overrides_;
  std::vector<std::int64_t> conflict_lanes_;
  double conflict_rate_ = 0.0;
  std::size_t conflict_scans_ = 0;
};

}  // namespace toast::core
