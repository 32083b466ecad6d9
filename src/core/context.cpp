#include "core/context.hpp"

#include <algorithm>

#include "accel/work.hpp"

namespace toast::core {

ExecContext::ExecContext(const ExecConfig& config)
    : config_(config),
      device_(config.device_spec),
      tracer_(&clock_),
      faults_(config.fault_plan, &clock_, &tracer_),
      resilience_(config.resilience_policy, &clock_, &tracer_,
                  config.fault_plan.seed),
      host_(config.host_spec),
      omp_rt_(device_, clock_, tracer_),
      jax_rt_(device_, clock_, tracer_) {
  device_.set_trace_sink(&tracer_);
  device_.set_sharing(config.sharing, config.procs_per_gpu);
  faults_.set_resilience(&resilience_);
  if (faults_.armed()) {
    device_.set_fault_hook(&faults_);
    omp_rt_.set_fault_injector(&faults_);
    jax_rt_.set_fault_injector(&faults_);
  }
  omp_rt_.set_dispatch_overhead(config.omp_dispatch_overhead);
  omp_rt_.set_work_scale(config.work_scale);
  jax_rt_.set_work_scale(config.work_scale);
  if (config.schedule.streams > 1) {
    // The schedule's stream count drives both backend runtimes; the
    // default (1) leaves them exactly as constructed, bit-for-bit.
    jax_rt_.set_streams(config.schedule.streams);
    omp_rt_.scheduler().set_streams(config.schedule.streams);
  }
  if (config.backend == Backend::kJax &&
      config.schedule.device.jax_preallocate) {
    jax_rt_.enable_preallocation();
  }
  if (config.backend == Backend::kJaxCpu) {
    jax_rt_.set_cpu_backend(config.host_spec, config.threads,
                            config.socket_active_threads);
  }
}

Backend ExecContext::backend_for(const std::string& kernel) const {
  const auto it = overrides_.find(kernel);
  return it == overrides_.end() ? config_.backend : it->second;
}

void ExecContext::set_kernel_backend(const std::string& kernel, Backend b) {
  overrides_[kernel] = b;
}

void ExecContext::charge_host_kernel(const std::string& name,
                                     const accel::WorkEstimate& work) {
  const accel::WorkEstimate scaled = work.scaled(config_.work_scale);
  const double t = host_.exec_time(scaled, config_.threads,
                                   config_.socket_active_threads);
  clock_.advance(t);
  tracer_.record(name, "kernel", t, "cpu", &scaled);
}

void ExecContext::charge_host_kernel_raw(const std::string& name,
                                         const accel::WorkEstimate& work) {
  const double t = host_.exec_time(work, config_.threads,
                                   config_.socket_active_threads);
  clock_.advance(t);
  tracer_.record(name, "kernel", t, "cpu", &work);
}

void ExecContext::charge_serial(const std::string& name, double seconds) {
  clock_.advance(seconds);
  tracer_.record(name, "serial", seconds);
}

double ExecContext::conflict_rate(std::span<const std::int64_t> lanes) {
  if (conflict_scans_ > 0 && std::ranges::equal(conflict_lanes_, lanes)) {
    return conflict_rate_;
  }
  ++conflict_scans_;
  conflict_lanes_.assign(lanes.begin(), lanes.end());
  conflict_rate_ = accel::count_window_conflicts(lanes).rate();
  return conflict_rate_;
}

}  // namespace toast::core
