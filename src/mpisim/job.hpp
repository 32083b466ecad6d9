#pragma once

// Job-level simulation: run the paper's benchmark for one configuration
// (problem size, backend, process count, MPS on/off, staging strategy)
// and report the modelled job runtime plus per-category timings.
//
// One representative rank is executed functionally (all ranks are
// statistically identical); the job model then composes:
//   - host lane: everything the rank's virtual clock accrued minus device
//     execution (serial framework, CPU kernels, dispatch, JIT, transfers),
//   - device lane: the device-execution seconds of the Q = procs-per-GPU
//     ranks sharing one GPU (with context-switch penalties when MPS is
//     off),
//   - overlap: oversubscription hides host gaps behind other processes'
//     kernels; with one process per device nothing overlaps,
//   - a final map-domain allreduce over the network model,
//   - paper-scale memory-footprint checks that produce the OOM failures
//     of Figure 4.

#include <map>
#include <string>

#include "accel/sim_device.hpp"
#include "accel/specs.hpp"
#include "accel/timelog.hpp"
#include "bench_model/calibration.hpp"
#include "comm/engine.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "bench_model/problem.hpp"
#include "core/pipeline.hpp"
#include "core/types.hpp"
#include "resilience/policy.hpp"
#include "sim/workflow.hpp"

namespace toast::mpisim {

/// How the end-of-run map allreduce is costed (kModel = closed-form
/// CommModel, the seed behaviour; kEngine = step-scheduled comm::Engine
/// on the cluster topology).  The canonical enum is the unified config
/// layer's comm-mode axis; mpisim re-exports it under its historical
/// name.
using CommMode = config::CommMode;

/// How the pipeline body of each observation is timed.  Not a schedule
/// axis (toastcase-schedule-v1 is pinned by its canonical hash): both
/// run the same plan driver (core::execute_plan) and produce bitwise
/// identical products.
enum class PipelineRun {
  kStaged,        ///< staged replay: the serial sum of the steps
  kGraphOverlap,  ///< step log placed on a LaneSchedule (placed makespan)
};

struct JobConfig {
  bench_model::ProblemSize problem;
  /// The unified schedule-space knob surface (docs/MODEL.md §12):
  /// backend slot, staging mode + prefetch/evict, stream count, comm
  /// mode/algorithm/chunk bound, solver async-comm mode, shape override
  /// and device flags (MPS, JAX preallocation).  Everything here used to
  /// be scattered per-field plumbing; the job threads it through
  /// ExecConfig, Pipeline and the comm engine unchanged, so one parsed
  /// `toastcase-schedule-v1` artifact configures the whole stack.
  config::ScheduleConfig schedule;
  /// Overlap observation pipelines: the executed steps are re-timed
  /// against their data dependencies (async::run_overlap), so runtime
  /// may shrink while products and TimeLog stay bitwise those of staged
  /// replay.
  PipelineRun pipeline_run = PipelineRun::kStaged;
  /// Override the workflow (0 keeps the calibrated default).
  int map_iterations = 0;
  /// Accelerator specification (defaults to the A100; the extension
  /// benchmark sweeps other targets).
  accel::DeviceSpec device_spec = accel::a100_spec();
  /// OpenMP-target dispatch overhead (compiler-runtime dependent).
  double omp_dispatch_overhead = 6.0e-6;
  /// Interconnect the end-of-run map allreduce is costed on (both the
  /// closed-form model and the engine topology build from it).
  accel::NetworkSpec network = accel::slingshot_spec();
  std::uint64_t seed = 2023;
  /// Deterministic fault schedule (empty plan = no fault layer at all;
  /// the run is bit-for-bit identical to a plan-free build).  Rank
  /// failures are handled at this level: a rank that dies during an
  /// observation is replaced and the lost work is recharged.
  fault::FaultPlan fault_plan = {};
  /// Declarative recovery policy (empty = disarmed pass-through).  With
  /// elastic recovery enabled, a rank failure that exhausts its replay
  /// budget shrinks the world instead: the comm topology is rebuilt over
  /// the survivors and the dead rank's observations are redistributed
  /// deterministically.
  resilience::Policy resilience_policy = {};

  JobConfig() = default;
  /// Convenience spelling for the common "problem + backend slot" case
  /// (keeps the historical `JobConfig{problem, Backend::kX}` sites).
  JobConfig(bench_model::ProblemSize p, core::Backend b)
      : problem(std::move(p)) {
    schedule.set_backend(b);
  }

  /// Resolved backend of the schedule's slot name.
  core::Backend backend_id() const { return schedule.backend_id(); }

  /// The problem with the schedule's shape axis applied: nonzero
  /// `shape.nodes` / `shape.procs_per_node` override the workload's own
  /// geometry (this is how the autotuner searches ranks × threads).
  bench_model::ProblemSize effective_problem() const {
    bench_model::ProblemSize p = problem;
    if (schedule.shape.nodes > 0) {
      p.nodes = schedule.shape.nodes;
    }
    if (schedule.shape.procs_per_node > 0) {
      p.procs_per_node = schedule.shape.procs_per_node;
    }
    return p;
  }
};

struct MemoryFootprint {
  double host_bytes_per_proc = 0.0;
  double device_bytes_per_proc = 0.0;
  double host_bytes_per_node = 0.0;
  double device_bytes_per_gpu = 0.0;
  bool host_oom = false;
  bool device_oom = false;
};

struct JobResult {
  bool oom = false;
  std::string oom_reason;
  /// Modelled job runtime (virtual seconds) at paper scale.
  double runtime = 0.0;
  /// Decomposition of the representative rank.
  double host_seconds = 0.0;
  double device_seconds = 0.0;      // one rank, exclusive
  double device_busy_per_gpu = 0.0; // all ranks sharing the GPU
  double transfer_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Per-category virtual time of the representative rank.
  accel::TimeLog rank_log;
  /// Full span trace of the representative rank (per-kernel, per-operator
  /// and per-phase spans; export with obs::write_chrome_trace /
  /// write_metrics_json).
  std::vector<obs::Span> rank_spans;
  MemoryFootprint memory;
  /// Flat fault/recovery counters of the representative rank (empty when
  /// no fault fired); keys like "fault_transfer_retries".
  std::map<std::string, double> fault_counters;
  /// Plan/execute statistics of the representative rank's pipeline
  /// ("plan_cache_hits", "transfers_avoided", "peak_mapped_bytes", ...).
  std::map<std::string, double> plan_counters;
  /// Kernels that degraded to their CPU implementation mid-run.
  std::vector<std::string> degraded_kernels;
  /// Ranks still alive at the end of the job (total_procs() unless an
  /// elastic world shrink dropped some).
  int world_ranks = 0;
};

/// Paper-scale memory footprints for a configuration (also used alone by
/// the Figure 4 bench to annotate OOM points).
MemoryFootprint estimate_memory(const JobConfig& cfg);

/// Run the benchmark job.
JobResult run_benchmark_job(const JobConfig& cfg);

}  // namespace toast::mpisim
