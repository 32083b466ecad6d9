#include "mpisim/job.hpp"

#include <algorithm>
#include <cmath>

#include "async/overlap.hpp"
#include "core/context.hpp"
#include "kernels/jax.hpp"
#include "mpisim/comm.hpp"
#include "sim/satellite.hpp"

namespace toast::mpisim {

namespace {

int procs_per_gpu(const bench_model::ProblemSize& p) {
  return std::max(1, (p.procs_per_node + p.gpus_per_node - 1) /
                         p.gpus_per_node);
}

/// First Tracer stream id for comm-engine NIC lanes, clear of the sched
/// compute/copy stream ids the pipeline uses.
constexpr int kCommLaneBase = 16;

}  // namespace

MemoryFootprint estimate_memory(const JobConfig& cfg) {
  const auto p = cfg.effective_problem();
  const core::Backend backend = cfg.backend_id();
  const auto mem = bench_model::memory_model();
  MemoryFootprint f;

  const double rank_bytes =
      p.paper_total_bytes() / static_cast<double>(p.total_procs());
  const bool accel = core::is_accel(backend);

  f.host_bytes_per_proc =
      rank_bytes * mem.host_resident_fraction +
      (accel ? mem.host_overhead_gpu : mem.host_overhead_cpu);
  f.host_bytes_per_node =
      f.host_bytes_per_proc * static_cast<double>(p.procs_per_node);

  if (accel) {
    const double staged_obs =
        rank_bytes * mem.staged_fraction /
        static_cast<double>(std::max(1, p.observations_per_proc));
    if (backend == core::Backend::kJax) {
      // JAX holds whole-observation arrays in its pool.
      const double pool = cfg.schedule.device.jax_preallocate
                              ? 0.75 * cfg.device_spec.memory_bytes -
                                    mem.jax_context_bytes
                              : staged_obs * mem.jax_pool_overhead;
      f.device_bytes_per_proc = mem.jax_context_bytes +
                                std::max(pool, staged_obs);
      if (cfg.schedule.device.jax_preallocate && staged_obs > pool) {
        // Preallocated pool too small for the working set.
        f.device_bytes_per_proc = cfg.device_spec.memory_bytes * 2.0;
      }
    } else {
      // The OpenMP port streams bounded detector batches.
      f.device_bytes_per_proc =
          mem.omp_context_bytes +
          std::min(staged_obs, mem.omp_batch_bytes) * mem.omp_pool_overhead;
    }
    f.device_bytes_per_gpu = f.device_bytes_per_proc *
                             static_cast<double>(procs_per_gpu(p));
    f.device_oom = f.device_bytes_per_gpu > cfg.device_spec.memory_bytes;
  }
  f.host_oom = f.host_bytes_per_node > accel::milan_spec().memory_bytes;
  return f;
}

JobResult run_benchmark_job(const JobConfig& cfg) {
  JobResult result;
  const auto p = cfg.effective_problem();
  const core::Backend backend = cfg.backend_id();
  const auto fw = bench_model::framework_model();

  result.memory = estimate_memory(cfg);
  if (result.memory.device_oom) {
    result.oom = true;
    result.oom_reason = "device memory exceeded (" +
                        std::to_string(result.memory.device_bytes_per_gpu /
                                       1e9) +
                        " GB per GPU)";
    return result;
  }
  if (result.memory.host_oom) {
    result.oom = true;
    result.oom_reason = "host memory exceeded (" +
                        std::to_string(result.memory.host_bytes_per_node /
                                       1e9) +
                        " GB per node)";
    return result;
  }

  // --- representative rank, functional execution ------------------------
  core::ExecConfig ec;
  ec.schedule = cfg.schedule;
  ec.backend = backend;
  ec.threads = p.threads_per_proc();
  ec.socket_active_threads = p.cores_per_node;
  ec.sharing = accel::Sharing::kExclusive;  // composed at job level below
  ec.procs_per_gpu = 1;
  ec.work_scale = p.sample_scale();
  // Production maps are nside 512-class; ours run at p.nside.
  ec.map_scale = (512.0 / static_cast<double>(p.nside)) *
                 (512.0 / static_cast<double>(p.nside));
  ec.device_spec = cfg.device_spec;
  ec.omp_dispatch_overhead = cfg.omp_dispatch_overhead;
  ec.fault_plan = cfg.fault_plan;
  ec.resilience_policy = cfg.resilience_policy;
  core::ExecContext ctx(ec);
  resilience::Manager& rm = ctx.resilience();
  int world = p.total_procs();
  const obs::SpanId rank_span = ctx.tracer().begin(
      "rank:" + std::string(core::to_string(backend)), "rank",
      core::to_string(backend));

  // Fresh process: cold JIT caches, and the one-time accelerator bring-up
  // (CUDA context creation, runtime init) every GPU-enabled process pays.
  kernels::jax::clear_jit_caches();
  if (core::is_accel(backend)) {
    ctx.charge_serial("accel_init",
                      backend == core::Backend::kJax ? 1.2 : 0.8);
  }

  const auto fp = sim::hex_focalplane(p.actual_n_detectors, 37.0);
  core::Data data;
  {
    obs::ScopedSpan sim_span(ctx.tracer(), "simulate_observations", "phase");
    for (int ob = 0; ob < p.observations_per_proc; ++ob) {
      sim::ScanParams scan;
      scan.spin_period =
          static_cast<double>(p.actual_n_samples) / 37.0 / 6.0;
      data.observations.push_back(sim::simulate_satellite(
          "obs" + std::to_string(ob), fp, p.actual_n_samples, scan,
          cfg.seed + static_cast<std::uint64_t>(ob)));
    }
  }

  sim::WorkflowConfig wf;
  wf.nside = p.nside;
  wf.map_iterations =
      cfg.map_iterations > 0 ? cfg.map_iterations : fw.map_iterations;
  auto pipeline =
      sim::make_benchmark_pipeline(wf, cfg.schedule.staging.mode);
  pipeline.set_schedule(cfg.schedule);
  auto run_pipeline = [&](core::Observation& ob) {
    if (cfg.pipeline_run == PipelineRun::kGraphOverlap) {
      // Staged replay with a step log, then placed against the data
      // dependencies: runtime shrinks while products stay bitwise.
      async::run_overlap(pipeline, ob, ctx);
    } else {
      pipeline.exec(ob, ctx);
    }
  };
  if (!ctx.faults().armed()) {
    for (auto& ob : data.observations) {
      run_pipeline(ob);
    }
  } else {
    // Rank-failure model: a rank that dies mid-observation is replaced
    // and the replacement replays the lost observation.  The functional
    // work runs exactly once (replaying in-place kernels would
    // double-apply); what the failure costs — the lost fraction of the
    // observation plus the replacement's bring-up — is charged to the
    // virtual clock as a logged fault span, bounded by the plan's retry
    // budget per observation.
    const double restart_seconds =
        core::is_accel(backend)
            ? (backend == core::Backend::kJax ? 1.2 : 0.8)
            : 0.1;
    const resilience::RetrySpec& plan_retry = cfg.fault_plan.retry;
    for (auto& ob : data.observations) {
      const std::string site = "mpisim_rank:" + ob.name();
      const resilience::RetrySpec rs =
          rm.armed() ? rm.retry_for(site, plan_retry) : plan_retry;
      const int max_replays = std::max(1, rs.max_attempts);
      const double t0 = ctx.clock().now();
      run_pipeline(ob);
      const double obs_seconds = ctx.clock().now() - t0;
      int fired = 0;
      for (int replay = 0; replay < max_replays; ++replay) {
        if (!ctx.faults().rank_failure(site)) {
          break;
        }
        ++fired;
        const double lost =
            rs.failed_fraction * obs_seconds + restart_seconds;
        ctx.clock().advance(lost);
        const obs::SpanId id = ctx.tracer().record(
            "fault_rank_restart", "fault", lost,
            core::to_string(backend));
        ctx.tracer().add_counter(id, "observation_" + ob.name(), 1.0);
      }
      if (fired >= max_replays && rm.allow_shrink(world)) {
        // Elastic recovery: the replay budget is exhausted, so instead of
        // replacing the rank yet again the world drops it.  The comm
        // topology is rebuilt over the survivors below and the dead
        // rank's observations are redistributed deterministically — the
        // representative rank picks up its 1/survivors share.
        const int survivors = world - 1;
        rm.note_world_shrink(site, world, survivors);
        const double extra = obs_seconds *
                             static_cast<double>(p.observations_per_proc) /
                             static_cast<double>(survivors);
        rm.note_redistribute(site, extra, p.observations_per_proc);
        world = survivors;
      }
    }
  }

  // Serial framework time (I/O, distribution, bookkeeping) at paper scale.
  const double rank_samples =
      p.paper_total_samples / static_cast<double>(p.total_procs());
  ctx.charge_serial("framework_serial",
                    fw.serial_seconds_per_sample * rank_samples);
  ctx.tracer().end(rank_span);

  // --- job composition ----------------------------------------------------
  const double elapsed = ctx.clock().now();
  result.device_seconds = ctx.device().total_exec_seconds();
  result.host_seconds = elapsed - result.device_seconds;
  result.transfer_seconds =
      ctx.log().seconds("accel_data_update_device") +
      ctx.log().seconds("accel_data_update_host");
  result.rank_log = ctx.log();

  const int gpu_share = procs_per_gpu(p);
  double rank_runtime = elapsed;
  if (core::is_accel(backend)) {
    const double device_busy =
        result.device_seconds * static_cast<double>(gpu_share);
    result.device_busy_per_gpu = device_busy;
    if (!cfg.schedule.device.mps && gpu_share > 1) {
      // Without MPS the CUDA driver time-slices whole contexts.  The
      // pipeline interleaves host and device work so finely that each
      // process effectively holds the GPU through its pipeline section:
      // the Q processes on one device serialize, capping performance at
      // about one process per device (paper §3.1.2).
      const double serial_part = ctx.log().seconds("framework_serial") +
                                 ctx.log().seconds("accel_init");
      const double pipeline_part = elapsed - serial_part;
      const double switches =
          static_cast<double>(ctx.device().total_launches()) *
          static_cast<double>(gpu_share);
      rank_runtime = serial_part +
                     static_cast<double>(gpu_share) * pipeline_part +
                     switches * ctx.device().spec().context_switch_cost;
    } else {
      // PCIe is shared by the processes on one GPU (partial contention:
      // transfers are bursty at pipeline boundaries).
      const double host_lane =
          result.host_seconds +
          result.transfer_seconds * 0.4 * static_cast<double>(gpu_share - 1);
      // Oversubscription overlap: with Q processes per device, one
      // process's host gaps are hidden behind the others' kernels.
      const double hi = std::max(host_lane, device_busy);
      const double lo = std::min(host_lane, device_busy);
      rank_runtime = hi + lo / static_cast<double>(gpu_share);
    }
  }

  // Final map reduction across the job at paper scale (nside 512-class
  // production maps).
  const double paper_map_bytes = 12.0 * 512.0 * 512.0 * 3.0 * 8.0;
  // Collectives degradation ladder: once the policy escalates the
  // "collectives" domain, the step-scheduled engine gives way to the
  // closed-form CommModel (always over the surviving world).
  const bool engine_collectives =
      cfg.schedule.comm.mode == CommMode::kEngine &&
      rm.level(resilience::Domain::kCollectives) == 0;
  bool engine_done = false;
  if (engine_collectives) {
    // Step-scheduled allreduce on the packed cluster topology: per-step
    // chunk transfers on the ranks' shared NIC lanes, with link/chunk
    // fault hooks.  NIC-lane spans start above the compute/copy streams.
    // After an elastic shrink the topology is rebuilt over the survivors.
    comm::Topology topo = comm::Topology::cluster(
        p.total_procs(), p.procs_per_node, cfg.network);
    if (world < p.total_procs()) {
      topo = topo.shrink(world);
    }
    const comm::Engine engine(topo);
    comm::RunOptions copt;
    copt.epoch = ctx.clock().now();
    copt.tracer = &ctx.tracer();
    copt.lane_base = kCommLaneBase;
    // Single-node jobs would otherwise have nothing to show: intra-node
    // steps get lanes too (after the NIC block).
    copt.trace_intra = true;
    copt.site = "map_allreduce";
    copt.faults = &ctx.faults();
    copt.max_chunk_bytes = cfg.schedule.comm.chunk_bytes;
    if (rm.armed()) {
      try {
        result.comm_seconds = engine.allreduce_seconds(
            paper_map_bytes, cfg.schedule.comm.algorithm, copt);
        engine_done = true;
      } catch (const fault::PersistentFaultError&) {
        // Exhausted chunk-retry budget: report to the ladder and fall
        // back to the closed-form model below.
        rm.report_fault(resilience::Domain::kCollectives,
                        "map_allreduce");
      }
    } else {
      result.comm_seconds = engine.allreduce_seconds(
          paper_map_bytes, cfg.schedule.comm.algorithm, copt);
      engine_done = true;
    }
  }
  if (!engine_done) {
    const CommModel comm(cfg.network);
    result.comm_seconds = comm.allreduce_seconds(paper_map_bytes, world);
  }
  const obs::SpanId comm_span = ctx.tracer().record_at(
      "map_allreduce", "comm", ctx.clock().now(), result.comm_seconds, "",
      nullptr, /*logged=*/false);
  ctx.tracer().add_counter(comm_span, "bytes", paper_map_bytes);
  ctx.tracer().add_counter(comm_span, "ranks", world);

  result.rank_spans = ctx.tracer().spans();
  result.fault_counters = ctx.faults().counters();
  for (const auto& [key, value] : rm.counters()) {
    result.fault_counters[key] += value;
  }
  result.world_ranks = world;
  const core::PlanStats& ps = pipeline.plan_stats();
  result.plan_counters = {
      {"plan_cache_hits", ps.cache_hits},
      {"plan_cache_misses", ps.cache_misses},
      {"plan_replans", ps.replans},
      {"transfers_avoided", ps.transfers_avoided},
      {"evictions", ps.evictions},
      {"prefetched_uploads", ps.prefetched_uploads},
      {"peak_mapped_bytes", ps.peak_mapped_bytes},
  };
  result.degraded_kernels.assign(ctx.faults().degraded_kernels().begin(),
                                 ctx.faults().degraded_kernels().end());
  result.runtime = rank_runtime + result.comm_seconds;
  return result;
}

}  // namespace toast::mpisim
