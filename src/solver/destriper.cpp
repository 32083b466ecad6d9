#include "solver/destriper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/cpu.hpp"
#include "kernels/jax.hpp"
#include "kernels/omptarget.hpp"

namespace toast::solver {

namespace {

using core::Backend;

// Backend dispatch for the kernels the solver composes.  The solver works
// on scratch host vectors (it owns the CG state), so device pointers and
// the pipeline staging machinery are not involved; the performance model
// still meters every call.

void k_offset_add(Backend b, std::int64_t step, const std::vector<double>& a,
                  std::int64_t n_amp_det,
                  std::span<const core::Interval> ivals, std::int64_t n_det,
                  std::int64_t n_samp, std::vector<double>& tod,
                  core::ExecContext& ctx) {
  switch (b) {
    case Backend::kCpu:
      kernels::cpu::template_offset_add_to_signal(step, a, n_amp_det, ivals,
                                                  n_det, n_samp, tod, ctx);
      break;
    case Backend::kOmpTarget:
      kernels::omp::template_offset_add_to_signal(
          step, a.data(), n_amp_det, ivals, n_det, n_samp, tod.data(), ctx,
          true);
      break;
    default:
      kernels::jax::template_offset_add_to_signal(
          step, a.data(), n_amp_det, ivals, n_det, n_samp, tod.data(), ctx);
      break;
  }
}

void k_offset_project(Backend b, std::int64_t step,
                      const std::vector<double>& tod,
                      std::span<const core::Interval> ivals,
                      std::int64_t n_det, std::int64_t n_samp,
                      std::vector<double>& amps, std::int64_t n_amp_det,
                      core::ExecContext& ctx) {
  switch (b) {
    case Backend::kCpu:
      kernels::cpu::template_offset_project_signal(step, tod, ivals, n_det,
                                                   n_samp, amps, n_amp_det,
                                                   ctx);
      break;
    case Backend::kOmpTarget:
      kernels::omp::template_offset_project_signal(
          step, tod.data(), ivals, n_det, n_samp, amps.data(), n_amp_det,
          ctx, true);
      break;
    default:
      kernels::jax::template_offset_project_signal(
          step, tod.data(), ivals, n_det, n_samp, amps.data(), n_amp_det,
          ctx);
      break;
  }
}

void k_noise_weight(Backend b, const std::vector<double>& det_weights,
                    std::span<const core::Interval> ivals, std::int64_t n_det,
                    std::int64_t n_samp, std::vector<double>& tod,
                    core::ExecContext& ctx) {
  switch (b) {
    case Backend::kCpu:
      kernels::cpu::noise_weight(det_weights, ivals, n_det, n_samp, tod,
                                 ctx);
      break;
    case Backend::kOmpTarget:
      kernels::omp::noise_weight(det_weights.data(), ivals, n_det, n_samp,
                                 tod.data(), ctx, true);
      break;
    default:
      kernels::jax::noise_weight(det_weights.data(), ivals, n_det, n_samp,
                                 tod.data(), ctx);
      break;
  }
}

void k_bin(Backend b, const std::vector<std::int64_t>& pixels,
           const std::vector<double>& ones, const std::vector<double>& tod,
           const std::vector<double>& det_scale, std::int64_t n_pix,
           std::span<const core::Interval> ivals, std::int64_t n_det,
           std::int64_t n_samp, std::vector<double>& zmap,
           core::ExecContext& ctx) {
  switch (b) {
    case Backend::kCpu:
      kernels::cpu::build_noise_weighted(pixels, ones, 1, tod, det_scale,
                                         {}, 0, ivals, n_det, n_samp, zmap,
                                         ctx);
      break;
    case Backend::kOmpTarget:
      kernels::omp::build_noise_weighted(pixels.data(), ones.data(), 1,
                                         tod.data(), det_scale.data(),
                                         nullptr, 0, ivals, n_det, n_samp,
                                         zmap.data(), ctx, true);
      break;
    default:
      kernels::jax::build_noise_weighted(pixels.data(), ones.data(), n_pix,
                                         1, tod.data(), det_scale.data(),
                                         nullptr, 0, ivals, n_det, n_samp,
                                         zmap.data(), ctx);
      break;
  }
}

void k_scan(Backend b, const std::vector<double>& map, std::int64_t n_pix,
            const std::vector<std::int64_t>& pixels,
            const std::vector<double>& ones, double scale,
            std::span<const core::Interval> ivals, std::int64_t n_det,
            std::int64_t n_samp, std::vector<double>& tod,
            core::ExecContext& ctx) {
  switch (b) {
    case Backend::kCpu:
      kernels::cpu::scan_map(map, 1, pixels, ones, scale, ivals, n_det,
                             n_samp, tod, ctx);
      break;
    case Backend::kOmpTarget:
      kernels::omp::scan_map(map.data(), 1, pixels.data(), ones.data(),
                             scale, ivals, n_det, n_samp, tod.data(), ctx,
                             true);
      break;
    default:
      kernels::jax::scan_map(map.data(), n_pix, 1, pixels.data(),
                             ones.data(), scale, ivals, n_det, n_samp,
                             tod.data(), ctx);
      break;
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += a[i] * b[i];
  }
  return s;
}

/// The configured scheduling mode stepped `level` rungs down the
/// "solver_comm" degradation ladder: overlap (0) -> sync (1) -> staged
/// (2).  Level 0 is always the configured mode.
AsyncComm ladder_mode(AsyncComm configured, int level) {
  auto rung = [](AsyncComm m) {
    switch (m) {
      case AsyncComm::kOverlap:
        return 0;
      case AsyncComm::kSync:
        return 1;
      case AsyncComm::kStaged:
        return 2;
    }
    return 2;
  };
  switch (std::min(2, rung(configured) + level)) {
    case 0:
      return AsyncComm::kOverlap;
    case 1:
      return AsyncComm::kSync;
    default:
      return AsyncComm::kStaged;
  }
}

}  // namespace

void Destriper::charge_allreduce(core::ExecContext& ctx, double bytes,
                                 const char* label, CommSlot slot) {
  if (live_ranks_ <= 1) {
    return;
  }
  if (!taskrt_.has_value()) {
    // Staged: blocking charge at the call site (the historical path).
    const comm::Engine engine(comm::Topology::cluster(
        live_ranks_, std::max(1, config_.comm_ranks_per_node),
        config_.network));
    comm::RunOptions opt;
    opt.epoch = ctx.clock().now();
    opt.site = label;
    opt.faults = &ctx.faults();
    opt.max_chunk_bytes = config_.comm.chunk_bytes;
    const double t =
        engine.allreduce_seconds(bytes, config_.comm.algorithm, opt);
    ctx.clock().advance(t);
    ctx.tracer().record(label, "comm", t);
    return;
  }
  // Depth-1 pipeline: this slot's previous reduction must have landed
  // before the next one is issued (await is a no-op in serial mode and
  // whenever the matvec already hid the latency).
  taskrt_->await(pending_[static_cast<std::size_t>(slot)],
                 std::string(label) + "_wait");
  auto cost = [this, &ctx, bytes, label](double start) {
    const comm::Engine engine(comm::Topology::cluster(
        live_ranks_, std::max(1, config_.comm_ranks_per_node),
        config_.network));
    comm::RunOptions opt;
    opt.epoch = start;
    opt.site = label;
    opt.faults = &ctx.faults();
    opt.max_chunk_bytes = config_.comm.chunk_bytes;
    return engine.allreduce_seconds(bytes, config_.comm.algorithm, opt);
  };
  pending_[static_cast<std::size_t>(slot)] =
      taskrt_->submit(comm_lane_, label, "comm", cost);
}

void Destriper::init_taskrt(core::ExecContext& ctx, AsyncComm mode) {
  taskrt_.reset();
  pending_.fill(async::Future{});
  if (live_ranks_ > 1 && mode != AsyncComm::kStaged) {
    async::Options aopt;
    aopt.mode = mode == AsyncComm::kOverlap ? async::Mode::kOverlap
                                            : async::Mode::kSerial;
    taskrt_.emplace(ctx.clock(), &ctx.tracer(), aopt);
    comm_lane_ = taskrt_->lane("comm");
  }
}

void Destriper::signal_subtract_binned(core::Observation& ob,
                                       std::vector<double>& tod,
                                       core::ExecContext& ctx,
                                       Backend backend) {
  const std::int64_t n_det = ob.n_detectors();
  const std::int64_t n_samp = ob.n_samples();
  const std::int64_t n_pix = 12 * config_.nside * config_.nside;
  const auto& ivals = ob.intervals();
  const auto& fp = ob.focalplane();

  const std::vector<std::int64_t> pixels(
      ob.field(core::fields::kPixels).i64().begin(),
      ob.field(core::fields::kPixels).i64().end());
  const std::vector<double> ones(static_cast<std::size_t>(n_det * n_samp),
                                 1.0);
  std::vector<double> det_scale(static_cast<std::size_t>(n_det));
  std::vector<double> invvar_tod(static_cast<std::size_t>(n_det * n_samp));
  for (std::int64_t d = 0; d < n_det; ++d) {
    const double net = fp.net[static_cast<std::size_t>(d)];
    const double w = 1.0 / (net * net * fp.sample_rate);
    det_scale[static_cast<std::size_t>(d)] = 1.0;
    for (std::int64_t s = 0; s < n_samp; ++s) {
      invvar_tod[static_cast<std::size_t>(d * n_samp + s)] = w;
    }
  }

  // Noise-weighted bin of the timestream and of the weights themselves.
  std::vector<double> wtod = tod;
  k_noise_weight(backend, [&] {
    std::vector<double> w(static_cast<std::size_t>(n_det));
    for (std::int64_t d = 0; d < n_det; ++d) {
      const double net = fp.net[static_cast<std::size_t>(d)];
      w[static_cast<std::size_t>(d)] = 1.0 / (net * net * fp.sample_rate);
    }
    return w;
  }(), ivals, n_det, n_samp, wtod, ctx);

  std::vector<double> zmap(static_cast<std::size_t>(n_pix), 0.0);
  std::vector<double> whits(static_cast<std::size_t>(n_pix), 0.0);
  k_bin(backend, pixels, ones, wtod, det_scale, n_pix, ivals, n_det, n_samp,
        zmap, ctx);
  k_bin(backend, pixels, ones, invvar_tod, det_scale, n_pix, ivals, n_det,
        n_samp, whits, ctx);
  // Distributed binning sums the signal and hit maps across ranks.
  charge_allreduce(ctx, 2.0 * static_cast<double>(n_pix) * 8.0,
                   "destriper_allreduce_map", kSlotMap);

  for (std::int64_t p = 0; p < n_pix; ++p) {
    const auto i = static_cast<std::size_t>(p);
    zmap[i] = whits[i] > 0.0 ? zmap[i] / whits[i] : 0.0;
  }
  // tod -= P m
  k_scan(backend, zmap, n_pix, pixels, ones, -1.0, ivals, n_det, n_samp,
         tod, ctx);
}

std::vector<double> Destriper::normal_matrix(core::Observation& ob,
                                             const std::vector<double>& x,
                                             core::ExecContext& ctx,
                                             Backend backend) {
  const std::int64_t n_det = ob.n_detectors();
  const std::int64_t n_samp = ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + config_.step_length - 1) / config_.step_length;
  const auto& ivals = ob.intervals();
  const auto& fp = ob.focalplane();

  std::vector<double> det_weights(static_cast<std::size_t>(n_det));
  for (std::int64_t d = 0; d < n_det; ++d) {
    const double net = fp.net[static_cast<std::size_t>(d)];
    det_weights[static_cast<std::size_t>(d)] =
        1.0 / (net * net * fp.sample_rate);
  }

  std::vector<double> tod(static_cast<std::size_t>(n_det * n_samp), 0.0);
  k_offset_add(backend, config_.step_length, x, n_amp_det, ivals, n_det,
               n_samp, tod, ctx);
  signal_subtract_binned(ob, tod, ctx, backend);
  k_noise_weight(backend, det_weights, ivals, n_det, n_samp, tod, ctx);

  std::vector<double> y(x.size(), 0.0);
  k_offset_project(backend, config_.step_length, tod, ivals, n_det, n_samp,
                   y, n_amp_det, ctx);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += config_.prior_weight * x[i];
  }
  return y;
}

DestriperResult Destriper::solve(core::Observation& ob,
                                 core::ExecContext& ctx, Backend backend) {
  if (!ob.has_field(core::fields::kPixels)) {
    throw std::invalid_argument("Destriper: observation has no pointing");
  }
  const std::int64_t n_det = ob.n_detectors();
  const std::int64_t n_samp = ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + config_.step_length - 1) / config_.step_length;
  const auto n_amp = static_cast<std::size_t>(n_det * n_amp_det);
  const auto& ivals = ob.intervals();
  const auto& fp = ob.focalplane();

  // Solve-scoped async runtime: kSync is the serial bitwise oracle of
  // the staged path, kOverlap pipelines the collectives (depth-1
  // slots) so they hide behind the next matvec.  The effective mode is
  // the configured one stepped down the "solver_comm" ladder, and the
  // communicator starts at the configured size (an elastic shrink
  // drops dead ranks from it mid-solve).
  resilience::Manager& rm = ctx.resilience();
  live_ranks_ = config_.comm_ranks;
  active_comm_ =
      rm.armed() ? ladder_mode(config_.async_comm,
                               rm.level(resilience::Domain::kSolverComm))
                 : config_.async_comm;
  init_taskrt(ctx, active_comm_);

  std::vector<double> det_weights(static_cast<std::size_t>(n_det));
  for (std::int64_t d = 0; d < n_det; ++d) {
    const double net = fp.net[static_cast<std::size_t>(d)];
    det_weights[static_cast<std::size_t>(d)] =
        1.0 / (net * net * fp.sample_rate);
  }

  // RHS: b = F^T N^-1 Z d.
  std::vector<double> tod(ob.field(core::fields::kSignal).f64().begin(),
                          ob.field(core::fields::kSignal).f64().end());
  signal_subtract_binned(ob, tod, ctx, backend);
  k_noise_weight(backend, det_weights, ivals, n_det, n_samp, tod, ctx);
  std::vector<double> b(n_amp, 0.0);
  k_offset_project(backend, config_.step_length, tod, ivals, n_det, n_samp,
                   b, n_amp_det, ctx);

  // Diagonal preconditioner: 1 / (invvar * step + prior).
  std::vector<double> precond(n_amp);
  for (std::int64_t d = 0; d < n_det; ++d) {
    const double w = det_weights[static_cast<std::size_t>(d)];
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      precond[static_cast<std::size_t>(d * n_amp_det + a)] =
          1.0 / (w * static_cast<double>(config_.step_length) +
                 config_.prior_weight);
    }
  }
  auto apply_precond = [&](const std::vector<double>& v) {
    std::vector<double> out(v.size());
    switch (backend) {
      case Backend::kCpu:
        kernels::cpu::template_offset_apply_diag_precond(precond, v, out,
                                                         ctx);
        break;
      case Backend::kOmpTarget:
        kernels::omp::template_offset_apply_diag_precond(
            precond.data(), v.data(), static_cast<std::int64_t>(v.size()),
            out.data(), ctx, true);
        break;
      default:
        kernels::jax::template_offset_apply_diag_precond(
            precond.data(), v.data(), static_cast<std::int64_t>(v.size()),
            out.data(), ctx);
        break;
    }
    return out;
  };

  // Preconditioned CG.
  DestriperResult result;
  result.amplitudes.assign(n_amp, 0.0);
  std::vector<double> r = b;
  std::vector<double> z = apply_precond(r);
  std::vector<double> p = z;
  double rz = dot(r, z);
  charge_allreduce(ctx, 8.0, "destriper_allreduce_dot", kSlotRz);
  result.residuals.push_back(std::sqrt(dot(r, r)));
  charge_allreduce(ctx, 8.0, "destriper_allreduce_dot", kSlotRnorm0);
  const double target = config_.tolerance * result.residuals.front();

  // Checkpoint/restart: with an armed fault injector the solver snapshots
  // its CG state every checkpoint_interval iterations; a simulated rank
  // failure restores the snapshot and replays from there (the replayed
  // kernel charges land on the clock — recovery is not free), instead of
  // recomputing the whole solve.  Disarmed, the loop is the plain CG
  // iteration, bit for bit.
  struct CgCheckpoint {
    std::vector<double> amplitudes;
    std::vector<double> r;
    std::vector<double> p;
    double rz = 0.0;
    std::vector<double> residuals;
    int iterations = 0;
    int iter = 0;
  };
  const bool chaos = ctx.faults().armed();
  const int ckpt_interval = std::max(1, config_.checkpoint_interval);
  const resilience::RetrySpec& plan_retry = ctx.faults().plan().retry;
  const resilience::RetrySpec cg_retry =
      rm.armed() ? rm.retry_for("destriper_cg", plan_retry) : plan_retry;
  const int max_restores = std::max(1, cg_retry.max_attempts);
  CgCheckpoint ckpt;
  int restores = 0;

  int iter = 0;
  while (iter < config_.max_iterations) {
    if (chaos) {
      if (iter % ckpt_interval == 0) {
        ckpt = {result.amplitudes, r,    p,
                rz,                result.residuals, result.iterations,
                iter};
      }
      const bool can_restore = restores < max_restores;
      const bool can_shrink =
          !can_restore && rm.armed() && rm.allow_shrink(live_ranks_);
      if ((can_restore || can_shrink) &&
          ctx.faults().rank_failure("destriper_cg")) {
        if (taskrt_.has_value()) {
          // Roll back in-flight collectives with the solver state.
          // With requeue enabled this is a real graph edit: the
          // placements are cancelled (no slack charged) and the replay
          // re-submits them; otherwise the historical drain charges
          // their remaining latency first.
          const int in_flight = taskrt_->pending_count();
          if (in_flight > 0 && rm.requeue_enabled()) {
            taskrt_->cancel_pending("destriper_comm_requeue");
            rm.note_requeue("destriper_cg", in_flight);
          } else {
            taskrt_->drain("destriper_comm_drain");
          }
          if (in_flight > 0) {
            ctx.faults().note_task_requeue("destriper_cg", in_flight);
          }
          pending_.fill(async::Future{});
        }
        result.amplitudes = ckpt.amplitudes;
        r = ckpt.r;
        p = ckpt.p;
        rz = ckpt.rz;
        result.residuals = ckpt.residuals;
        result.iterations = ckpt.iterations;
        iter = ckpt.iter;
        if (can_restore) {
          ++restores;
        } else {
          // Elastic recovery: the restore budget is exhausted, so the
          // dead rank leaves the communicator — the CG restarts from
          // the checkpoint on the shrunken world with a fresh budget.
          rm.note_world_shrink("destriper_cg", live_ranks_,
                               live_ranks_ - 1);
          live_ranks_ -= 1;
          restores = 0;
        }
        ctx.faults().note_checkpoint_restore("destriper_cg", iter);
        if (rm.armed()) {
          rm.report_fault(resilience::Domain::kSolverComm, "destriper_cg");
          const AsyncComm target = ladder_mode(
              config_.async_comm, rm.level(resilience::Domain::kSolverComm));
          if (target != active_comm_) {
            active_comm_ = target;
            init_taskrt(ctx, target);
          }
        }
        continue;
      }
    }
    const auto ap = normal_matrix(ob, p, ctx, backend);
    const double pap = dot(p, ap);
    charge_allreduce(ctx, 8.0, "destriper_allreduce_dot", kSlotPap);
    if (pap <= 0.0) {
      break;  // matrix numerically singular along p
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n_amp; ++i) {
      result.amplitudes[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rnorm = std::sqrt(dot(r, r));
    charge_allreduce(ctx, 8.0, "destriper_allreduce_dot", kSlotRnorm);
    result.residuals.push_back(rnorm);
    result.iterations = iter + 1;
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    z = apply_precond(r);
    const double rz_new = dot(r, z);
    charge_allreduce(ctx, 8.0, "destriper_allreduce_dot", kSlotRzNew);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n_amp; ++i) {
      p[i] = z[i] + beta * p[i];
    }
    ++iter;
  }
  if (taskrt_.has_value()) {
    // The last iteration's collectives must land before solve returns.
    taskrt_->drain("destriper_comm_drain");
    taskrt_.reset();
  }
  return result;
}

void Destriper::apply(core::Observation& ob, const DestriperResult& result,
                      core::ExecContext& ctx, Backend backend) const {
  const std::int64_t n_det = ob.n_detectors();
  const std::int64_t n_samp = ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + config_.step_length - 1) / config_.step_length;
  // signal -= F a: scan the negated amplitudes onto the signal.
  std::vector<double> neg(result.amplitudes.size());
  for (std::size_t i = 0; i < neg.size(); ++i) {
    neg[i] = -result.amplitudes[i];
  }
  std::vector<double> tod(ob.field(core::fields::kSignal).f64().begin(),
                          ob.field(core::fields::kSignal).f64().end());
  k_offset_add(backend, config_.step_length, neg, n_amp_det, ob.intervals(),
               n_det, n_samp, tod, ctx);
  auto out = ob.field(core::fields::kSignal).f64();
  std::copy(tod.begin(), tod.end(), out.begin());
}

}  // namespace toast::solver
