#pragma once

// Destriping map-maker: the iterative solver the paper's benchmark kernels
// exist to serve.  TOAST's map-making estimates step-wise noise-offset
// amplitudes `a` by solving the normal equations
//
//     (F^T N^-1 Z F) a = F^T N^-1 Z d
//
// with preconditioned conjugate gradients, where F scans amplitudes onto
// timestreams (template_offset_add_to_signal), F^T projects timestreams
// onto amplitudes (template_offset_project_signal), N^-1 is the detector
// noise weighting (noise_weight) and Z = I - P (P^T N^-1 P)^-1 P^T N^-1
// removes the sky signal through the binned map (build_noise_weighted +
// scan_map).  Every matrix-vector product is a pipeline of the paper's
// kernels, so the solver runs on any backend and its convergence is a
// strong end-to-end correctness check.
//
// This implements the common simplification used for benchmark-scale
// destriping: Z built from the *hit-weighted intensity* bin/unbin pair.

#include <array>
#include <cstdint>
#include <vector>

#include "accel/specs.hpp"
#include "comm/engine.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"
#include "kernels/operators.hpp"

namespace toast::solver {

/// How the solver schedules its simulated collectives: kStaged charges
/// each one at its call site; kOverlap pipelines the CG collectives at
/// depth 1 on one comm lane and charges their unhidden latency as
/// logged "*_wait" spans (docs/MODEL.md §11).  The enum lives in the
/// config layer; the solver re-exports it under its historical name.
using AsyncComm = config::SolverComm;

struct DestriperConfig {
  std::int64_t nside = 64;
  std::int64_t step_length = 256;
  int max_iterations = 50;
  double tolerance = 1.0e-10;
  /// Tikhonov-style amplitude prior (stabilizes poorly hit steps).
  double prior_weight = 1.0e-6;
  /// CG iterations between checkpoints of the solver state (used only
  /// when the context's fault injector is armed: a simulated rank
  /// failure mid-solve restores the last checkpoint and replays,
  /// recharging the replayed kernels honestly, instead of recomputing
  /// the whole solve).
  int checkpoint_interval = 5;
  /// Simulated communicator for a distributed solve: with comm_ranks > 1
  /// every binned-map reduction and every CG dot product is followed by a
  /// step-scheduled allreduce (comm::Engine) on the cluster topology,
  /// charged to the context clock as logged "destriper_allreduce_*"
  /// spans.  The amplitudes are untouched — all ranks are statistically
  /// identical, so only the communication *cost* is modelled.  The
  /// default (1 rank) skips the engine entirely: bit-for-bit the
  /// single-rank solve.
  int comm_ranks = 1;
  int comm_ranks_per_node = 1;
  accel::NetworkSpec network = accel::slingshot_spec();
  /// Collective axis of the schedule space: algorithm + chunk bound the
  /// step-scheduled allreduces run with (the comm mode is ignored here —
  /// the destriper always uses the engine for multi-rank solves).
  config::CommConfig comm;
  /// Collective scheduling mode (no effect with a single rank).
  AsyncComm async_comm = AsyncComm::kStaged;
};

struct DestriperResult {
  /// Solved offset amplitudes, one block per detector.
  std::vector<double> amplitudes;
  /// Residual norm per CG iteration (index 0 = initial residual).
  std::vector<double> residuals;
  int iterations = 0;
  bool converged = false;

  /// Convergence factor: final / initial residual norm.
  double reduction() const {
    return residuals.empty() ? 1.0 : residuals.back() / residuals.front();
  }
};

class Destriper {
 public:
  explicit Destriper(DestriperConfig config = {}) : config_(config) {}

  /// Solve for the noise offsets of one observation's "signal" field.
  /// The observation must carry pointing ("pixels") already; the signal
  /// is left untouched.
  DestriperResult solve(core::Observation& ob, core::ExecContext& ctx,
                        core::Backend backend);

  /// Subtract the solved offsets from the signal (destriped timestream).
  void apply(core::Observation& ob, const DestriperResult& result,
             core::ExecContext& ctx, core::Backend backend) const;

  const DestriperConfig& config() const { return config_; }

 private:
  /// Per-call-site communication slot (overlap mode keeps one pending
  /// collective per slot; slots never alias, so independent reductions
  /// of one iteration don't wait for each other).
  enum CommSlot : int {
    kSlotMap = 0,   ///< binned signal+hit map reduction
    kSlotRz,        ///< initial r.z
    kSlotRnorm0,    ///< initial residual norm
    kSlotPap,       ///< p.Ap
    kSlotRnorm,     ///< per-iteration residual norm
    kSlotRzNew,     ///< updated r.z
    kNumSlots,
  };

  /// y = (F^T N^-1 Z F) x + prior * x : one CG matrix application.
  std::vector<double> normal_matrix(core::Observation& ob,
                                    const std::vector<double>& x,
                                    core::ExecContext& ctx,
                                    core::Backend backend);

  /// Z v: bin v into a hit-weighted intensity map and subtract the
  /// scanned map from v (in place).
  void signal_subtract_binned(core::Observation& ob,
                              std::vector<double>& tod,
                              core::ExecContext& ctx,
                              core::Backend backend);

  /// Charge (kStaged) or place (kOverlap) a step-scheduled allreduce
  /// of `bytes` across the simulated communicator (no-op for a single
  /// live rank).  Overlap mode first waits for the slot's previous
  /// reduction — the depth-1 pipeline — then places this one on the
  /// comm lane without advancing the clock.
  void charge_allreduce(core::ExecContext& ctx, double bytes,
                        const char* label, CommSlot slot);

  /// Start the overlap pipeline for `mode` (empty lane, no pending
  /// slots) — at solve entry and whenever the "solver_comm" ladder
  /// changes the effective mode mid-solve.
  void init_pipeline(core::ExecContext& ctx, AsyncComm mode);

  DestriperConfig config_;
  /// The overlap pipeline is live (kOverlap with live_ranks_ > 1 at its
  /// start).  Its state is two kinds of ready time on the virtual clock:
  /// the comm lane's, and each slot's pending collective's (one at or
  /// before the clock has landed).
  bool overlap_ = false;
  double lane_ready_ = 0.0;
  std::array<double, kNumSlots> slot_ready_{};
  /// Communicator size of the current solve: config_.comm_ranks until an
  /// elastic world shrink drops dead ranks from it.
  int live_ranks_ = 1;
  /// Effective scheduling mode of the current solve (the configured mode
  /// stepped down the "solver_comm" ladder: overlap -> staged).
  AsyncComm active_comm_ = AsyncComm::kStaged;
};

}  // namespace toast::solver
