#pragma once

// Hybrid CPU/GPU pipeline (paper §3.2.2).
//
// A Pipeline runs a sequence of operators over each observation.  Using
// each operator's requires/provides declarations it keeps data resident on
// the device across consecutive GPU operators, moves fields back to the
// host only when a host-only operator (or the end of the pipeline) needs
// them, and deletes device data when done.  The paper measured this
// staging at ~40% faster than naively transferring around every kernel;
// Staging::kNaive reproduces the naive strategy for that ablation.
//
// exec() compiles the operator list into a cached ExecutionPlan and
// replays it (docs/MODEL.md "Pipeline compilation").  The schedule's
// staging axis selects the strategy and opts into prefetch
// (transfer/compute overlap on the sched copy engine) and liveness
// eviction.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/schedule.hpp"
#include "core/accel_store.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"
#include "core/operator.hpp"
#include "core/plan.hpp"

namespace toast::core {

class Pipeline {
 public:
  /// The staging strategy is a schedule-space axis; the canonical enum
  /// (kPipelined / kNaive) lives in the unified config layer and the
  /// pipeline re-exports it under its historical name.
  using Staging = config::Staging;

  explicit Pipeline(std::vector<std::shared_ptr<Operator>> operators,
                    Staging staging = Staging::kPipelined)
      : operators_(std::move(operators)),
        meta_(build_op_metadata(operators_)) {
    schedule_.staging.mode = staging;
  }

  /// Fields copied back to the host at the end of the pipeline.  Device-
  /// only intermediates (expanded pointing, Stokes weights...) are simply
  /// deleted, which is a large part of the staging win of §3.2.2.  By
  /// default the science products are kept.
  void set_outputs(std::vector<std::string> outputs) {
    outputs_ = std::move(outputs);
    plan_cache_.clear();
  }
  const std::vector<std::string>& outputs() const { return outputs_; }

  /// Force every operator of this pipeline onto one backend, regardless
  /// of the context default (paper §3.2.1: per-pipeline selection).
  void set_backend_override(std::optional<Backend> backend) {
    backend_override_ = backend;
    plan_cache_.clear();
  }
  const std::optional<Backend>& backend_override() const {
    return backend_override_;
  }

  /// Adopt a full schedule-space config.  The pipeline consumes its
  /// staging axis (mode + prefetch/evict) and keys the plan cache off
  /// the config's hash, so distinct schedules never share a plan.
  void set_schedule(const config::ScheduleConfig& schedule) {
    schedule_ = schedule;
    plan_cache_.clear();
  }
  const config::ScheduleConfig& schedule() const { return schedule_; }

  /// Per-operator host-side framework overhead (the Python layer driving
  /// the kernels), charged as serial time.
  static constexpr double kOperatorOverheadSeconds =
      kPipelineOverheadSeconds;

  /// Compile-on-miss against the plan cache, then replay the
  /// ExecutionPlan.  With a `log`, every executed step is also recorded
  /// (docs/MODEL.md §11): the functional pass of an overlap run.
  void exec(Data& data, ExecContext& ctx);
  void exec(Observation& ob, ExecContext& ctx, StepLog* log = nullptr);

  /// The plan exec() would use for this observation right now (cached;
  /// builds on miss).  Exposed for the dump tooling and tests.
  std::shared_ptr<const ExecutionPlan> plan_for(const Observation& ob,
                                                ExecContext& ctx);

  /// Cumulative plan/execute statistics (cache hits/misses, replans,
  /// transfers avoided, evictions, peak mapped bytes).
  const PlanStats& plan_stats() const { return plan_stats_; }

  const std::vector<std::shared_ptr<Operator>>& operators() const {
    return operators_;
  }
  /// Immutable per-operator metadata (name/reads/writes/touched), built
  /// once at construction.
  const std::vector<OpMeta>& metadata() const { return meta_; }

 private:
  Backend dispatch_backend(const std::string& kernel,
                           ExecContext& ctx) const;
  std::string plan_key(const Observation& ob, ExecContext& ctx) const;

  std::vector<std::shared_ptr<Operator>> operators_;
  std::vector<OpMeta> meta_;
  /// The unified schedule-space view; the pipeline reads its staging
  /// axis and hashes the whole config into every plan-cache key.
  config::ScheduleConfig schedule_;
  std::optional<Backend> backend_override_;
  std::vector<std::string> outputs_ = {
      std::string(fields::kSignal), std::string(fields::kZmap),
      std::string(fields::kAmplitudes), std::string(fields::kPixels)};
  std::map<std::string, std::shared_ptr<const ExecutionPlan>> plan_cache_;
  PlanStats plan_stats_;
};

}  // namespace toast::core
