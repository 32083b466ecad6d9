#include "core/pipeline.hpp"

#include "obs/trace.hpp"

namespace toast::core {

Backend Pipeline::dispatch_backend(const std::string& kernel,
                                   ExecContext& ctx) const {
  if (backend_override_.has_value()) {
    return *backend_override_;
  }
  return ctx.backend_for(kernel);
}

std::string Pipeline::plan_key(const Observation& ob, ExecContext& ctx) const {
  // Keyed like the xla JIT cache: the schedule-space config hash (which
  // covers staging mode, prefetch/evict and every other schedule axis),
  // the pipeline signature (operators, outputs), the backend map
  // (dispatch + degradation at key time) and the observation field
  // layout.  Re-keying off the config hash is what lets the autotuner
  // evaluate many schedules against one pipeline without plan aliasing.
  std::string key;
  key += "cfg=";
  key += schedule_.hash_hex();
  for (const auto& m : meta_) {
    const Backend b = dispatch_backend(m.name, ctx);
    const bool accel =
        m.supports_accel && is_accel(b) && !ctx.faults().degraded(m.name);
    key += ";";
    key += m.name;
    key += ":";
    key += to_string(b);
    key += accel ? ":a" : ":h";
  }
  key += ";out=";
  for (const auto& name : outputs_) {
    key += name;
    key += ",";
  }
  key += ";fields=";
  for (const auto& name : ob.field_names()) {
    key += name;
    key += ",";
  }
  return key;
}

std::shared_ptr<const ExecutionPlan> Pipeline::plan_for(const Observation& ob,
                                                        ExecContext& ctx) {
  const std::string key = plan_key(ob, ctx);
  const auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    plan_stats_.cache_hits += 1.0;
    return it->second;
  }
  plan_stats_.cache_misses += 1.0;
  std::vector<Backend> backends;
  std::vector<char> on_accel;
  backends.reserve(meta_.size());
  on_accel.reserve(meta_.size());
  for (const auto& m : meta_) {
    const Backend b = dispatch_backend(m.name, ctx);
    backends.push_back(b);
    on_accel.push_back(
        (m.supports_accel && is_accel(b) && !ctx.faults().degraded(m.name))
            ? 1
            : 0);
  }
  auto plan = std::make_shared<const ExecutionPlan>(
      build_plan(meta_, schedule_.staging, outputs_, backends, on_accel, key));
  plan_cache_.emplace(key, plan);
  // Plan build is charged once per cache entry as a structural span of
  // zero virtual seconds: the per-operator pipeline_overhead already
  // models the framework layer (see docs/MODEL.md).
  const obs::SpanId span = ctx.tracer().record_at(
      "plan_build", "plan", ctx.clock().now(), 0.0,
      to_string(ctx.config().backend), nullptr, /*logged=*/false);
  ctx.tracer().add_counter(span, "steps",
                           static_cast<double>(plan->steps.size()));
  ctx.tracer().add_counter(span, "operators",
                           static_cast<double>(operators_.size()));
  ctx.tracer().add_counter(span, "transfers_avoided",
                           static_cast<double>(plan->transfers_avoided));
  ctx.tracer().add_counter(span, "planned_evictions",
                           static_cast<double>(plan->planned_evictions));
  return plan;
}

void Pipeline::exec(Data& data, ExecContext& ctx) {
  for (auto& ob : data.observations) {
    exec(ob, ctx);
  }
}

void Pipeline::exec(Observation& ob, ExecContext& ctx, StepLog* log) {
  const auto plan = plan_for(ob, ctx);
  execute_plan(*plan, meta_, ob, ctx, backend_override_, plan_stats_, log);
}

}  // namespace toast::core
