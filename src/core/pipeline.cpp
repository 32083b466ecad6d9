#include "core/pipeline.hpp"

#include <map>

#include "accel/sim_device.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace toast::core {

namespace {

struct FieldState {
  bool host_valid = true;
  bool device_valid = false;
};

}  // namespace

Backend Pipeline::dispatch_backend(const std::string& kernel,
                                   ExecContext& ctx) const {
  if (backend_override_.has_value()) {
    return *backend_override_;
  }
  return ctx.backend_for(kernel);
}

PlanOptions Pipeline::effective_options() const {
  PlanOptions options;
  options.naive_staging = schedule_.staging.mode == Staging::kNaive;
  options.prefetch = schedule_.staging.prefetch;
  options.evict = schedule_.staging.evict;
  return options;
}

// --- planned execution (the default) ---------------------------------------

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
  const PlanOptions options = effective_options();
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
      build_plan(meta_, options, outputs_, backends, on_accel, key));
  plan_cache_.emplace(key, plan);
  // Plan build is charged once per cache entry as a structural span:
  // zero virtual seconds, so the default plan stays bit-for-bit equal to
  // the interpreter (the per-operator pipeline_overhead already models
  // the framework layer; see docs/MODEL.md).
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

void Pipeline::exec(Observation& ob, ExecContext& ctx) {
  // Executor degradation ladder: once the policy escalates the
  // "executor" domain, compiled plan replay gives way to the
  // interpreter — safe because the interpreter is the plan's bitwise
  // oracle (identical products, clock and TimeLog).
  if (ctx.resilience().level("executor") > 0) {
    exec_interpreted(ob, ctx);
    return;
  }
  const auto plan = plan_for(ob, ctx);
  execute_plan(*plan, meta_, ob, ctx, backend_override_, plan_stats_);
}

void Pipeline::exec(Observation& ob, ExecContext& ctx, StepLog& log) {
  const auto plan = plan_for(ob, ctx);
  execute_plan(*plan, meta_, ob, ctx, backend_override_, plan_stats_, &log);
}

// --- the interpreter (equivalence oracle) ----------------------------------

void Pipeline::exec_interpreted(Data& data, ExecContext& ctx) {
  for (auto& ob : data.observations) {
    exec_interpreted(ob, ctx);
  }
}

void Pipeline::exec_interpreted(Observation& ob, ExecContext& ctx) {
  obs::ScopedSpan pipeline_span(ctx.tracer(), "pipeline:" + ob.name(),
                                "pipeline");
  AccelStore store(ctx);
  std::map<Field*, FieldState> state;

  auto ensure_mapped = [&](Field& f) {
    if (!store.present(f)) {
      store.create(f);
      state[&f];  // host_valid=true, device_valid=false
    }
  };

  // The one download dance shared by the host-execution path, the naive
  // cleanup and the end-of-pipeline loop: copy back if the host copy is
  // stale.  The functional copy precedes the time charge, so a persistent
  // transfer fault still leaves the host data correct — callers that may
  // swallow it only lose the charge.
  auto download = [&](const std::string& name, bool swallow) -> Field* {
    if (!ob.has_field(name)) {
      return nullptr;
    }
    Field& f = ob.field(name);
    const auto it = state.find(&f);
    if (it != state.end() && !it->second.host_valid && store.present(f)) {
      try {
        store.update_host(f);
      } catch (const fault::PersistentFaultError&) {
        if (!swallow) {
          throw;
        }
      }
      it->second.host_valid = true;
    }
    return &f;
  };

  for (const auto& m : meta_) {
    obs::ScopedSpan op_span(ctx.tracer(), m.name, "operator");
    ctx.charge_serial("pipeline_overhead", kOperatorOverheadSeconds);
    m.op->ensure_fields(ob);

    const Backend backend = dispatch_backend(m.name, ctx);
    // Kernels degraded by persistent faults stay on their CPU
    // implementation even through a pipeline-level backend override.
    const bool on_accel = m.supports_accel && is_accel(backend) &&
                          !ctx.faults().degraded(m.name);

    // Host execution path, also the fault-recovery target.
    auto run_host = [&](Backend host_backend, bool recovering) {
      for (const auto& name : m.touched) {
        download(name, /*swallow=*/recovering);
      }
      m.op->exec(ob, ctx, nullptr, host_backend);
      for (const auto& name : m.writes) {
        if (!ob.has_field(name)) {
          continue;
        }
        Field& f = ob.field(name);
        const auto it = state.find(&f);
        if (it != state.end()) {
          it->second.host_valid = true;
          it->second.device_valid = false;
        }
      }
    };

    auto degrade_to_host = [&](const std::string& reason) {
      ctx.faults().note_fallback(m.name, reason);
      ctx.set_kernel_backend(m.name, Backend::kCpu);
      run_host(Backend::kCpu, /*recovering=*/true);
    };

    if (on_accel) {
      bool accel_ok = true;
      try {
        // Map every touched field; stage *in* only the inputs (in-place
        // outputs appear in requires too).  Pure outputs get a device
        // buffer without an upload.
        for (const auto& name : m.touched) {
          if (ob.has_field(name)) {
            ensure_mapped(ob.field(name));
          }
        }
        for (const auto& name : m.reads) {
          if (!ob.has_field(name)) {
            continue;
          }
          Field& f = ob.field(name);
          if (!state[&f].device_valid) {
            store.update_device(f);
            state[&f].device_valid = true;
          }
        }
        m.op->exec(ob, ctx, &store, backend);
        for (const auto& name : m.writes) {
          if (!ob.has_field(name)) {
            continue;
          }
          Field& f = ob.field(name);
          state[&f].device_valid = true;
          state[&f].host_valid = false;
        }
      } catch (const fault::PersistentFaultError&) {
        // Retry budget exhausted on a launch or transfer: degrade this
        // kernel to its CPU implementation and re-run.  The functional
        // work in both runtimes happens on shadow copies before the
        // time charge throws, so host data is untouched and the re-run
        // computes from a consistent state.
        accel_ok = false;
        degrade_to_host("persistent_fault");
      } catch (const accel::DeviceOomError& e) {
        if (!e.info().injected) {
          throw;  // real capacity overflow: the fig4 OOM points rely on it
        }
        accel_ok = false;
        degrade_to_host("device_oom");
      }
      if (accel_ok && schedule_.staging.mode == Staging::kNaive) {
        // Naive strategy: everything comes straight back and the device
        // copies are dropped after every kernel.  This runs outside the
        // recovery try: the op already completed, so a persistent
        // transfer fault here must not re-run it (in-place ops would
        // double-apply).
        for (const auto& name : m.touched) {
          Field* f = download(name, /*swallow=*/true);
          if (f != nullptr && store.present(*f)) {
            store.remove(*f);
            state.erase(f);
          }
        }
      }
    } else {
      run_host(backend, /*recovering=*/false);
    }
  }

  // End of pipeline: final products back to the host; device-only
  // intermediates are dropped without a transfer.
  for (const auto& name : outputs_) {
    download(name, /*swallow=*/true);
  }
  store.clear();
}

}  // namespace toast::core
