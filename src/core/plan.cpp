#include "core/plan.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "accel/sim_device.hpp"
#include "core/accel_store.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace toast::core {

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kChargeOverhead:
      return "charge_overhead";
    case StepKind::kEnsureFields:
      return "ensure_fields";
    case StepKind::kMapField:
      return "map_field";
    case StepKind::kUpload:
      return "upload";
    case StepKind::kLaunch:
      return "launch";
    case StepKind::kDownload:
      return "download";
    case StepKind::kEvict:
      return "evict";
    case StepKind::kSyncTransfers:
      return "sync_transfers";
  }
  return "?";
}

std::vector<OpMeta> build_op_metadata(
    const std::vector<std::shared_ptr<Operator>>& operators) {
  std::vector<OpMeta> meta;
  meta.reserve(operators.size());
  for (const auto& op : operators) {
    OpMeta m;
    m.op = op;
    m.name = op->name();
    m.supports_accel = op->supports_accel();
    m.reads = op->requires_fields();
    m.writes = op->provides_fields();
    std::set<std::string> touched(m.reads.begin(), m.reads.end());
    touched.insert(m.writes.begin(), m.writes.end());
    m.touched.assign(touched.begin(), touched.end());
    meta.push_back(std::move(m));
  }
  return meta;
}

// --- planner ---------------------------------------------------------------

namespace {

class Planner {
 public:
  Planner(const std::vector<OpMeta>& meta,
          const config::StagingConfig& options,
          const std::vector<std::string>& outputs,
          const std::vector<Backend>& backends,
          const std::vector<char>& on_accel)
      : meta_(meta),
        options_(options),
        outputs_(outputs),
        backends_(backends),
        on_accel_(on_accel) {}

  ExecutionPlan build(std::string key) {
    plan_.key = std::move(key);
    plan_.options = options_;
    for (std::size_t k = 0; k < meta_.size(); ++k) {
      plan_.op_names.push_back(meta_[k].name);
      plan_.op_backends.push_back(backends_[k]);
      plan_.op_on_accel.push_back(on_accel_[k]);
      // Bind the launch body now: the plan owns the operator reference,
      // the executing group supplies store + runtime backend.
      plan_.launches.push_back(
          [op = meta_[k].op](Observation& ob, ExecContext& ctx,
                             AccelStore* store, Backend b) {
            op->exec(ob, ctx, store, b);
          });
    }
    compute_liveness();
    bool prev_hoisted = false;
    for (int k = 0; k < static_cast<int>(meta_.size()); ++k) {
      prev_hoisted = emit_group(k, prev_hoisted);
    }
    emit_epilogue();
    model_transfers();
    return std::move(plan_);
  }

 private:
  int fidx(const std::string& name) {
    for (std::size_t i = 0; i < plan_.field_names.size(); ++i) {
      if (plan_.field_names[i] == name) {
        return static_cast<int>(i);
      }
    }
    plan_.field_names.push_back(name);
    return static_cast<int>(plan_.field_names.size()) - 1;
  }

  /// Staging::kNaive: transfer in/out around every accelerated operator.
  bool naive() const { return options_.mode == config::Staging::kNaive; }

  bool is_output(const std::string& name) const {
    return std::find(outputs_.begin(), outputs_.end(), name) !=
           outputs_.end();
  }

  /// Last pipeline position touching each field, and whether any
  /// device-staged operator maps it at all (the eviction candidates).
  void compute_liveness() {
    for (std::size_t k = 0; k < meta_.size(); ++k) {
      for (const auto& name : meta_[k].touched) {
        last_use_[name] = static_cast<int>(k);
        if (on_accel_[k] != 0) {
          mapped_.insert(name);
        }
      }
    }
  }

  /// Fields of accel op `next` worth staging during op `k`: everything
  /// `next` touches that `k` does not (uploading a field `k` writes would
  /// stage stale host data ahead of the kernel that produces it).
  std::vector<std::string> hoistable(int k, int next) const {
    std::vector<std::string> out;
    const auto& cur = meta_[static_cast<std::size_t>(k)].touched;
    for (const auto& name :
         meta_[static_cast<std::size_t>(next)].touched) {
      if (std::find(cur.begin(), cur.end(), name) == cur.end()) {
        out.push_back(name);
      }
    }
    return out;
  }

  /// Returns whether this group hoisted prefetch steps for its successor.
  bool emit_group(int k, bool prev_hoisted) {
    const OpMeta& m = meta_[static_cast<std::size_t>(k)];
    PlanGroup g;
    g.op = k;
    g.backend = backends_[static_cast<std::size_t>(k)];
    g.tag = backend::index_of(g.backend);
    g.on_accel = on_accel_[static_cast<std::size_t>(k)] != 0;
    g.begin = static_cast<int>(plan_.steps.size());
    plan_.steps.push_back({StepKind::kChargeOverhead, k});
    plan_.steps.push_back({StepKind::kEnsureFields, k});
    g.try_begin = static_cast<int>(plan_.steps.size());

    bool hoisted = false;
    if (g.on_accel) {
      if (prev_hoisted) {
        plan_.steps.push_back({StepKind::kSyncTransfers, k});
      }
      for (const auto& name : m.touched) {
        plan_.steps.push_back({StepKind::kMapField, k, fidx(name)});
      }
      for (const auto& name : m.reads) {
        plan_.steps.push_back({StepKind::kUpload, k, fidx(name)});
      }
      // Distance-1 prefetch: stage the next accel operator's fields on
      // the copy engine while this operator computes.
      const int next = k + 1;
      if (options_.prefetch && next < static_cast<int>(meta_.size()) &&
          on_accel_[static_cast<std::size_t>(next)] != 0) {
        const auto hoist = hoistable(k, next);
        const OpMeta& nm = meta_[static_cast<std::size_t>(next)];
        for (const auto& name : hoist) {
          plan_.steps.push_back({StepKind::kMapField, next, fidx(name)});
        }
        for (const auto& name : nm.reads) {
          if (std::find(hoist.begin(), hoist.end(), name) != hoist.end()) {
            PlanStep s{StepKind::kUpload, next, fidx(name)};
            s.async = true;
            plan_.steps.push_back(s);
            plan_.prefetch_uploads += 1;
            hoisted = true;
          }
        }
      }
      PlanStep launch{StepKind::kLaunch, k};
      launch.on_device = true;
      plan_.steps.push_back(launch);
    }
    g.post_begin = static_cast<int>(plan_.steps.size());
    if (g.on_accel && naive()) {
      for (const auto& name : m.touched) {
        PlanStep dl{StepKind::kDownload, k, fidx(name)};
        dl.swallow_persistent = true;
        plan_.steps.push_back(dl);
        plan_.steps.push_back({StepKind::kEvict, k, fidx(name)});
      }
    }
    g.post_end = static_cast<int>(plan_.steps.size());
    if (options_.evict && !naive()) {
      for (const auto& name : m.touched) {
        if (last_use_.at(name) == k && mapped_.count(name) != 0 &&
            !is_output(name)) {
          PlanStep ev{StepKind::kEvict, k, fidx(name)};
          ev.liveness = true;
          plan_.steps.push_back(ev);
          plan_.planned_evictions += 1;
        }
      }
    }
    g.end = static_cast<int>(plan_.steps.size());

    // Host-fallback patch: bring device-resident touched fields back,
    // execute on the host, mark outputs host-valid.
    g.alt_begin = static_cast<int>(plan_.alt_steps.size());
    for (const auto& name : m.touched) {
      plan_.alt_steps.push_back({StepKind::kDownload, k, fidx(name)});
    }
    plan_.alt_steps.push_back({StepKind::kLaunch, k});
    g.alt_end = static_cast<int>(plan_.alt_steps.size());

    plan_.groups.push_back(g);
    return hoisted;
  }

  void emit_epilogue() {
    PlanGroup g;
    g.op = -1;
    g.begin = static_cast<int>(plan_.steps.size());
    for (const auto& name : outputs_) {
      PlanStep dl{StepKind::kDownload, -1, fidx(name)};
      dl.swallow_persistent = true;
      plan_.steps.push_back(dl);
    }
    // The epilogue executes [begin, end) directly (no try / post split).
    g.try_begin = g.post_begin = g.post_end = g.end =
        static_cast<int>(plan_.steps.size());
    plan_.groups.push_back(g);
  }

  /// Static validity simulation (every declared field assumed to exist)
  /// counting the transfers the plan's guards will let through.
  int simulate_transfers(bool naive_staging) const {
    std::map<std::string, bool> hvalid;
    std::map<std::string, bool> dvalid;
    auto host_ok = [&](const std::string& n) {
      const auto it = hvalid.find(n);
      return it == hvalid.end() || it->second;
    };
    int count = 0;
    for (std::size_t k = 0; k < meta_.size(); ++k) {
      const OpMeta& m = meta_[k];
      if (on_accel_[k] != 0) {
        for (const auto& r : m.reads) {
          if (!dvalid[r]) {
            count += 1;
            dvalid[r] = true;
          }
        }
        for (const auto& w : m.writes) {
          dvalid[w] = true;
          hvalid[w] = false;
        }
        if (naive_staging) {
          for (const auto& t : m.touched) {
            if (!host_ok(t)) {
              count += 1;
            }
            hvalid[t] = true;
            dvalid[t] = false;
          }
        }
      } else {
        for (const auto& t : m.touched) {
          if (!host_ok(t)) {
            count += 1;
            hvalid[t] = true;
          }
        }
        for (const auto& w : m.writes) {
          hvalid[w] = true;
          dvalid[w] = false;
        }
      }
    }
    for (const auto& out : outputs_) {
      if (!host_ok(out)) {
        count += 1;
        hvalid[out] = true;
      }
    }
    return count;
  }

  /// Transfer counts of this plan vs the naive strategy (Staging::kNaive
  /// semantics, guards included): what the §3.2.2 staging win avoids.  A
  /// naive-staging plan avoids exactly nothing by construction.
  void model_transfers() {
    plan_.naive_transfers = simulate_transfers(/*naive_staging=*/true);
    plan_.planned_transfers = simulate_transfers(naive());
    plan_.transfers_avoided =
        std::max(0, plan_.naive_transfers - plan_.planned_transfers);
  }

  const std::vector<OpMeta>& meta_;
  config::StagingConfig options_;
  const std::vector<std::string>& outputs_;
  const std::vector<Backend>& backends_;
  const std::vector<char>& on_accel_;
  std::map<std::string, int> last_use_;
  std::set<std::string> mapped_;
  ExecutionPlan plan_;
};

}  // namespace

ExecutionPlan build_plan(const std::vector<OpMeta>& meta,
                         const config::StagingConfig& options,
                         const std::vector<std::string>& outputs,
                         const std::vector<Backend>& backends,
                         const std::vector<char>& on_accel,
                         std::string key) {
  return Planner(meta, options, outputs, backends, on_accel)
      .build(std::move(key));
}

// --- executor --------------------------------------------------------------

namespace {

/// Step-level executor for one (plan, observation) run: owns the device
/// store, per-field validity state, the optional prefetch copy engine and
/// the degrade bookkeeping.  execute_plan decides *when* each step runs;
/// this class defines what a step does.
class PlanExecutor {
 public:
  PlanExecutor(const ExecutionPlan& plan, const std::vector<OpMeta>& meta,
               Observation& ob, ExecContext& ctx,
               const std::optional<Backend>& backend_override,
               PlanStats& stats);

  /// Run one plan (or alt) step.  `recovering` lets downloads swallow
  /// persistent transfer faults on the recovery path.
  void run_step(const PlanStep& s, bool recovering);

  /// Resolve the group's dispatch at run time; returns whether the accel
  /// body should execute.  When the plan staged the group for the device
  /// but the kernel has since degraded, the replan is counted here.
  bool decide(const PlanGroup& g);

  /// Run `body` under the recovery filter: returns nullptr when it ran
  /// clean, else the degrade reason of the recoverable fault (persistent
  /// retry exhaustion, injected OOM) that aborted it.  Non-recoverable
  /// exceptions propagate.
  const char* attempt(const std::function<void()>& body);

  /// Mid-body degrade bookkeeping: fallback + replan notes, pin the
  /// kernel to the CPU.  The caller then runs the patch (recovering).
  void mark_degraded(const PlanGroup& g, const char* reason);

  /// Drain in-flight prefetches, fold the plan counters into the stats
  /// and the pipeline span, release the device store.
  void finish(obs::SpanId pipeline_span);

 private:
  Field* field_ptr(int idx);
  void download(Field& f, bool swallow);

  struct FieldRt {
    bool host_valid = true;
    bool device_valid = false;
  };

  const ExecutionPlan& plan_;
  const std::vector<OpMeta>& meta_;
  Observation& ob_;
  ExecContext& ctx_;
  const std::optional<Backend> backend_override_;
  PlanStats& stats_;
  AccelStore store_;
  std::map<Field*, FieldRt> state_;
  std::optional<sched::Scheduler> engine_;
  Backend cur_backend_ = Backend::kCpu;
};

PlanExecutor::PlanExecutor(const ExecutionPlan& plan,
                           const std::vector<OpMeta>& meta, Observation& ob,
                           ExecContext& ctx,
                           const std::optional<Backend>& backend_override,
                           PlanStats& stats)
    : plan_(plan),
      meta_(meta),
      ob_(ob),
      ctx_(ctx),
      backend_override_(backend_override),
      stats_(stats),
      store_(ctx) {
  if (plan_.options.prefetch) {
    engine_.emplace(ctx_.device(), ctx_.clock(), &ctx_.tracer(), 1,
                    std::string(to_string(ctx_.config().backend)));
    if (ctx_.faults().armed()) {
      engine_->set_fault_injector(&ctx_.faults());
    }
  }
}

Field* PlanExecutor::field_ptr(int idx) {
  const std::string& name =
      plan_.field_names[static_cast<std::size_t>(idx)];
  return ob_.has_field(name) ? &ob_.field(name) : nullptr;
}

// The one download dance (host-consumed, naive cleanup, recovery and
// live-out all share it): copy back if the host copy is stale; a
// persistent transfer fault after the functional copy only loses the
// charge when the caller may swallow it.
void PlanExecutor::download(Field& f, bool swallow) {
  const auto it = state_.find(&f);
  if (it == state_.end() || it->second.host_valid || !store_.present(f)) {
    return;
  }
  try {
    store_.update_host(f);
  } catch (const fault::PersistentFaultError&) {
    if (!swallow) {
      throw;
    }
  }
  it->second.host_valid = true;
}

void PlanExecutor::run_step(const PlanStep& s, bool recovering) {
  switch (s.kind) {
    case StepKind::kChargeOverhead:
      ctx_.charge_serial("pipeline_overhead", kPipelineOverheadSeconds);
      break;
    case StepKind::kEnsureFields:
      meta_[static_cast<std::size_t>(s.op)].op->ensure_fields(ob_);
      break;
    case StepKind::kMapField: {
      Field* f = field_ptr(s.field);
      if (f != nullptr && !store_.present(*f)) {
        store_.create(*f);
        state_[f];  // host_valid=true, device_valid=false
      }
      break;
    }
    case StepKind::kUpload: {
      Field* f = field_ptr(s.field);
      if (f == nullptr) {
        break;
      }
      FieldRt& fs = state_[f];
      if (fs.device_valid) {
        break;
      }
      if (s.async && engine_.has_value()) {
        try {
          store_.update_device_async(*f, *engine_);
          fs.device_valid = true;
          stats_.prefetched_uploads += 1.0;
        } catch (const fault::PersistentFaultError&) {
          // Prefetch failed persistently: leave the device copy stale
          // so the owning operator's synchronous upload retries (and
          // degrades *that* operator, not the one it overlapped).
        }
      } else {
        store_.update_device(*f);
        fs.device_valid = true;
      }
      break;
    }
    case StepKind::kLaunch: {
      const OpMeta& m = meta_[static_cast<std::size_t>(s.op)];
      const LaunchFn& launch =
          plan_.launches[static_cast<std::size_t>(s.op)];
      if (s.on_device) {
        launch(ob_, ctx_, &store_, cur_backend_);
        for (const auto& name : m.writes) {
          if (!ob_.has_field(name)) {
            continue;
          }
          Field& f = ob_.field(name);
          state_[&f].device_valid = true;
          state_[&f].host_valid = false;
        }
      } else {
        launch(ob_, ctx_, nullptr, cur_backend_);
        for (const auto& name : m.writes) {
          if (!ob_.has_field(name)) {
            continue;
          }
          Field& f = ob_.field(name);
          const auto it = state_.find(&f);
          if (it != state_.end()) {
            it->second.host_valid = true;
            it->second.device_valid = false;
          }
        }
      }
      break;
    }
    case StepKind::kDownload: {
      Field* f = field_ptr(s.field);
      if (f != nullptr) {
        download(*f, s.swallow_persistent || recovering);
      }
      break;
    }
    case StepKind::kEvict: {
      Field* f = field_ptr(s.field);
      if (f != nullptr && store_.present(*f)) {
        store_.remove(*f);
        state_.erase(f);
        if (s.liveness) {
          stats_.evictions += 1.0;
        }
      }
      break;
    }
    case StepKind::kSyncTransfers:
      if (engine_.has_value()) {
        engine_->sync_transfers("accel_prefetch_wait");
      }
      break;
  }
}

bool PlanExecutor::decide(const PlanGroup& g) {
  const OpMeta& m = meta_[static_cast<std::size_t>(g.op)];
  cur_backend_ = backend_override_.has_value() ? *backend_override_
                                               : ctx_.backend_for(m.name);
  const bool on_accel = m.supports_accel && is_accel(cur_backend_) &&
                        !ctx_.faults().degraded(m.name);
  if (!on_accel && g.on_accel) {
    // The cached plan staged this operator for the device, but the
    // kernel degraded since plan build: patch to the host fallback.
    stats_.replans += 1.0;
    ctx_.faults().note_replan(m.name);
  }
  return on_accel;
}

const char* PlanExecutor::attempt(const std::function<void()>& body) {
  try {
    body();
  } catch (const fault::PersistentFaultError&) {
    // Retry budget exhausted on a launch or transfer: the plan's
    // host-fallback patch re-runs this operator on the CPU.  The
    // functional work in both runtimes happens on shadow copies
    // before the time charge throws, so host data is untouched.
    return "persistent_fault";
  } catch (const accel::DeviceOomError& e) {
    if (!e.info().injected) {
      throw;  // real capacity overflow: the fig4 OOM points rely on it
    }
    return "device_oom";
  }
  return nullptr;
}

void PlanExecutor::mark_degraded(const PlanGroup& g, const char* reason) {
  const OpMeta& m = meta_[static_cast<std::size_t>(g.op)];
  ctx_.faults().note_fallback(m.name, reason);
  ctx_.set_kernel_backend(m.name, Backend::kCpu);
  ctx_.faults().note_replan(m.name);
  stats_.replans += 1.0;
  cur_backend_ = Backend::kCpu;
}

void PlanExecutor::finish(obs::SpanId pipeline_span) {
  if (engine_.has_value()) {
    // Prefetches issued for an operator that then degraded may still be
    // in flight; account for them before the pipeline closes.
    engine_->sync_transfers("accel_prefetch_wait");
  }
  stats_.transfers_avoided += static_cast<double>(plan_.transfers_avoided);
  stats_.peak_mapped_bytes =
      std::max(stats_.peak_mapped_bytes,
               static_cast<double>(store_.peak_mapped_bytes()));
  ctx_.tracer().add_counter(pipeline_span, "transfers_avoided",
                            static_cast<double>(plan_.transfers_avoided));
  ctx_.tracer().add_counter(pipeline_span, "peak_mapped_bytes",
                            static_cast<double>(store_.peak_mapped_bytes()));
  store_.clear();
}

StepLane lane_of(const PlanStep& s) {
  switch (s.kind) {
    case StepKind::kChargeOverhead:
    case StepKind::kEnsureFields:
      return kLaneHost;
    case StepKind::kMapField:
    case StepKind::kEvict:
      return kLaneCompute;
    case StepKind::kLaunch:
      return s.on_device ? kLaneCompute : kLaneHost;
    case StepKind::kUpload:
    case StepKind::kDownload:
    case StepKind::kSyncTransfers:
      return kLaneCopy;
  }
  return kLaneHost;
}

std::string name_of(const ExecutionPlan& plan, const std::vector<OpMeta>& meta,
                    const PlanStep& s) {
  if (s.field >= 0) {
    return plan.field_names[static_cast<std::size_t>(s.field)];
  }
  if (s.op >= 0) {
    return meta[static_cast<std::size_t>(s.op)].name;
  }
  return "pipeline";
}

/// Resource uses of every main step of a plan.  "host:<field>" and
/// "dev:<field>" carry the data; "host" serializes the driver thread;
/// "copy_engine" orders prefetched uploads before the drain awaiting them.
std::vector<std::vector<ResourceUse>> step_uses(
    const ExecutionPlan& plan, const std::vector<OpMeta>& meta) {
  std::vector<std::vector<ResourceUse>> all;
  all.reserve(plan.steps.size());
  for (const PlanStep& s : plan.steps) {
    std::vector<ResourceUse> uses;
    auto reads = [&](std::string name) { uses.push_back({std::move(name)}); };
    auto writes = [&](std::string name) {
      uses.push_back({std::move(name), true});
    };
    const std::string field =
        s.field >= 0 ? plan.field_names[static_cast<std::size_t>(s.field)]
                     : std::string();
    switch (s.kind) {
      case StepKind::kChargeOverhead:
        writes("host");
        break;
      case StepKind::kEnsureFields:
        writes("host");
        for (const std::string& f :
             meta[static_cast<std::size_t>(s.op)].touched) {
          writes("host:" + f);
        }
        break;
      case StepKind::kMapField:
      case StepKind::kEvict:
        writes("dev:" + field);
        break;
      case StepKind::kUpload:
        reads("host:" + field);
        writes("dev:" + field);
        if (s.async) {
          writes("copy_engine");
        }
        break;
      case StepKind::kLaunch: {
        const OpMeta& m = meta[static_cast<std::size_t>(s.op)];
        const char* space = s.on_device ? "dev:" : "host:";
        for (const std::string& f : m.reads) {
          reads(space + f);
        }
        for (const std::string& f : m.writes) {
          writes(space + f);
        }
        if (!s.on_device) {
          writes("host");
        }
        break;
      }
      case StepKind::kDownload:
        reads("dev:" + field);
        writes("host:" + field);
        break;
      case StepKind::kSyncTransfers:
        reads("copy_engine");
        break;
    }
    all.push_back(std::move(uses));
  }
  return all;
}

}  // namespace

std::vector<std::vector<int>> derive_deps(
    const std::vector<std::vector<ResourceUse>>& uses) {
  struct Res {
    int last_writer = -1;
    std::vector<int> readers;  ///< readers since the last write
  };
  std::map<std::string, Res> res;
  std::vector<std::vector<int>> deps(uses.size());
  for (std::size_t i = 0; i < uses.size(); ++i) {
    const int id = static_cast<int>(i);
    std::set<int> d;
    for (const ResourceUse& use : uses[i]) {
      const Res& r = res[use.name];
      if (r.last_writer >= 0) {
        d.insert(r.last_writer);  // RAW / WAW
      }
      if (use.write) {
        d.insert(r.readers.begin(), r.readers.end());  // WAR
      }
    }
    for (const ResourceUse& use : uses[i]) {
      Res& r = res[use.name];
      if (use.write) {
        r.last_writer = id;
        r.readers.clear();
      } else {
        r.readers.push_back(id);
      }
    }
    deps[i].assign(d.begin(), d.end());
  }
  return deps;
}

void execute_plan(const ExecutionPlan& plan, const std::vector<OpMeta>& meta,
                  Observation& ob, ExecContext& ctx,
                  const std::optional<Backend>& backend_override,
                  PlanStats& stats, StepLog* log) {
  obs::ScopedSpan pipeline_span(ctx.tracer(), "pipeline:" + ob.name(),
                                "pipeline");
  PlanExecutor pe(plan, meta, ob, ctx, backend_override, stats);
  std::vector<std::vector<int>> deps;
  if (log != nullptr) {
    deps = derive_deps(step_uses(plan, meta));
    log->begin = ctx.clock().now();
  }

  auto record = [&](const PlanStep& s, bool alt, int id, double t0) {
    StepRecord& r = log->records.emplace_back();
    r.kind = s.kind;
    r.alt = alt;
    r.id = id;
    r.lane = alt ? kLaneHost : lane_of(s);
    r.name = name_of(plan, meta, s);
    r.start = t0;
    r.seconds = ctx.clock().now() - t0;
    if (!alt) {
      r.deps = deps[static_cast<std::size_t>(id)];
    }
  };
  // Run steps [begin, end) of the main list, or of alt_steps for a patch.
  auto run = [&](bool alt, int begin, int end, bool recovering) {
    const std::vector<PlanStep>& steps = alt ? plan.alt_steps : plan.steps;
    const bool barrier = log != nullptr && alt && begin < end;
    if (barrier) {
      log->records.emplace_back().barrier = true;
    }
    for (int i = begin; i < end; ++i) {
      const PlanStep& s = steps[static_cast<std::size_t>(i)];
      if (log == nullptr) {
        pe.run_step(s, recovering);
        continue;
      }
      const double t0 = ctx.clock().now();
      try {
        pe.run_step(s, recovering);
      } catch (...) {
        // A body step out of retries still charged its attempts: log it
        // before the fault reaches the recovery filter, ahead of the
        // patch barrier.
        record(s, alt, i, t0);
        throw;
      }
      record(s, alt, i, t0);
    }
    if (barrier) {
      log->records.emplace_back().barrier = true;
    }
  };

  int patched = 0;
  for (const PlanGroup& g : plan.groups) {
    if (g.op < 0) {
      run(false, g.begin, g.end, false);
      continue;
    }
    const OpMeta& m = meta[static_cast<std::size_t>(g.op)];
    obs::ScopedSpan op_span(ctx.tracer(), m.name, "operator");
    run(false, g.begin, g.try_begin, false);
    if (!pe.decide(g)) {
      run(true, g.alt_begin, g.alt_end, false);
      patched += g.on_accel ? 1 : 0;
    } else {
      const char* reason =
          pe.attempt([&] { run(false, g.try_begin, g.post_begin, false); });
      if (reason != nullptr) {
        pe.mark_degraded(g, reason);
        run(true, g.alt_begin, g.alt_end, true);
        ++patched;
      } else {
        // Naive-staging cleanup runs outside the recovery try: the op
        // already completed, so a persistent transfer fault here must
        // not re-run it (in-place ops would double-apply).
        run(false, g.post_begin, g.post_end, false);
      }
    }
    run(false, g.post_end, g.end, false);
  }
  if (log != nullptr) {
    log->end = ctx.clock().now();
    log->n_groups = static_cast<int>(plan.groups.size());
    log->patched = patched;
  }

  pe.finish(pipeline_span.id());
}

// --- dump ------------------------------------------------------------------

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

void write_steps(std::ostream& out, const ExecutionPlan& plan,
                 const std::vector<PlanStep>& steps) {
  bool first = true;
  for (const auto& s : steps) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n    {\"kind\":" << json_str(to_string(s.kind));
    if (s.op >= 0) {
      out << ",\"op\":" << s.op;
    }
    if (s.field >= 0) {
      out << ",\"field\":"
          << json_str(plan.field_names[static_cast<std::size_t>(s.field)]);
    }
    if (s.on_device) {
      out << ",\"on_device\":true";
    }
    if (s.async) {
      out << ",\"async\":true";
    }
    if (s.swallow_persistent) {
      out << ",\"swallow_persistent\":true";
    }
    if (s.liveness) {
      out << ",\"liveness\":true";
    }
    out << "}";
  }
}

}  // namespace

void ExecutionPlan::write_json(std::ostream& out) const {
  out << "{\n  \"schema\":\"toastcase-plan-v1\",\n";
  out << "  \"key\":" << json_str(key) << ",\n";
  out << "  \"options\":{\"naive_staging\":"
      << (options.mode == config::Staging::kNaive ? "true" : "false")
      << ",\"prefetch\":" << (options.prefetch ? "true" : "false")
      << ",\"evict\":" << (options.evict ? "true" : "false") << "},\n";
  out << "  \"ops\":[";
  for (std::size_t k = 0; k < op_names.size(); ++k) {
    if (k != 0) {
      out << ",";
    }
    out << "\n    {\"name\":" << json_str(op_names[k])
        << ",\"backend\":" << json_str(core::to_string(op_backends[k]))
        << ",\"tag\":"
        << json_str(backend::name_of(backend::index_of(op_backends[k])))
        << ",\"on_accel\":" << (op_on_accel[k] != 0 ? "true" : "false")
        << "}";
  }
  out << "\n  ],\n";
  out << "  \"groups\":[";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g != 0) {
      out << ",";
    }
    const PlanGroup& pg = groups[g];
    out << "\n    {\"op\":" << pg.op << ",\"tag\":"
        << json_str(backend::name_of(pg.tag))
        << ",\"on_accel\":" << (pg.on_accel ? "true" : "false") << "}";
  }
  out << "\n  ],\n";
  out << "  \"field_names\":[";
  for (std::size_t i = 0; i < field_names.size(); ++i) {
    if (i != 0) {
      out << ",";
    }
    out << json_str(field_names[i]);
  }
  out << "],\n";
  out << "  \"steps\":[";
  write_steps(out, *this, steps);
  out << "\n  ],\n";
  out << "  \"alt_steps\":[";
  write_steps(out, *this, alt_steps);
  out << "\n  ],\n";
  out << "  \"stats\":{\"naive_transfers\":" << naive_transfers
      << ",\"planned_transfers\":" << planned_transfers
      << ",\"transfers_avoided\":" << transfers_avoided
      << ",\"planned_evictions\":" << planned_evictions
      << ",\"prefetch_uploads\":" << prefetch_uploads << "}\n";
  out << "}\n";
}

}  // namespace toast::core
