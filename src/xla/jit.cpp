#include "xla/jit.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <sstream>

#include "sched/scheduler.hpp"

namespace toast::xla {

void Runtime::enable_preallocation(double fraction) {
  if (prealloc_bytes_ > 0) {
    return;
  }
  const auto bytes = static_cast<std::size_t>(
      fraction * static_cast<double>(device_.capacity_bytes()));
  device_.allocate(bytes, "xla_prealloc");
  prealloc_bytes_ = bytes;
}

void Runtime::disable_preallocation() {
  if (prealloc_bytes_ > 0) {
    device_.deallocate(prealloc_bytes_, "xla_prealloc");
    prealloc_bytes_ = 0;
  }
}

void Runtime::set_cpu_backend(accel::HostSpec spec, int heavy_threads,
                              int socket_active_threads) {
  cpu_backend_ = true;
  host_model_ = accel::HostModel(spec);
  cpu_heavy_threads_ = heavy_threads;
  cpu_socket_active_ = socket_active_threads;
  // No device: transfers vanish, but the Python-level dispatch cost of the
  // XLA runtime remains (and is larger than a bare C call).
  dispatch_overhead_ = 4.0e-5;
}

void Jit::set_invariant_params(std::vector<int> params) {
  std::sort(params.begin(), params.end());
  params.erase(std::unique(params.begin(), params.end()), params.end());
  if (params != reuse_.params) {
    reset_reuse(std::move(params));
  }
}

void Jit::clear_cache() {
  cache_.clear();
  reset_reuse(std::move(reuse_.params));
}

void Jit::reset_reuse(std::vector<int> params) {
  reuse_ = ReuseEntry{};
  reuse_.params = std::move(params);
}

std::string Jit::signature(const std::vector<Literal>& args,
                           const std::string& static_key) const {
  std::ostringstream key;
  for (const auto& a : args) {
    key << a.shape().to_string() << to_string(a.dtype()) << ";";
  }
  key << "#" << static_key;
  return key.str();
}

const Compiled* Jit::lookup(const std::vector<Literal>& args,
                            const std::string& static_key) const {
  const auto it = cache_.find(signature(args, static_key));
  return it == cache_.end() ? nullptr : it->second.get();
}

const Compiled& Jit::get_or_compile(Runtime& rt,
                                    const std::vector<Literal>& args,
                                    const std::string& static_key,
                                    const TracedFn& trace) {
  const std::string key = signature(args, static_key);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    return *it->second;
  }
  // Trace: build parameter instructions matching the argument shapes and
  // run the user function to record the graph.
  TraceContext ctx(name_);
  std::vector<Array> params;
  params.reserve(args.size());
  for (std::size_t p = 0; p < args.size(); ++p) {
    HloInstruction in;
    in.opcode = Opcode::kParam;
    in.dtype = args[p].dtype();
    in.shape = args[p].shape();
    in.i0 = static_cast<std::int64_t>(p);
    const InstrId id = ctx.emit(std::move(in));
    ctx.module().params.push_back(id);
    params.emplace_back(&ctx, id);
  }
  const std::vector<Array> results = trace ? trace(params) : fn_(params);
  std::vector<InstrId> roots;
  roots.reserve(results.size());
  for (const auto& r : results) {
    if (r.ctx() != &ctx) {
      throw std::logic_error("xla: jit function returned a foreign array");
    }
    roots.push_back(r.id());
  }
  auto compiled = std::make_unique<Compiled>(compile(ctx.finish(roots)));

  // Charge the compile time once (the paper includes JIT compilation in
  // its runtimes).
  rt.clock().advance(compiled->compile_seconds);
  const obs::SpanId span = rt.tracer().record(
      "jit_compile", "compile", compiled->compile_seconds, "jax");
  rt.tracer().add_counter(span, "instructions",
                          static_cast<double>(compiled->module.size()));
  rt.tracer().add_counter(span, "fusion_groups",
                          static_cast<double>(compiled->n_groups));

  const auto [pos, inserted] = cache_.emplace(key, std::move(compiled));
  (void)inserted;
  return *pos->second;
}

namespace {

/// Whether the storage of `a` and `b` shares a byte.
bool overlaps(const Literal& a, const Literal& b) {
  const auto* a0 = static_cast<const std::byte*>(a.data());
  const auto* b0 = static_cast<const std::byte*>(b.data());
  const std::less<const std::byte*> before;
  return a.byte_size() > 0 && b.byte_size() > 0 &&
         before(a0, b0 + b.byte_size()) && before(b0, a0 + a.byte_size());
}

}  // namespace

std::vector<Literal> Jit::call_reported(Runtime& rt, std::vector<Literal> args,
                                        const std::string& static_key,
                                        ExecutionReport& report,
                                        const TracedFn& trace) {
  const Compiled& compiled = get_or_compile(rt, args, static_key, trace);
  // Memory accounting: temporaries live for the duration of the call.
  // Donated parameter buffers are recycled for outputs.
  std::size_t donated_bytes = 0;
  for (const int p : donated_) {
    if (p >= 0 && static_cast<std::size_t>(p) < args.size()) {
      donated_bytes += args[static_cast<std::size_t>(p)].byte_size();
    }
  }
  // Only a donated param is written in place, and only when no other
  // argument shares its memory: any other writable borrow is copied.
  for (std::size_t p = 0; p < args.size(); ++p) {
    if (!args[p].borrowed() || !args[p].writable()) {
      continue;
    }
    bool copy = std::find(donated_.begin(), donated_.end(),
                          static_cast<int>(p)) == donated_.end();
    for (std::size_t q = 0; q < args.size() && !copy; ++q) {
      copy = q != p && overlaps(args[p], args[q]);
    }
    if (copy) {
      args[p] = Literal(args[p]);
    }
  }

  // The capacity check and the launch-fault probe come before execute(),
  // which may update a donated buffer in place: a call that fails here
  // leaves the caller's memory as it was.  Both depend only on shapes,
  // and execute() charges nothing to the clock, so the timeline is the
  // same as checking after it.
  const std::size_t peak = peak_temp_bytes(compiled);
  const std::size_t temp = peak > donated_bytes ? peak - donated_bytes : 0;
  // When preallocation is on the pool already owns the memory; otherwise
  // allocate (and immediately release) against the device to enforce the
  // capacity limit.
  if (!rt.preallocation() && temp > 0) {
    fault::FaultInjector* faults = rt.faults();
    for (int attempt = 0;; ++attempt) {
      try {
        rt.device().allocate(temp, "xla_temp");
        break;
      } catch (const accel::DeviceOomError& e) {
        // Injected allocation failures get their bounded backoff retry;
        // real capacity overflows propagate (fig4 relies on them).
        if (faults == nullptr || !faults->on_oom("xla_temp", e, attempt)) {
          throw;
        }
      }
    }
    rt.device().deallocate(temp, "xla_temp");
  }
  if (rt.faults() != nullptr && rt.faults()->armed() && !rt.cpu_backend()) {
    // Probed before any value is computed, so a persistent launch fault
    // leaves the device counters and every donated buffer untouched (the
    // pipeline re-runs the op on the CPU).  Retry penalties land on the
    // clock here.
    rt.faults()->attempt_sync(fault::FaultKind::kLaunch, "xla/" + name_,
                              rt.dispatch_overhead());
  }
  std::vector<Literal> outputs =
      execute(compiled, std::move(args), rt.buffers(), &report,
              reuse_.params.empty() ? nullptr : &reuse_);

  // Charge execution: one dispatch per call, then place the fusion-group
  // DAG onto the runtime's virtual streams (XLA dispatches groups
  // asynchronously; the call blocks on the last result).  With one stream
  // the placement degenerates to the seed's serial sum after the dispatch
  // gap, bit for bit; the whole call is the logged parent span.
  const char* backend_label = rt.cpu_backend() ? "jax-cpu" : "jax";
  const double t_start = rt.clock().now();
  struct GroupCharge {
    std::size_t group;
    accel::WorkEstimate work;
  };
  std::vector<GroupCharge> charges;
  std::vector<sched::BatchOp> batch;
  std::vector<int> batch_index(report.group_work.size(), -1);
  for (std::size_t g = 0; g < report.group_work.size(); ++g) {
    const auto& w = report.group_work[g];
    if (w.launches <= 0.0) {
      continue;
    }
    accel::WorkEstimate scaled = w.scaled(rt.work_scale());
    double t = 0.0;
    double launch_part = 0.0;
    if (rt.cpu_backend()) {
      // XLA:CPU parallelizes individual heavy ops only; elementwise
      // fusion groups run on one core, and its scalar codegen does not
      // vectorize these loops the way the hand-written kernels do
      // (the backend "has received significantly less attention", §4.2).
      const bool heavy = g < report.group_heavy.size() && report.group_heavy[g];
      const int threads = heavy ? rt.cpu_heavy_threads() : 1;
      scaled.cpu_vector_eff = std::min(scaled.cpu_vector_eff, 0.15);
      // ...and it materializes temporaries the GPU backend would keep in
      // registers, roughly doubling the memory traffic.
      scaled.bytes_read *= 2.0;
      scaled.bytes_written *= 2.0;
      t = rt.host_model().exec_time(scaled, threads, rt.cpu_socket_active());
    } else {
      t = rt.device().exec_time(scaled);
      rt.device().note_execution(scaled, t);
      launch_part =
          std::min(t, scaled.launches * rt.device().spec().launch_latency);
    }
    sched::BatchOp op;
    op.name = name_ + "/group" + std::to_string(g);
    op.duration = t;
    op.launch_part = launch_part;
    if (g < report.group_deps.size()) {
      for (const int d : report.group_deps[g]) {
        if (d >= 0 && static_cast<std::size_t>(d) < batch_index.size() &&
            batch_index[static_cast<std::size_t>(d)] >= 0) {
          op.deps.push_back(batch_index[static_cast<std::size_t>(d)]);
        }
      }
    }
    batch_index[g] = static_cast<int>(batch.size());
    batch.push_back(std::move(op));
    charges.push_back({g, scaled});
  }
  const int streams = rt.cpu_backend() ? 1 : rt.streams();
  const sched::BatchPlacement placed =
      sched::schedule_batch(batch, streams, rt.dispatch_overhead());
  rt.clock().advance(placed.makespan);
  const obs::SpanId call_span = rt.tracer().record(
      name_, "kernel", placed.makespan, backend_label, &report.total);
  rt.tracer().add_counter(call_span, "peak_temp_bytes",
                          static_cast<double>(report.peak_temp_bytes));
  rt.tracer().add_counter(call_span, "pass_folded",
                          static_cast<double>(compiled.pass_stats.folded));
  rt.tracer().add_counter(
      call_span, "pass_simplified",
      static_cast<double>(compiled.pass_stats.simplified));
  rt.tracer().add_counter(
      call_span, "pass_dot_rewrites",
      static_cast<double>(compiled.pass_stats.dot_rewrites));
  rt.tracer().add_counter(
      call_span, "pass_cse_removed",
      static_cast<double>(compiled.pass_stats.cse_removed));
  rt.tracer().add_counter(
      call_span, "pass_dce_removed",
      static_cast<double>(compiled.pass_stats.dce_removed));
  for (std::size_t i = 0; i < charges.size(); ++i) {
    const obs::SpanId span = rt.tracer().record_at(
        batch[i].name, "fusion", t_start + placed.start[i],
        batch[i].duration, backend_label, &charges[i].work,
        /*logged=*/false);
    if (streams > 1) {
      rt.tracer().set_stream(span, placed.stream[i]);
    }
  }
  return outputs;
}

std::vector<Literal> Jit::call(Runtime& rt, std::vector<Literal> args,
                               const std::string& static_key,
                               const TracedFn& trace) {
  ExecutionReport report;
  return call_reported(rt, std::move(args), static_key, report, trace);
}

}  // namespace toast::xla
