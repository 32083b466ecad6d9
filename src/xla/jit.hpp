#pragma once

// jit(): trace-compile-cache-execute, the JAX workflow of the paper's
// Figure 1 (trace -> HLO -> XLA compile -> hardware execution).
//
// A Jit wraps a pure function over Arrays.  Calls are dispatched through a
// Runtime that owns the simulated device, virtual clock and time log:
//   - first call per (shape signature, static key): trace + optimize,
//     charging the modelled compile time;
//   - every call: per-fusion-group device execution charged to the clock
//     under the kernel's name, plus a fixed dispatch overhead (higher than
//     the OpenMP runtime's - paper §4.1 footnote 10).

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/host_model.hpp"
#include "accel/sim_device.hpp"
#include "accel/timelog.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "xla/array.hpp"
#include "xla/executor.hpp"

namespace toast::xla {

/// Per-process JAX-like runtime configuration and device handle.
class Runtime {
 public:
  Runtime(accel::SimDevice& device, accel::VirtualClock& clock,
          obs::Tracer& tracer)
      : device_(device), clock_(clock), tracer_(tracer) {}

  accel::SimDevice& device() { return device_; }
  accel::VirtualClock& clock() { return clock_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Flat per-category view (the seed's TimeLog, aggregated from spans).
  accel::TimeLog log() const { return tracer_.timelog(); }

  /// Attach a fault injector (nullptr detaches).  Not owned.  Jitted
  /// calls then probe for launch faults before dispatch and retry
  /// injected OOMs on temp-buffer accounting.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }
  fault::FaultInjector* faults() { return faults_; }

  /// Host-side dispatch cost per jitted call (tracing cache lookup, arg
  /// handling, stream submission).
  double dispatch_overhead() const { return dispatch_overhead_; }
  void set_dispatch_overhead(double s) { dispatch_overhead_ = s; }

  /// Ratio of paper-scale to executed work (see omptarget::Runtime).
  double work_scale() const { return work_scale_; }
  void set_work_scale(double s) { work_scale_ = s; }

  /// Virtual streams jitted calls dispatch fusion groups onto (XLA's
  /// async dispatch).  Independent groups — per the HLO dependency edges —
  /// overlap their launch latency across streams; with 1 stream (the
  /// default) execution is the seed's serial timeline, bit for bit.  The
  /// CPU backend always executes on one stream.
  int streams() const { return n_streams_; }
  void set_streams(int n) { n_streams_ = n < 1 ? 1 : n; }

  /// JAX preallocates a device memory pool by default; the paper disables
  /// it when oversubscribing (§3.1.3).  With preallocation the pool claims
  /// the fraction below of device memory at startup.
  void enable_preallocation(double fraction = 0.75);
  void disable_preallocation();
  bool preallocation() const { return prealloc_bytes_ > 0; }

  /// x64 mode: the paper enables 64-bit floats (JAX defaults to 32).  We
  /// always compute in f64; this flag only doubles modelled traffic when
  /// disabled... which we therefore forbid.
  bool x64() const { return true; }

  std::size_t pool_bytes() const { return prealloc_bytes_; }

  /// Host buffers of dead XLA values, recycled by every jitted call on
  /// this runtime.
  BufferPool& buffers() { return buffers_; }

  /// Force the XLA *CPU* backend (paper §4.2): fusion groups execute on
  /// the host model instead of the device.  The CPU backend parallelizes
  /// only heavy ops (reductions/dots); elementwise groups run single
  /// threaded, which is why the paper measured it 7.4x slower than the
  /// threaded C++ baseline.
  void set_cpu_backend(accel::HostSpec spec, int heavy_threads,
                       int socket_active_threads);
  bool cpu_backend() const { return cpu_backend_; }
  const accel::HostModel& host_model() const { return host_model_; }
  int cpu_heavy_threads() const { return cpu_heavy_threads_; }
  int cpu_socket_active() const { return cpu_socket_active_; }

 private:
  accel::SimDevice& device_;
  accel::VirtualClock& clock_;
  obs::Tracer& tracer_;
  fault::FaultInjector* faults_ = nullptr;
  double dispatch_overhead_ = 1.5e-5;
  double work_scale_ = 1.0;
  int n_streams_ = 1;
  std::size_t prealloc_bytes_ = 0;
  bool cpu_backend_ = false;
  accel::HostModel host_model_;
  int cpu_heavy_threads_ = 1;
  int cpu_socket_active_ = 1;
  BufferPool buffers_;
};

using TracedFn =
    std::function<std::vector<Array>(const std::vector<Array>&)>;

class Jit {
 public:
  /// `fn` is traced on a miss unless the call hands its own function.
  explicit Jit(std::string name, TracedFn fn = {})
      : name_(std::move(name)), fn_(std::move(fn)) {}

  /// Parameters whose buffers the call may write (jax.jit donate_argnums).
  /// Their bytes are subtracted from the temporaries the device must hold
  /// for the call.  A donated param passed as a writable borrow
  /// (Literal::borrow_writable) is updated in place, so a functional
  /// x.at[idx].set/add on it writes straight into the caller's buffer and
  /// the result comes back holding that memory; one that overlaps any
  /// other argument's memory is copied first.  A writable borrow at any
  /// other param is copied too.
  void set_donated_params(std::vector<int> params) {
    donated_ = std::move(params);
  }

  /// Parameters that stay bit-identical across a loop of calls (the
  /// interval index, pointing and flags of the map-making kernels, where
  /// only the timestream or amplitudes change).  The Jit keeps one
  /// ReuseEntry: what the last call computed from these params alone, for
  /// the next call on the same executable to read instead of recomputing
  /// (see xla::execute).  Outputs, report and every virtual charge are the
  /// same with or without the declaration; a declared param that does
  /// change only costs a miss.  Redeclaring the same set keeps the entry.
  void set_invariant_params(std::vector<int> params);

  /// Execute.  `static_key` distinguishes traces that depend on static
  /// (non-array) arguments, e.g. the padded interval length, which reach
  /// a per-call `trace` as its captures.  The call owns `args`: their
  /// owned buffers are recycled once dead, so a caller that is done with
  /// them passes them with std::move.  Borrowed args are read in place
  /// (see xla::execute).  The capacity check of the call's temporaries
  /// and the launch-fault probe run before any value is computed, so a
  /// call that throws there leaves a donated buffer untouched.
  std::vector<Literal> call(Runtime& rt, std::vector<Literal> args,
                            const std::string& static_key = "",
                            const TracedFn& trace = {});

  /// Like call, and also expose the execution report (for tests/benches).
  std::vector<Literal> call_reported(Runtime& rt, std::vector<Literal> args,
                                     const std::string& static_key,
                                     ExecutionReport& report,
                                     const TracedFn& trace = {});

  const std::string& name() const { return name_; }
  std::size_t cache_size() const { return cache_.size(); }
  /// Calls that reused the kept invariant values since the cache was
  /// last cleared.
  std::size_t reuse_hits() const { return reuse_.hits; }

  /// Drop all compiled executables and the kept invariant values (a fresh
  /// process has an empty JIT cache; the multi-process simulation resets
  /// between ranks).
  void clear_cache();

  /// Inspect a cached executable (nullptr if that signature was never
  /// compiled).
  const Compiled* lookup(const std::vector<Literal>& args,
                         const std::string& static_key = "") const;

 private:
  std::string signature(const std::vector<Literal>& args,
                        const std::string& static_key) const;
  /// An empty entry for `params`.
  void reset_reuse(std::vector<int> params);
  const Compiled& get_or_compile(Runtime& rt,
                                 const std::vector<Literal>& args,
                                 const std::string& static_key,
                                 const TracedFn& trace);

  std::string name_;
  TracedFn fn_;
  std::vector<int> donated_;
  std::map<std::string, std::unique_ptr<Compiled>> cache_;
  ReuseEntry reuse_;
};

}  // namespace toast::xla
