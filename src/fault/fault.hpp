#pragma once

// Deterministic fault injection + recovery policies for the simulated
// stack (ROADMAP: "handle as many scenarios as you can imagine").
//
// A FaultPlan schedules injectable faults — transient transfer failures,
// kernel-launch failures, device OOM under memory pressure, stream
// straggler slowdowns, simulated rank failures — at hook points in
// SimDevice, the sched:: engines, omptarget::Runtime, the xla executor
// and mpisim/job.  The FaultInjector draws from a counter-based RNG
// (splitmix64 over the plan seed, the fault kind, the site name and a
// per-site counter), so the same seed produces the same firing pattern
// regardless of wall time or thread interleaving, and the same seed run
// twice yields bit-identical results *and* timings.
//
// Recovery is charged honestly to the virtual clock: every retry's
// wasted work and backoff becomes a logged `fault_*` span, so faults
// show up in traces, TimeLog aggregation and the metrics JSON exactly
// like any other cost.  An empty plan leaves the injector disarmed and
// every hook is a no-op — zero-fault runs are bit-for-bit identical to
// a build without the fault layer.

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/fault_hook.hpp"
#include "accel/sim_device.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "resilience/policy.hpp"

namespace toast::resilience {
class Manager;
}

namespace toast::fault {

enum class FaultKind {
  kTransfer,     ///< transient PCIe transfer failure
  kLaunch,       ///< kernel launch failure
  kDeviceOom,    ///< allocation failure under memory pressure
  kStraggler,    ///< stream op slowdown (multiplicative)
  kRankFailure,  ///< simulated rank death in mpisim
  kLinkDegrade,  ///< comm-engine link slowdown (multiplicative)
  kChunkLoss,    ///< comm-engine lost chunk (retransmit with backoff)
};

const char* to_string(FaultKind k);
/// Parse "transfer" / "launch" / "oom" / "straggler" / "rank" / "link" /
/// "chunk"; throws std::runtime_error on anything else.
FaultKind kind_from_string(const std::string& s);

/// One scheduled fault: fires with `probability` at every matching site
/// visit (deterministically, from the plan seed).
struct FaultRule {
  FaultKind kind = FaultKind::kTransfer;
  /// Substring matched against the hook site name; empty matches all.
  std::string site;
  double probability = 0.0;
  /// Stop firing after this many fires; -1 = unbounded.
  int max_fires = -1;
  /// Straggler rules: multiplicative slowdown of the op (>= 1).
  double factor = 2.0;
  /// OOM rules: only fire when (in_use + requested) / capacity reaches
  /// this fraction (0 = fire regardless of pressure).
  double pressure_threshold = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Global retry budget; a resilience policy may override it per site.
  resilience::RetrySpec retry;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Parse a "toastcase-fault-plan-v1" document; throws on malformed
  /// input or unknown fault kinds.
  static FaultPlan parse(const std::string& text);
  static FaultPlan load_file(const std::string& path);
  /// Parse an already-decoded JSON value (e.g. a plan nested inside a
  /// larger document); `where` prefixes every error message.
  static FaultPlan from_value(const obs::json::Value& doc,
                              const std::string& where);
};

/// Thrown when the retry budget for an op is exhausted; the pipeline
/// catches it and degrades the kernel to its CPU implementation.
class PersistentFaultError : public std::runtime_error {
 public:
  PersistentFaultError(FaultKind kind, std::string site, int failures);
  FaultKind kind() const { return kind_; }
  const std::string& site() const { return site_; }
  int failures() const { return failures_; }

 private:
  FaultKind kind_;
  std::string site_;
  int failures_;
};

/// Result of an async fault probe: the scheduler places the penalty
/// interval itself (no clock side effects here).
struct ProbeResult {
  int failures = 0;
  double penalty = 0.0;
  bool persistent = false;
};

class FaultInjector final : public accel::FaultHook {
 public:
  FaultInjector() = default;
  FaultInjector(FaultPlan plan, accel::VirtualClock* clock,
                obs::Tracer* tracer);

  /// False for an empty plan: every hook returns immediately without
  /// touching the clock, the tracer or any counter.
  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Attach a resilience policy manager.  An armed manager overrides the
  /// plan's global retry budget per site, gates attempts through circuit
  /// breakers and enforces retry-penalty deadlines; a disarmed (or null)
  /// manager leaves every draw and charge bit-for-bit unchanged.
  void set_resilience(resilience::Manager* manager) {
    resilience_ = manager;
  }
  resilience::Manager* resilience() const { return resilience_; }

  // --- synchronous attempt (blocking ops) ---------------------------------

  /// Draw for `kind` at `site` before a blocking op that would cost
  /// `op_seconds`.  Each failed attempt charges wasted work + backoff to
  /// the virtual clock and emits a logged `fault_retry_<kind>` span;
  /// throws PersistentFaultError when the retry budget is exhausted.
  /// Returns the number of failed attempts (0 = clean first try).
  int attempt_sync(FaultKind kind, const std::string& site,
                   double op_seconds);

  // --- async probe (stream-scheduled ops) ---------------------------------

  /// Same draw sequence as attempt_sync but with no side effects: the
  /// caller places `penalty` seconds ahead of the op on its stream and
  /// emits the fault span at that interval.  `persistent` means the
  /// retry budget is exhausted and the op should not run.
  ProbeResult probe(FaultKind kind, const std::string& site,
                    double op_seconds);

  /// Multiplicative slowdown for the stream op at `site` (1.0 = none).
  double straggler_factor(const std::string& site);

  /// Multiplicative wire-time slowdown for the comm-engine link step at
  /// `site` (1.0 = none) — the straggler draw on kLinkDegrade rules.
  double link_degrade_factor(const std::string& site);

  /// Lost-chunk probe for a comm-engine step: same retry accounting as
  /// probe(); the engine places the penalty ahead of the step on its NIC
  /// lanes (a lost chunk is re-sent on the same wire).
  ProbeResult chunk_loss(const std::string& site, double op_seconds);

  /// Rank-failure draw for mpisim (true = this rank dies here).
  bool rank_failure(const std::string& site);

  // --- accel::FaultHook ----------------------------------------------------

  bool oom_should_fire(const char* site, std::size_t requested,
                       std::size_t in_use, std::size_t capacity) override;

  /// Recovery decision after a DeviceOomError: injected faults are worth
  /// retrying (charges backoff for `attempt`, returns true) until the
  /// retry budget runs out; real capacity overflows return false.
  bool on_oom(const std::string& site, const accel::DeviceOomError& e,
              int attempt);

  // --- recovery event notes ------------------------------------------------

  /// A kernel degraded to its CPU implementation (pipeline fallback).
  void note_fallback(const std::string& kernel, const std::string& reason);
  /// A cached ExecutionPlan group was patched to its host fallback because
  /// `kernel` is degraded (the plan-level view of recovery).  Trace-only:
  /// no clock charge.
  void note_replan(const std::string& kernel);
  /// The omptarget pool shrank + re-staged instead of aborting.
  void note_oom_recovery(const std::string& site, double seconds);
  /// The destriper restored a checkpoint after a mid-solve failure.
  void note_checkpoint_restore(const std::string& site, int iteration);
  /// A straggler stretched a stream op by `extra_seconds` at `start`.
  void note_straggler(const std::string& site, double start,
                      double extra_seconds);
  /// Async retries placed by a scheduler at [start, start+penalty].
  void note_async_retries(FaultKind kind, const std::string& site,
                          double start, const ProbeResult& r);
  /// A recovery rolled back `count` in-flight async tasks, which were
  /// issued again by the replay (the destriper's collective pipeline).
  /// Trace-only.
  void note_task_requeue(const std::string& site, int count);

  // --- degradation bookkeeping --------------------------------------------

  bool degraded(const std::string& kernel) const {
    return degraded_.count(kernel) != 0;
  }
  void mark_degraded(const std::string& kernel) { degraded_.insert(kernel); }
  const std::set<std::string>& degraded_kernels() const { return degraded_; }

  // --- counters ------------------------------------------------------------

  /// Flat fault counters for metrics JSON ("fault_transfer_retries",
  /// "fault_fallbacks", ...).  Empty when nothing fired.
  const std::map<std::string, double>& counters() const { return counters_; }
  void add_count(const std::string& key, double v = 1.0) {
    counters_[key] += v;
  }

 private:
  /// Deterministic uniform [0, 1) draw for (kind, site); advances the
  /// per-(kind, site) counter.
  double draw(FaultKind kind, const std::string& site);
  /// First armed rule matching (kind, site) with fires remaining, or -1.
  int match(FaultKind kind, const std::string& site);
  /// The effective retry policy for `site`: the plan's global policy,
  /// overridden per site when an armed resilience manager declares one.
  resilience::RetrySpec retry_for(const std::string& site) const;
  double backoff(int attempt) const;

  FaultPlan plan_;
  accel::VirtualClock* clock_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  resilience::Manager* resilience_ = nullptr;
  bool armed_ = false;
  std::map<std::string, std::uint64_t> draw_counts_;
  std::vector<int> rule_fires_;
  std::set<std::string> degraded_;
  std::map<std::string, double> counters_;
};

}  // namespace toast::fault
