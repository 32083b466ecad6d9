#pragma once

// resilience::Manager: the runtime behind a declarative Policy.
//
// One Manager lives in every ExecContext next to the FaultInjector; the
// injector consults it for per-site retry budgets, deadlines and circuit
// breakers, the pipeline/solver/mpisim layers consult its degradation
// ladders and elastic world-shrink switch.  Disarmed (empty policy),
// every consult returns the pass-through answer without touching the
// clock, the tracer or any counter — policy-free runs stay bit-for-bit
// identical to the seed behaviour.
//
// Determinism: breaker transitions are driven by the injected failure
// pattern (itself counter-based RNG) and the virtual clock; the optional
// open-window jitter draws from the same splitmix64 family keyed on
// (fault seed, site, trip count).  Nothing here reads wall time — the
// same seed run twice makes the same decisions, including shrinks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/sim_device.hpp"
#include "obs/trace.hpp"
#include "resilience/policy.hpp"

namespace toast::resilience {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class Manager {
 public:
  /// Disarmed manager: every consult is a pass-through no-op.
  Manager() = default;
  /// `seed` keys the breaker jitter draws (pass the fault plan's seed so
  /// one number pins the whole chaos schedule).
  Manager(Policy policy, accel::VirtualClock* clock, obs::Tracer* tracer,
          std::uint64_t seed);

  bool armed() const { return armed_; }
  const Policy& policy() const { return policy_; }

  // --- per-site consults (fault injector) ---------------------------------

  /// First site policy matching `site` (substring, empty matches all),
  /// or nullptr.  Always nullptr when disarmed.
  const SitePolicy* site_for(const std::string& site) const;
  /// The effective retry policy for `site`: the site override when one
  /// is declared, `fallback` (the fault plan's global policy) otherwise.
  RetrySpec retry_for(const std::string& site,
                      const RetrySpec& fallback) const;
  /// Retry-penalty deadline for `site` (0 = none).
  double deadline_for(const std::string& site) const;

  /// Breaker gate before an attempt sequence.  False = the breaker is
  /// open: fail fast without attempting (counted as a fast fail).  An
  /// open breaker whose cool-down has elapsed transitions to half-open
  /// here and admits the probe.
  bool admit(const std::string& site);
  /// Record one failed attempt at `site` (may trip the breaker open).
  void on_failure(const std::string& site);
  /// Record a clean attempt at `site` (may close a half-open breaker).
  void on_success(const std::string& site);
  /// An op exceeded its deadline after accumulating `spent` seconds of
  /// retry penalty.
  void note_deadline_exceeded(const std::string& site, double spent);

  /// Breaker state for a concrete site (kClosed when no breaker is
  /// declared); exposed for tests and tooling.
  BreakerState breaker_state(const std::string& site) const;

  // --- degradation ladders -------------------------------------------------

  /// Current escalation level of `domain` (0 = no degradation, and
  /// always 0 for a domain with no ladder or a disarmed manager).
  int level(Domain domain) const;
  /// Report one fault against `domain`; every `escalate_after` reports
  /// raise the level one rung up to `max_level`.
  void report_fault(Domain domain, const std::string& why);

  // --- elastic world shrink ------------------------------------------------

  bool elastic_enabled() const { return armed_ && policy_.elastic.enabled; }
  int min_ranks() const { return policy_.elastic.min_ranks; }
  /// True when an exhausted replay budget may drop a rank from a world
  /// of `world` ranks (elastic enabled and above the floor).
  bool allow_shrink(int world) const {
    return elastic_enabled() && world > policy_.elastic.min_ranks;
  }
  bool requeue_enabled() const {
    return elastic_enabled() && policy_.elastic.requeue;
  }
  /// Record one world shrink (`from` -> `to` ranks) at `site`, charging
  /// the topology-rebuild cost to the virtual clock.
  void note_world_shrink(const std::string& site, int from, int to);
  /// Record the deterministic redistribution of a dead rank's work:
  /// `seconds` of extra observation work charged to this rank.
  void note_redistribute(const std::string& site, double seconds,
                         int observations);
  /// Record a real async task requeue of `count` in-flight tasks.
  void note_requeue(const std::string& site, int count);

  // --- counters ------------------------------------------------------------

  /// Flat counters ("resilience_breaker_opens", ...); empty when nothing
  /// fired.  Merged into JobResult::fault_counters next to the fault
  /// layer's own.
  const std::map<std::string, double>& counters() const { return counters_; }

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int half_open_successes = 0;
    double open_until = 0.0;
    int trips = 0;
  };

  /// Index of the first matching site policy, or -1.
  int site_index(const std::string& site) const;
  Breaker* breaker_for(const std::string& site, int* entry = nullptr);
  void open_breaker(Breaker& b, const std::string& site);
  void note(const std::string& name, const std::string& site,
            double seconds, const std::string& counter_key,
            double counter_value = 1.0);
  void add_count(const std::string& key, double v = 1.0) {
    counters_[key] += v;
  }

  Policy policy_;
  accel::VirtualClock* clock_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t seed_ = 0;
  bool armed_ = false;
  /// Per site-policy entry, per concrete site name.
  std::vector<std::map<std::string, Breaker>> breakers_;
  std::map<Domain, int> ladder_faults_;
  std::map<Domain, int> ladder_levels_;
  std::map<std::string, double> counters_;
};

}  // namespace toast::resilience
