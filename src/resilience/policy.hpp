#pragma once

// Declarative resilience policy (docs/ROBUSTNESS.md).
//
// PR 3 gave the stack deterministic fault *injection*; recovery, however,
// was a scatter of hard-coded knobs: one global retry budget in the fault
// plan, fixed in-place rank replay in mpisim, a trace-only task-requeue
// note in the destriper's collective pipeline.  A resilience Policy
// replaces those knobs with per-site declarations the subsystems consult
// through one API:
//
//   - per-site retry budgets with backoff (overriding the fault plan's
//     single global RetrySpec for matching hook sites),
//   - virtual-clock deadlines: a cap on the total retry penalty one op
//     may accumulate before it is declared persistently failed,
//   - deterministic circuit breakers (closed -> open -> half-open ->
//     closed, driven by the injected failure pattern and the virtual
//     clock, optionally jittered from the fault RNG so repeats stay
//     bitwise),
//   - graceful-degradation ladders: a closed set of escalation domains
//     ("solver_comm" overlap->staged, "collectives" engine->model)
//     that step up one rung per `escalate_after` reported faults,
//   - the elastic world-shrink switch: when a rank-failure replay budget
//     is exhausted, drop the rank, rebuild the comm topology over the
//     survivors and redistribute its work instead of retrying forever.
//
// An empty policy disarms the Manager entirely: every consult is a no-op
// and execution is bit-for-bit identical to the policy-free build — the
// same guarantee the fault layer itself makes for an empty plan.
//
// JSON schema "toastcase-resilience-policy-v1" (parse/load_file):
//
// {
//   "schema": "toastcase-resilience-policy-v1",
//   "sites": [
//     {"site": "xla/", "deadline_seconds": 0.01,
//      "retry": {"max_attempts": 5, "backoff_seconds": 1e-4,
//                "backoff_multiplier": 2.0, "failed_fraction": 0.5},
//      "breaker": {"open_after": 3, "open_seconds": 0.05,
//                  "close_after": 2, "jitter": 0.0}}
//   ],
//   "ladders": [{"domain": "solver_comm", "escalate_after": 2,
//                "max_level": 1}],
//   "elastic": {"enabled": true, "min_ranks": 2,
//               "rebuild_seconds": 1e-3, "requeue": true}
// }
//
// Parsing is strict: unknown keys anywhere in the document are rejected
// (typos must not silently become defaults), and so is a ladder
// max_level past its domain's last rung (kLastRung).

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace toast::resilience {

/// Bounded retry with exponential backoff: the fault plan's global
/// budget and its per-site overrides.  A failed attempt wastes
/// `failed_fraction` of the op's cost plus the current backoff, all
/// charged to the virtual clock.
struct RetrySpec {
  int max_attempts = 3;
  double backoff_seconds = 1e-4;
  double backoff_multiplier = 2.0;
  double failed_fraction = 0.5;
};

/// The optional "retry" block of a fault plan or site policy; absent
/// keys keep RetrySpec's defaults.
RetrySpec read_retry(const obs::json::Reader& parent);

/// Deterministic circuit breaker.  `open_after` consecutive failures at
/// one concrete site trip the breaker (subsequent ops fail fast, no
/// retry work); after `open_seconds` of virtual time it half-opens and
/// admits probes again; `close_after` consecutive half-open successes
/// close it.  `jitter` widens the open window by up to that fraction,
/// drawn from the fault RNG keyed on (seed, site, trip count) — still
/// bitwise across repeats.
struct BreakerSpec {
  int open_after = 0;  ///< 0 disables the breaker
  double open_seconds = 1e-3;
  int close_after = 1;
  double jitter = 0.0;
};

/// One per-site policy.  `site` is a substring matched against hook site
/// names (same convention as FaultRule::site; empty matches all sites);
/// the first matching entry wins.
struct SitePolicy {
  std::string site;
  bool has_retry = false;  ///< true when `retry` overrides the plan's
  RetrySpec retry;
  /// Cap on the total retry penalty (virtual seconds) one op may
  /// accumulate before it is declared persistent.  0 = no deadline.
  double deadline_seconds = 0.0;
  BreakerSpec breaker;
};

/// The escalation domains the code consults.  Subsystems map levels to
/// rungs themselves: the destriper steps "solver_comm" from overlap to
/// staged, mpisim falls back from the comm engine to the closed-form
/// model once "collectives" escalates.
enum class Domain {
  kSolverComm,
  kCollectives,
};

/// The last rung of every domain's ladder: each has two rungs, so a
/// higher level would change nothing yet still count as a degrade.
inline constexpr int kLastRung = 1;

const char* to_string(Domain d);

/// One graceful-degradation ladder.  Every `escalate_after` faults
/// reported for `domain` the level rises one rung, up to `max_level`
/// (at most kLastRung in a parsed policy).
struct LadderSpec {
  Domain domain = Domain::kSolverComm;
  int escalate_after = 1;
  int max_level = 1;
};

/// Elastic world-shrink behaviour for exhausted rank-failure budgets.
struct ElasticSpec {
  bool enabled = false;
  /// Never shrink the world below this many ranks.
  int min_ranks = 1;
  /// Virtual-clock cost of rebuilding the comm topology over the
  /// survivors (charged once per shrink).
  double rebuild_seconds = 1e-3;
  /// Perform a real async task requeue on rollback (cancel in-flight
  /// placements as a graph edit) instead of draining them.
  bool requeue = true;
};

struct Policy {
  std::vector<SitePolicy> sites;
  std::vector<LadderSpec> ladders;
  ElasticSpec elastic;

  /// True when no consult can ever change behaviour (the Manager stays
  /// disarmed and the run is bit-for-bit the policy-free timeline).
  bool empty() const {
    return sites.empty() && ladders.empty() && !elastic.enabled;
  }

  /// Parse a "toastcase-resilience-policy-v1" document; throws
  /// std::runtime_error on malformed input or unknown keys.
  static Policy parse(const std::string& text);
  static Policy load_file(const std::string& path);
  /// Parse an already-decoded JSON value (e.g. a policy nested inside a
  /// larger document); `where` prefixes every error message.
  static Policy from_value(const obs::json::Value& doc,
                           const std::string& where);
};

}  // namespace toast::resilience
