#pragma once

// Multi-tenant job-service vocabulary (docs/MODEL.md §13).
//
// A ServiceSpec describes one serving scenario: the shared fleet, the
// tenants (fair-share weight, quota, default priority, per-tenant chaos
// plan and resilience policy) and the jobs they submit (workload class,
// backend or explicit per-job schedule, arrival time, graph mode).
//
// JSON schema "toastcase-serve-v1" (parse/load_file/from_value; strict:
// unknown keys reject at EVERY nesting level, matching the fault,
// resilience and schedule parsers — a typo must not silently become a
// default):
//
// {
//   "schema": "toastcase-serve-v1",
//   "policy": "fair_share" | "priority",
//   "schedule_library": "bench/schedules/index.json",   // optional
//   "fleet": {"nodes": 4, "gpus_per_node": 4},
//   "tenants": [
//     {"name": "cmb-a", "share": 2.0, "max_running": 2, "priority": 1,
//      "faults": { ...toastcase-fault-plan-v1... },
//      "resilience": { ...toastcase-resilience-policy-v1... }}
//   ],
//   "jobs": [
//     {"name": "j0", "tenant": "cmb-a", "workload": "tiny",
//      "backend": "omp-target", "submit_s": 0.0, "priority": 3,
//      "seed": 2023, "map_iterations": 2, "tuned": false,
//      "pipeline": "staged" | "overlap",
//      "schedule": { ...toastcase-schedule-v1... }}
//   ]
// }
//
// `backend` and `schedule` are mutually exclusive (an explicit schedule
// already carries its backend slot).  `tuned` consults the persisted
// schedule library (tune::ScheduleLibrary) for a per-(workload,
// topology, backend) artifact; a miss falls back to the default
// schedule and is counted, never an error.

#include <cstdint>
#include <string>
#include <vector>

#include "accel/specs.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"
#include "obs/json.hpp"
#include "resilience/policy.hpp"

namespace toast::serve {

/// Queue ordering policy of the admission controller.
enum class SchedPolicy {
  kFairShare,  ///< lowest used-node-seconds / share first (weighted)
  kPriority,   ///< strict priority, FIFO within a priority level
};

const char* to_string(SchedPolicy p);

struct TenantSpec {
  std::string name;
  /// Fair-share weight (> 0): a tenant with twice the share is entitled
  /// to twice the node-seconds before it yields the queue head.
  double share = 1.0;
  /// Per-tenant quota on concurrently running jobs; 0 = unlimited.
  int max_running = 0;
  /// Default strict-priority level for this tenant's jobs.
  int priority = 0;
  /// Per-tenant chaos plan, applied to every job of this tenant and to
  /// no job of any other tenant (the isolation contract).
  fault::FaultPlan faults;
  /// Per-tenant resilience policy (elastic shrink only shrinks this
  /// tenant's ranks — each job runs in its own world).
  resilience::Policy resilience;
};

struct JobSpec {
  std::string name;
  std::string tenant;
  /// Workload class: "tiny" / "medium" / "large" (bench_model problems).
  std::string workload = "tiny";
  /// Backend slot override for jobs without an explicit schedule; ""
  /// keeps the default (or the library artifact's backend on a hit).
  std::string backend;
  /// Strict-priority level; unset inherits the tenant's.
  int priority = 0;
  bool has_priority = false;
  /// Open-loop arrival time on the service clock (virtual seconds).
  double submit_s = 0.0;
  std::uint64_t seed = 2023;
  /// 0 keeps the workload's calibrated default.
  int map_iterations = 0;
  /// Consult the schedule library for a tuned schedule.
  bool tuned = false;
  /// Explicit per-job schedule (wins over `tuned` and `backend`).
  config::ScheduleConfig schedule;
  bool has_schedule = false;
  /// Pipeline timing: staged replay, or overlap of its step log.
  mpisim::PipelineRun pipeline = mpisim::PipelineRun::kStaged;
};

struct FleetSpec {
  int nodes = 4;
  int gpus_per_node = 4;
  accel::DeviceSpec device = accel::a100_spec();
  accel::HostSpec host = accel::milan_spec();
  accel::NetworkSpec network = accel::slingshot_spec();
};

struct ServiceSpec {
  SchedPolicy policy = SchedPolicy::kFairShare;
  FleetSpec fleet;
  std::vector<TenantSpec> tenants;
  std::vector<JobSpec> jobs;
  /// Optional "toastcase-schedule-library-v1" index path for `tuned`.
  std::string schedule_library;

  /// Index of a tenant by name, or -1.
  int tenant_index(const std::string& name) const;

  /// Parse a "toastcase-serve-v1" document; throws std::runtime_error
  /// on malformed input or unknown keys at any nesting level.
  static ServiceSpec parse(const std::string& text);
  static ServiceSpec load_file(const std::string& path);
  static ServiceSpec from_value(const obs::json::Value& doc,
                                const std::string& where);
};

/// The bench_model problem for a workload class name; throws
/// std::runtime_error for anything but "tiny" / "medium" / "large".
bench_model::ProblemSize workload_problem(const std::string& name);

}  // namespace toast::serve
