#pragma once

// Pipeline compilation (ROADMAP: plan/execute architecture).
//
// The hybrid pipeline of paper §3.2.2 places data movement from each
// operator's requires/provides declarations.  This layer lifts that
// placement out of the exec loop: from the operator list, the backend
// dispatch and the observation field layout it builds the operator×field
// dataflow graph once and emits a linear ExecutionPlan of typed steps
// (EnsureFields, MapField, Upload, Launch, Download, Evict, ...) with
// per-field liveness — uploads only before first device use, downloads
// only for live-out or host-consumed fields, Evict at a dead device
// intermediate's last use.  Plans are cached per (pipeline signature,
// backend map, staging mode, observation layout), like the xla JIT
// cache.
//
// Runtime guards (field present, copy stale) make a cached plan safe
// for any observation with the same layout, and a kernel degraded under
// a deterministic fault plan runs its group's host-fallback patch.  The
// staging axis of the schedule (config::StagingConfig) selects naive or
// pipelined placement; its prefetch and evict bits add transfer/compute
// overlap (via the sched copy engine) and a lower peak device footprint.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "backend/manifest.hpp"
#include "config/schedule.hpp"
#include "core/accel_store.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"
#include "core/operator.hpp"
#include "core/types.hpp"

namespace toast::core {

/// Per-operator host-side framework overhead (the Python layer driving
/// the kernels), charged as serial time before every operator.
inline constexpr double kPipelineOverheadSeconds = 5.0e-5;

/// Immutable per-operator metadata, queried once at pipeline construction
/// instead of re-querying requires/provides/name per operator per
/// observation ("requires" is a C++20 keyword, hence reads/writes).
struct OpMeta {
  std::shared_ptr<Operator> op;
  std::string name;
  bool supports_accel = false;
  std::vector<std::string> reads;   ///< requires_fields(), vector order
  std::vector<std::string> writes;  ///< provides_fields(), vector order
  std::vector<std::string> touched;  ///< sorted unique reads ∪ writes
};

std::vector<OpMeta> build_op_metadata(
    const std::vector<std::shared_ptr<Operator>>& operators);

enum class StepKind : std::uint8_t {
  kChargeOverhead,  ///< per-operator serial framework overhead
  kEnsureFields,    ///< op->ensure_fields(ob)
  kMapField,        ///< allocate the device shadow if not mapped
  kUpload,          ///< H2D if the device copy is stale (async: prefetch)
  kLaunch,          ///< operator execution (device or host)
  kDownload,        ///< D2H if the host copy is stale
  kEvict,           ///< drop the device mapping
  kSyncTransfers,   ///< drain the prefetch copy engine
};

inline constexpr int kNumStepKinds =
    static_cast<int>(StepKind::kSyncTransfers) + 1;

const char* to_string(StepKind k);

struct PlanStep {
  StepKind kind = StepKind::kLaunch;
  int op = -1;     ///< operator index (kEnsureFields/kLaunch/kCharge...)
  int field = -1;  ///< index into ExecutionPlan::field_names
  bool on_device = false;          ///< kLaunch: device implementation
  bool async = false;              ///< kUpload: placed on the copy engine
  bool swallow_persistent = false;  ///< kDownload: swallow persistent faults
  bool liveness = false;  ///< kEvict: placed by liveness (not naive cleanup)
};

/// One operator's slice of the plan.  Step ranges (indices into steps):
///   [begin, try_begin)      pre: overhead charge + ensure_fields
///   [try_begin, post_begin) accel body, wrapped in the recovery try
///   [post_begin, post_end)  naive-staging cleanup (skipped after a fault)
///   [post_end, end)         liveness evictions (always run)
/// [alt_begin, alt_end) indexes alt_steps: the host-fallback patch that
/// replaces the accel body when the operator is (or becomes) degraded or
/// host-dispatched.  Host-planned groups have an empty accel body and run
/// the patch unconditionally.
struct PlanGroup {
  int op = -1;  ///< -1: epilogue (end-of-pipeline output downloads)
  Backend backend = Backend::kCpu;  ///< dispatch result at plan time
  /// Manifest slot of `backend` (backend::index_of); backend::npos for
  /// the epilogue group.  Gives the dump and any consumer the tag name
  /// without re-deriving the enum mapping.
  std::size_t tag = backend::npos;
  bool on_accel = false;            ///< staged for the device at plan time
  int begin = 0;
  int try_begin = 0;
  int post_begin = 0;
  int post_end = 0;
  int end = 0;
  int alt_begin = 0;
  int alt_end = 0;
};

/// A kLaunch body bound at plan time: invokes one operator's exec with
/// whatever store/backend the executing group resolved at runtime.
using LaunchFn =
    std::function<void(Observation&, ExecContext&, AccelStore*, Backend)>;

struct ExecutionPlan {
  std::string key;
  /// The staging axis the plan was built for (dumped as "options").
  config::StagingConfig options;
  std::vector<std::string> field_names;
  std::vector<PlanStep> steps;
  std::vector<PlanStep> alt_steps;
  std::vector<PlanGroup> groups;
  /// Plan-time-bound launch callables, one per operator.  execute_plan
  /// threads kLaunch steps through these instead of re-resolving the
  /// operator object per step, so the plan carries everything a launch
  /// needs except the runtime dispatch decision.
  std::vector<LaunchFn> launches;
  /// Names/backends baked at plan time, for the dump (index = op).
  std::vector<std::string> op_names;
  std::vector<Backend> op_backends;
  std::vector<char> op_on_accel;

  // Static dataflow statistics (modelled per observation, assuming every
  // declared field exists): what the naive strategy would transfer vs
  // what this plan schedules, and how many liveness evictions it placed.
  int naive_transfers = 0;
  int planned_transfers = 0;
  int transfers_avoided = 0;
  int planned_evictions = 0;
  int prefetch_uploads = 0;

  /// Dump as "toastcase-plan-v1" JSON (toast-trace plan reads this).
  void write_json(std::ostream& out) const;
};

/// Cumulative plan/execute statistics of one Pipeline.
struct PlanStats {
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  /// Groups whose baked accel decision was patched to the host fallback
  /// (mid-run degradation) — the plan-level view of fault recovery.
  double replans = 0.0;
  /// Static transfers avoided vs the naive strategy, accumulated per
  /// executed observation.
  double transfers_avoided = 0.0;
  /// Liveness evictions actually performed.
  double evictions = 0.0;
  /// Uploads that ran on the copy engine (prefetch mode).
  double prefetched_uploads = 0.0;
  /// High-water device shadow footprint across executed observations.
  double peak_mapped_bytes = 0.0;
};

/// Compile the operator list into a plan.  `backends`/`on_accel` are the
/// dispatch decisions at plan time (one entry per operator).
ExecutionPlan build_plan(const std::vector<OpMeta>& meta,
                         const config::StagingConfig& options,
                         const std::vector<std::string>& outputs,
                         const std::vector<Backend>& backends,
                         const std::vector<char>& on_accel, std::string key);

/// Placement lanes of a step log (docs/MODEL.md §11): the serial host
/// driver, the device compute engine and the copy engine.  No plan step
/// uses the comm lane; reports list it so every log has the same lanes.
enum StepLane : int { kLaneHost, kLaneCompute, kLaneCopy, kLaneComm };
inline constexpr int kNumStepLanes = 4;
inline constexpr const char* kStepLaneNames[kNumStepLanes] = {
    "host", "compute", "copy", "comm"};

/// One entry of a step log: an executed step, or a barrier.  Barriers
/// bracket every patch range that ran: recovery serializes against
/// everything in flight, so placement starts nothing after a barrier
/// before everything ahead of it has ended.
struct StepRecord {
  StepKind kind = StepKind::kLaunch;
  bool barrier = false;
  bool alt = false;  ///< `id` indexes alt_steps (patch: host lane, no deps)
  int id = -1;       ///< index into steps (or alt_steps)
  int lane = kLaneHost;
  std::string name;  ///< field, operator, or "pipeline"
  double start = 0.0;    ///< serial start; placement overwrites it
  double seconds = 0.0;  ///< clock time the step charged
  /// Data dependencies (RAW/WAW/WAR): sorted ids of earlier steps,
  /// derived over the whole plan, so they may name steps that never ran.
  std::vector<int> deps;
};

/// What one execute_plan run did, in execution order.
struct StepLog {
  double begin = 0.0;  ///< clock when the group walk started
  double end = 0.0;    ///< clock when it ended (before the final drain)
  int n_groups = 0;
  int patched = 0;  ///< groups re-routed to their patch
  std::vector<StepRecord> records;
};

/// One declared use of a named resource by a step.
struct ResourceUse {
  std::string name;
  bool write = false;
};

/// Data dependencies of a sequence of uses, one entry per step: reads
/// depend on the last writer (RAW), writes on the last writer (WAW) and
/// on every reader since it (WAR).  Lists are sorted and deduplicated.
std::vector<std::vector<int>> derive_deps(
    const std::vector<std::vector<ResourceUse>>& uses);

/// Execute a plan on one observation: the one plan driver.  Each group
/// runs decide -> accel body under the recovery filter -> (patch on a
/// host dispatch or a recoverable fault) -> tail.  A kernel degraded
/// since plan build runs the group's host-fallback patch (counted as a
/// replan) instead of the accel body.  With a `log`, every executed step
/// is also recorded with its lane, serial start, duration and data deps;
/// without one, staged replay pays nothing for it.
void execute_plan(const ExecutionPlan& plan, const std::vector<OpMeta>& meta,
                  Observation& ob, ExecContext& ctx,
                  const std::optional<Backend>& backend_override,
                  PlanStats& stats, StepLog* log = nullptr);

}  // namespace toast::core
