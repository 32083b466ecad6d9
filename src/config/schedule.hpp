#pragma once

// The unified schedule-space configuration (docs/MODEL.md §12).
//
// Every scheduling knob the stack grew — backend slot, staging strategy,
// prefetch/evict plan options, stream count, comm algorithm + chunk size,
// ranks×threads shape, MPS/preallocate device flags — used to live in a
// different layer's struct (mpisim::JobConfig, comm::Algorithm, sched
// stream counts).  ScheduleConfig is the one typed, serializable artifact
// those layers now consume: mpisim builds its job from it, the pipeline
// keys its plan cache off its hash, the exec context applies its stream
// count to both backend runtimes, and the comm engine takes its algorithm
// and chunk bound.  The autotuner (src/tune/) searches this space and
// emits winners as reusable "toastcase-schedule-v1" JSON.  The
// destriper's collective mode (SolverComm) is not an axis: no job reads
// it, so it lives on solver::DestriperConfig alone.
//
// JSON schema "toastcase-schedule-v1" (parse/load_file; every key is
// optional and defaults to the value a default-constructed config holds,
// which is bit-for-bit the pre-refactor behaviour):
//
// {
//   "schema": "toastcase-schedule-v1",
//   "backend": "cpu",                       // manifest slot name
//   "staging": {"mode": "pipelined", "prefetch": false, "evict": false},
//   "streams": 1,
//   "comm": {"mode": "model", "algorithm": "ring", "chunk_bytes": 0},
//   "shape": {"nodes": 0, "procs_per_node": 0},   // 0 = workload default
//   "device": {"mps": true, "jax_preallocate": false}
// }
//
// Parsing is strict, through the obs::json::Reader every schema uses:
// unknown keys anywhere in the document, wrong types and out-of-range
// values are rejected (a typo must not silently become a default).

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/types.hpp"
#include "obs/json.hpp"

namespace toast::config {

/// Device-staging strategy of the pipeline (paper §3.2.2).
enum class Staging {
  kPipelined,  ///< keep data resident across operator sequences (default)
  kNaive,      ///< transfer in/out around every accelerated operator
};

/// How job-level collectives are costed.
enum class CommMode {
  kModel,   ///< closed-form CommModel (the seed behaviour)
  kEngine,  ///< step-scheduled comm::Engine on the cluster topology
};

/// Collective decomposition algorithm.
enum class CommAlgorithm {
  kRing,       ///< ring allreduce (reduce-scatter ring + all-gather ring)
  kRecursive,  ///< recursive halving/doubling (power-of-two ranks)
  kTree,       ///< binomial tree (reduce to root + broadcast)
};

/// Destriper collective scheduling mode (docs/MODEL.md §11).
enum class SolverComm {
  kStaged,   ///< blocking charge at the call site
  kOverlap,  ///< depth-1 pipelined CG collectives
};

const char* to_string(Staging s);
const char* to_string(CommMode m);
const char* to_string(CommAlgorithm a);
const char* to_string(SolverComm c);

/// Pipeline staging axis: strategy plus the two plan options.
struct StagingConfig {
  Staging mode = Staging::kPipelined;
  /// Overlap the next operator's uploads with compute (plan prefetch).
  bool prefetch = false;
  /// Emit liveness-driven evictions of dead device intermediates.
  bool evict = false;

  bool operator==(const StagingConfig&) const = default;
};

/// Collective-communication axis.
struct CommConfig {
  CommMode mode = CommMode::kModel;
  CommAlgorithm algorithm = CommAlgorithm::kRing;
  /// Upper bound on the wire bytes of one engine step; larger steps are
  /// split into sequential sub-steps.  0 = the algorithm's natural chunk
  /// size (bit-for-bit the pre-knob schedule).
  double chunk_bytes = 0.0;

  bool operator==(const CommConfig&) const = default;
};

/// Ranks×threads shape override.  0 keeps the workload's own value; a
/// positive procs_per_node re-partitions the node (threads-per-proc
/// follows from the fixed core count).
struct ShapeConfig {
  int nodes = 0;
  int procs_per_node = 0;

  bool operator==(const ShapeConfig&) const = default;
};

/// Device-sharing axis.
struct DeviceConfig {
  /// NVIDIA MPS (required for oversubscription, paper §3.1.2).
  bool mps = true;
  /// JAX device-memory pool preallocation (paper §3.1.3).
  bool jax_preallocate = false;

  bool operator==(const DeviceConfig&) const = default;
};

struct ScheduleConfig {
  /// Backend manifest slot name ("cpu", "omp-target", "jax", "jax-cpu").
  std::string backend = "cpu";
  StagingConfig staging;
  /// Device stream count both backend runtimes schedule on.
  int streams = 1;
  CommConfig comm;
  ShapeConfig shape;
  DeviceConfig device;

  bool operator==(const ScheduleConfig&) const = default;

  /// Resolved core enum of the backend slot; throws std::runtime_error
  /// when the slot name is not in the manifest.
  core::Backend backend_id() const;
  /// Set the slot from the core enum (manifest display name).
  void set_backend(core::Backend b);

  /// Canonical serialization (stable key order, %.17g numbers): equal
  /// configs serialize identically, so the hash and the plan-cache keys
  /// derived from it are stable across runs and platforms.
  std::string json() const;
  void write_json(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// FNV-1a over the canonical serialization.
  std::uint64_t hash() const;
  /// hash() as fixed-width hex (plan-cache key prefix, bench artifacts).
  std::string hash_hex() const;

  /// Parse a "toastcase-schedule-v1" document; throws std::runtime_error
  /// on malformed input or unknown keys at any nesting level.
  static ScheduleConfig parse(const std::string& text);
  static ScheduleConfig load_file(const std::string& path);
  /// Parse an already-decoded JSON value (e.g. a schedule nested inside
  /// a larger document); `where` prefixes every error message.
  static ScheduleConfig from_value(const obs::json::Value& doc,
                                   const std::string& where);
};

}  // namespace toast::config
