#pragma once

// Deterministic async task engine (docs/MODEL.md §11): incremental
// dataflow for ad-hoc work (the destriper's pipelined CG).
//
// In Mode::kSerial a submit charges the clock immediately — bit-for-bit
// what the blocking code did.  In Mode::kOverlap a submit places the task
// on its lane at max(now, lane ready, dep futures ready) and only await()
// advances the clock, charging the remaining slack as an explicit "wait"
// span — latency the caller failed to hide.  Pipelines overlap through
// their step log instead (async/overlap.hpp).
//
// Determinism: placement is a pure fold over submission order (the
// fixed tie-break is task id, i.e. submission order); costs are pure
// functions of the start time; no wall clock, no randomness.  Replays
// are bitwise.

#include <functional>
#include <string>
#include <vector>

#include "accel/sim_device.hpp"
#include "async/future.hpp"
#include "obs/trace.hpp"

namespace toast::async {

enum class Mode {
  kSerial,   ///< bitwise oracle: submit == charge immediately
  kOverlap,  ///< dataflow: submit places, await charges slack
};

struct Options {
  Mode mode = Mode::kSerial;
};

/// First Tracer stream id of the async lanes (clear of the sched stream
/// ids, which start at 0).
inline constexpr int kLaneStreamBase = 32;

/// Cost of a task as a pure function of its start time (virtual
/// seconds).  Purity is what makes overlap placement replayable.
using CostFn = std::function<double(double start)>;

class Engine {
 public:
  Engine(accel::VirtualClock& clock, obs::Tracer* tracer,
         Options opt = {});

  Mode mode() const { return opt_.mode; }

  /// Find-or-create a named lane; names the tracer stream on creation.
  int lane(const std::string& name);

  /// Submit one task.  Serial: charge now (bitwise equal to the
  /// blocking call).  Overlap: place at max(now, lane ready, deps
  /// ready) without advancing the clock.
  Future submit(int lane, const std::string& name,
                const std::string& category, const CostFn& cost,
                const std::vector<Future>& deps = {});

  /// Block on a future: advance the clock to its ready time, charging
  /// the slack as a logged "wait" span named `label`.  No-op (returns
  /// 0) when the future already resolved.
  double await(const Future& f, const std::string& label);

  /// Block on every lane (checkpoint barriers, end of solve).
  double drain(const std::string& label);

  /// Cancel every in-flight placement: a real graph edit, not a wait.
  /// Lane ready times roll back to now and submitted ends after now are
  /// marked done, so no slack is ever charged for the cancelled work —
  /// the tasks will be re-submitted by the recovery path (requeue).
  /// Callers must invalidate any Futures they still hold for them.
  /// Returns the number of cancelled tasks (always 0 in serial mode,
  /// where nothing is ever in flight).
  int cancel_pending(const std::string& label);

  /// Submitted tasks whose completion lies after the current clock.
  int pending_count() const;

 private:
  accel::VirtualClock& clock_;
  obs::Tracer* tracer_;
  Options opt_;
  std::vector<std::string> lane_names_;
  std::vector<double> lane_ready_;
  std::vector<double> submitted_ends_;
};

}  // namespace toast::async
