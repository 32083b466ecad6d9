#pragma once

// Pipeline overlap through the step log (docs/MODEL.md §11).
//
// core::execute_plan is the one plan driver.  Given a core::StepLog it
// records every step it executes: kind, lane, serial start, duration and
// the data dependencies derived from the plan's resource uses, with a
// barrier around every patch range.  Overlap is "execute once with a
// log, then place it": each record goes onto a sched::LaneSchedule at
// max(lane ready, deps' placed ends), a barrier is a zero-second op on
// every lane, and the clock moves by placed - serial.  Products, TimeLog
// and every fault decision stay those of staged replay; only the
// runtime lands on the placed makespan.

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "obs/trace.hpp"

namespace toast::async {

struct LaneStat {
  std::string name;
  int tasks = 0;
  double busy_s = 0.0;
};

struct GraphReport {
  int n_tasks = 0;   ///< steps executed (including patch steps)
  int n_groups = 0;
  int patched = 0;   ///< groups re-routed to their patch
  std::array<int, core::kNumStepKinds> by_kind{};
  double total_busy_s = 0.0;      ///< sum of executed step durations
  double makespan_s = 0.0;        ///< serial clock delta, or placed
  double critical_path_s = 0.0;   ///< longest data-dep chain
  /// 1 - critical/busy: the fraction of busy time the dependency
  /// structure allows off the critical path (0 = fully serial).
  double overlap_fraction = 0.0;
  std::vector<LaneStat> lanes;

  /// Fold another observation's report into this one (serial
  /// composition: busy/makespan/critical path add, counts add).
  void merge(const GraphReport& other);
};

/// Counts, critical path over the data deps and lane busy time of a
/// log.  Patch steps carry no deps; they add to the critical path as a
/// serial block.  makespan_s is the serial clock delta.
GraphReport report(const core::StepLog& log);

/// Place a log on a sched::LaneSchedule whose epoch is log.begin.
/// Records take their placed starts.  With a tracer, every record that
/// took time becomes a structural "task" span on its lane's stream
/// (trace only, never in the TimeLog).  Returns the placed makespan in
/// seconds past log.begin.
double place(core::StepLog& log, obs::Tracer* tracer);

/// Overlap one observation: run the pipeline's plan with a step log,
/// place the log and move the clock by placed - serial.  The report
/// carries the placed makespan.
GraphReport run_overlap(core::Pipeline& pipeline, core::Observation& ob,
                        core::ExecContext& ctx);

/// Dump "toastcase-tasks-v1" JSON: the report plus every executed step
/// with kind/lane/start/seconds/deps, main steps first, then patch
/// steps (toast-trace tasks reads this).
void write_tasks_json(std::ostream& out, const core::StepLog& log,
                      const GraphReport& report);

}  // namespace toast::async
