#pragma once

// Compilation (pass pipeline + fusion grouping) and execution of HLO
// modules.  Execution computes real values on the host and, per fusion
// group, a WorkEstimate describing what an XLA GPU executable would have
// done: one launch per group, memory traffic only across group boundaries,
// flops for every element actually computed (including padding and both
// sides of every select - predication is how XLA handles branches).
//
// Scatter lowering is decided from the data, as XLA:GPU does: sorted
// (segment) scatters become a conflict-free segmented reduction; unsorted
// scatters pay atomics with the measured conflict rate.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "accel/work.hpp"
#include "xla/hlo.hpp"
#include "xla/passes.hpp"

namespace toast::xla {

/// How a Compiled module computes its values.  Both modes produce
/// bitwise-identical products and ExecutionReports; only the real
/// wall-clock cost of the value computation differs.
enum class ExecMode {
  kInterpreted,  ///< per-op evaluation, one Literal per instruction
  kCompiled,     ///< fused-loop executable (xla/compiled.hpp)
};

class FusedExecutable;

namespace detail {
/// The shape-only part of a module's ExecutionReport: group work (flops,
/// operand/output byte traffic, launches, parallelism, register
/// pressure), group_heavy, group_deps and peak_temp_bytes.  Defined in
/// executor.cpp.
struct ShapeReport;
}  // namespace detail

struct Compiled {
  HloModule module;
  std::vector<int> group_of;  // fusion group per instruction, -1 = memory
  int n_groups = 0;
  PassStats pass_stats;
  /// Modelled XLA compile time (charged once per cache entry).
  double compile_seconds = 0.0;
  /// Lazily-built fused-loop executable (execute_compiled's cache; the
  /// lowering runs once per Compiled, on first compiled execution).
  mutable std::shared_ptr<const FusedExecutable> fused;
  /// Lazily-built shape-only part of the ExecutionReport (build_report's
  /// cache; computed once per Compiled, on the first reported call).
  mutable std::shared_ptr<const detail::ShapeReport> shape_report;
};

Compiled compile(HloModule module);

struct ExecutionReport {
  std::vector<accel::WorkEstimate> group_work;
  /// Whether each group contains a heavy op (reduce/dot/gather/scatter);
  /// XLA's CPU backend parallelizes only these (paper §4.2).
  std::vector<bool> group_heavy;
  /// Data-dependency edges of the fusion-group DAG: group g reads values
  /// produced by every group in group_deps[g] (sorted, deduplicated).
  /// Groups with disjoint dep chains are independent and the runtime may
  /// dispatch them onto different streams.
  std::vector<std::vector<int>> group_deps;
  accel::WorkEstimate total;
  bool segment_lowering_used = false;
  /// Bytes of intermediate buffers held at the peak of execution.
  std::size_t peak_temp_bytes = 0;
};

/// Evaluate the compiled module.  `args` must match module params.
std::vector<Literal> execute(const Compiled& compiled,
                             std::span<const Literal> args,
                             ExecutionReport* report = nullptr);

/// Evaluate via the fused-loop executable (xla/compiled.hpp): one
/// specialized loop per materialized value instead of one Literal per
/// instruction.  Products and report are bitwise-identical to execute();
/// throws LoweringError when the module cannot be lowered (the Jit falls
/// back to the interpreter).
std::vector<Literal> execute_compiled(const Compiled& compiled,
                                      std::span<const Literal> args,
                                      ExecutionReport* report = nullptr);

namespace detail {

/// Check args against the traced signature (count, shapes, dtypes);
/// throws std::invalid_argument on mismatch.  Shared by both executors.
void validate_args(const HloModule& m, std::span<const Literal> args);

/// Returns the executed index stream of a scatter instruction (the value
/// of its operands[1]).  The only data dependence of the metering model:
/// everything else in the report derives from shapes and the group
/// assignment, but the scatter lowering decision (segmented reduction vs
/// atomics, and the conflict rate) is taken from the actual indices.
using ScatterIdxFn =
    std::function<std::span<const std::int64_t>(InstrId scatter)>;

/// Build the full ExecutionReport for a module.  The shape-only part is
/// computed once per Compiled and cached; each call copies it and runs
/// only the per-call scatter pass over the executed indices (sortedness,
/// unique targets, warp conflict rate), folding each scatter-add in SSA
/// order, then sums `total`.  Both executors call this with their own
/// ScatterIdxFn, which is what makes the reports — and hence the
/// modelled TimeLog — bitwise identical across modes.
ExecutionReport build_report(const Compiled& compiled,
                             const ScatterIdxFn& scatter_idx);

}  // namespace detail

}  // namespace toast::xla
