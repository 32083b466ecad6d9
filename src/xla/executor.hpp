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

#include <memory>
#include <vector>

#include "accel/work.hpp"
#include "xla/hlo.hpp"
#include "xla/passes.hpp"

namespace toast::xla {

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
  /// The (dtype, element count) of every value the module computes, with
  /// how many it computes: the buffers a call may draw from its pool.
  std::vector<BufferClass> buffer_classes;
  /// Modelled XLA compile time (charged once per cache entry).
  double compile_seconds = 0.0;
  /// Lazily-built shape-only part of the ExecutionReport (computed once
  /// per Compiled, on the first reported call).
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

/// Evaluate the compiled module.  `args` must match module params; they
/// are owned by the call and, like every computed value, die after their
/// last reader.  Output buffers are recycled, in order of preference:
///   1. an elementwise op (or a gather, into its index operand) writes
///      over an operand of its dtype and element count that dies there;
///   2. a buffer of that dtype and count from `pool`;
///   3. a new allocation.
/// A scatter whose base dies there updates it in place.  Dead values go
/// back to `pool`, which is first trimmed to the module's buffer
/// classes.  The report's shape-only part is built once per Compiled and
/// cached; only the scatter lowering (sortedness, unique targets, warp
/// conflict rate) is recomputed per call from the executed index
/// streams.
std::vector<Literal> execute(const Compiled& compiled,
                             std::vector<Literal> args, BufferPool& pool,
                             ExecutionReport* report = nullptr);

}  // namespace toast::xla
