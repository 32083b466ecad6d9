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
//
// A caller that calls one module in a loop may declare the params that do
// not change between calls; execute() then keeps what it computed from
// them in a ReuseEntry and skips that work while they stay bit-identical.

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
/// Which instructions a set of declared invariant params fixes, and the
/// values a ReuseEntry keeps.  Defined in executor.cpp.
struct Invariance;

/// The data-dependent part of one scatter-add's report, measured from its
/// index stream.
struct ScatterLowering {
  bool segment = false;         // sorted stream: segmented reduction
  double unique_targets = 0.0;  // distinct in-range targets (if segment)
  double valid = 0.0;           // in-range lanes (atomics, if not segment)
  double conflict_rate = 0.0;   // warp conflict rate (if not segment)
};
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
  /// Lazily-built invariance of the last declared param set a ReuseEntry
  /// brought (one per Compiled in practice: a Jit's declaration is fixed).
  mutable std::shared_ptr<const detail::Invariance> invariance;
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

/// What one Jit keeps between calls to skip loop-invariant work; see
/// execute().  Only `params` is set by its owner, the rest by execute().
struct ReuseEntry {
  /// Declared invariant params (sorted indices into the call's args).
  std::vector<int> params;
  /// The Compiled the kept values belong to, set once a call on it has
  /// completed; null while a call fills the entry.
  const Compiled* compiled = nullptr;
  std::vector<Literal> param_copies;  // one per declared param
  std::vector<Literal> values;        // the frontier values, in SSA order
  /// Per scatter-add, in SSA order; read only for fixed index streams.
  std::vector<detail::ScatterLowering> lowerings;
  /// Completed calls that reused the kept values.
  std::size_t hits = 0;
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
/// conflict rate) is measured per call from the executed index streams.
///
/// With a `reuse` entry, an instruction is *invariant* when it is not a
/// param, constant or root and every param it reads transitively is one
/// of `reuse->params`.  Its *frontier* is every invariant value read by
/// an instruction that is not.  A call whose declared params are bitwise
/// equal (shape, dtype, bytes: -0.0 and 0.0 differ) to the entry's
/// copies, on the entry's Compiled, is a hit: it skips every invariant
/// instruction, reads the kept frontier values in place (never writing
/// over or recycling them), and takes the lowering of each scatter-add
/// whose index stream the declared params fix from the entry.  Every
/// other call is a miss: it invalidates the entry, copies the declared
/// params, keeps the frontier values alive to the end, then moves them
/// and the lowerings into the entry, which becomes valid only then, so a
/// call that throws leaves nothing to reuse.  Outputs and report are
/// bit-identical either way: the skipped work is a pure function of
/// bit-identical inputs.
std::vector<Literal> execute(const Compiled& compiled,
                             std::vector<Literal> args, BufferPool& pool,
                             ExecutionReport* report = nullptr,
                             ReuseEntry* reuse = nullptr);

}  // namespace toast::xla
