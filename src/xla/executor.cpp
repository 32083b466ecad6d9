#include "xla/executor.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "xla/eval.hpp"

namespace toast::xla {

namespace {

constexpr double kCompileBaseSeconds = 0.04;
constexpr double kCompilePerInstructionSeconds = 3.5e-4;

double literal_bytes(const HloInstruction& in) {
  return static_cast<double>(in.shape.num_elements()) *
         static_cast<double>(dtype_size(in.dtype));
}

}  // namespace

Compiled compile(HloModule module) {
  {
    const auto problems = verify(module);
    if (!problems.empty()) {
      throw std::logic_error("xla: invalid module: " + problems.front());
    }
  }
  Compiled c;
  c.module = optimize(std::move(module), &c.pass_stats);
  c.group_of = assign_fusion_groups(c.module);
  int max_group = -1;
  for (const auto g : c.group_of) {
    max_group = std::max(max_group, g);
  }
  c.n_groups = max_group + 1;
  for (const auto& in : c.module.instructions) {
    if (in.opcode == Opcode::kParam || in.opcode == Opcode::kConstant) {
      continue;
    }
    const std::int64_t count = in.shape.num_elements();
    const auto cls =
        std::find_if(c.buffer_classes.begin(), c.buffer_classes.end(),
                     [&](const BufferClass& b) {
                       return b.dtype == in.dtype && b.count == count;
                     });
    if (cls == c.buffer_classes.end()) {
      c.buffer_classes.push_back({in.dtype, count, 1});
    } else {
      ++cls->keep;
    }
  }
  c.compile_seconds =
      kCompileBaseSeconds +
      kCompilePerInstructionSeconds * static_cast<double>(c.module.size());
  return c;
}

namespace detail {

struct ShapeReport {
  /// The report without the scatter-add lowering (its bytes written,
  /// atomics and segment flag) and without `total`.
  ExecutionReport report;
  /// Scatter-add instructions in SSA order: the only data-dependent part.
  std::vector<InstrId> scatter_adds;
};

}  // namespace detail

namespace {

using detail::ScatterLowering;
using detail::ShapeReport;

void validate_args(const HloModule& m, std::span<const Literal> args) {
  if (args.size() != m.params.size()) {
    throw std::invalid_argument("xla: argument count mismatch");
  }
  for (std::size_t p = 0; p < m.params.size(); ++p) {
    const auto& param = m.at(m.params[p]);
    if (args[p].shape() != param.shape || args[p].dtype() != param.dtype) {
      throw std::invalid_argument("xla: argument " + std::to_string(p) +
                                  " shape/dtype mismatch");
    }
  }
}

ShapeReport build_shape_report(const Compiled& compiled) {
  const HloModule& m = compiled.module;

  ShapeReport shape;
  ExecutionReport& local = shape.report;
  local.group_work.assign(static_cast<std::size_t>(compiled.n_groups), {});
  local.group_heavy.assign(static_cast<std::size_t>(compiled.n_groups),
                           false);
  for (auto& w : local.group_work) {
    w.launches = 0.0;  // set to 1 when the group turns out non-empty
  }

  // Consumer map: which groups read instruction i, and is it a root.
  const std::size_t n = m.size();
  std::vector<std::set<int>> consumer_groups(n);
  std::vector<std::set<int>> producer_groups(
      static_cast<std::size_t>(compiled.n_groups));
  for (std::size_t i = 0; i < n; ++i) {
    const int g = compiled.group_of[i];
    for (const auto op : m.instructions[i].operands) {
      const int og = compiled.group_of[static_cast<std::size_t>(op)];
      if (og != g) {
        consumer_groups[static_cast<std::size_t>(op)].insert(g);
        if (g >= 0 && og >= 0) {
          producer_groups[static_cast<std::size_t>(g)].insert(og);
        }
      }
    }
  }
  local.group_deps.resize(static_cast<std::size_t>(compiled.n_groups));
  for (std::size_t g = 0; g < producer_groups.size(); ++g) {
    local.group_deps[g].assign(producer_groups[g].begin(),
                               producer_groups[g].end());
  }
  std::unordered_set<InstrId> root_set(m.roots.begin(), m.roots.end());

  std::vector<int> group_instr_count(
      static_cast<std::size_t>(compiled.n_groups), 0);
  std::size_t temp_bytes = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    const int g = compiled.group_of[i];

    if (in.opcode == Opcode::kParam) {
      continue;
    }
    temp_bytes += static_cast<std::size_t>(literal_bytes(in));
    local.peak_temp_bytes = std::max(local.peak_temp_bytes, temp_bytes);
    if (g < 0) {
      continue;
    }

    auto& work = local.group_work[static_cast<std::size_t>(g)];
    work.launches = 1.0;
    ++group_instr_count[static_cast<std::size_t>(g)];
    if (is_heavy(in.opcode)) {
      local.group_heavy[static_cast<std::size_t>(g)] = true;
    }
    const double elems = static_cast<double>(in.shape.num_elements());
    work.parallel_items = std::max(work.parallel_items, elems);

    // Flop accounting.
    switch (in.opcode) {
      case Opcode::kReduceSum:
        work.flops += static_cast<double>(
            m.at(in.operands[0]).shape.num_elements());
        break;
      case Opcode::kDot:
        work.flops += 2.0 * static_cast<double>(
                                m.at(in.operands[0]).shape.num_elements());
        work.parallel_items = std::max(
            work.parallel_items,
            static_cast<double>(m.at(in.operands[0]).shape.num_elements()));
        break;
      case Opcode::kScatterAdd:
      case Opcode::kScatterSet: {
        const double updates = static_cast<double>(
            m.at(in.operands[1]).shape.num_elements());
        work.flops += 2.0 * updates;
        work.parallel_items = std::max(work.parallel_items, updates);
        if (in.opcode == Opcode::kScatterSet) {
          // Plain stores, one per update, never atomics.
          work.bytes_written +=
              updates * static_cast<double>(dtype_size(in.dtype));
        } else {
          shape.scatter_adds.push_back(static_cast<InstrId>(i));
        }
        break;
      }
      case Opcode::kGather:
        // A gather loads one table element per *output* element: padded
        // lanes really do read (dummy) data.
        work.flops += elems;
        work.bytes_read +=
            elems * static_cast<double>(dtype_size(in.dtype));
        break;
      default:
        work.flops += flops_per_element(in.opcode) * elems;
        break;
    }

    // Memory traffic: operands read from outside the group.  The gather
    // table is accounted above (per gathered element).
    for (std::size_t k = 0; k < in.operands.size(); ++k) {
      if (in.opcode == Opcode::kGather && k == 0) {
        continue;
      }
      const auto op = in.operands[k];
      const int og = compiled.group_of[static_cast<std::size_t>(op)];
      if (og != g) {
        work.bytes_read += literal_bytes(m.at(op));
      }
    }
    // Output traffic: values consumed by other groups or returned.
    if (!consumer_groups[i].empty() || root_set.count(static_cast<InstrId>(i))) {
      work.bytes_written += literal_bytes(in);
    }
  }

  // Register pressure: very large fused kernels (predicated branchy code
  // materializes every path, e.g. the HEALPix projection) spill registers
  // and lose occupancy.  Modelled as a compute-time multiplier that grows
  // once a fusion group exceeds what fits in the register file.
  constexpr double kRegisterComfortInstrs = 48.0;
  constexpr double kMaxRegisterPenalty = 3.0;
  for (std::size_t g = 0; g < local.group_work.size(); ++g) {
    const double pressure =
        static_cast<double>(group_instr_count[g]) / kRegisterComfortInstrs;
    if (pressure > 1.0) {
      local.group_work[g].divergence *=
          std::min(kMaxRegisterPenalty, pressure);
    }
  }
  return shape;
}

/// Lowering decision from the data, as XLA:GPU takes it: sorted valid
/// indices -> segmented reduction (no atomics); unsorted -> atomics with
/// the measured conflict rate.
ScatterLowering measure_scatter(std::span<const std::int64_t> span,
                                std::int64_t base_n) {
  ScatterLowering l;
  bool sorted = true;
  std::int64_t prev = std::numeric_limits<std::int64_t>::min();
  for (const auto j : span) {
    if (j < 0 || j >= base_n) continue;  // dropped lanes
    if (j < prev) {
      sorted = false;
      break;
    }
    if (j != prev) l.unique_targets += 1.0;
    prev = j;
  }
  l.segment = sorted && span.size() > 1;
  if (!l.segment) {
    const auto counted = accel::count_window_conflicts(span, base_n);
    l.valid = static_cast<double>(counted.valid);
    l.conflict_rate = counted.rate();
  }
  return l;
}

/// Fold one scatter-add's lowering into its group's work.
void fold_scatter(const Compiled& compiled, InstrId scatter,
                  const ScatterLowering& l, ExecutionReport& local) {
  const HloModule& m = compiled.module;
  const HloInstruction& in = m.at(scatter);
  auto& work = local.group_work[static_cast<std::size_t>(
      compiled.group_of[static_cast<std::size_t>(scatter)])];
  const double updates =
      static_cast<double>(m.at(in.operands[1]).shape.num_elements());
  if (l.segment) {
    local.segment_lowering_used = true;
  } else {
    const double prior_atomics = work.atomic_ops;
    work.atomic_conflict_rate = (work.atomic_conflict_rate * prior_atomics +
                                 l.conflict_rate * l.valid) /
                                std::max(1.0, prior_atomics + l.valid);
    work.atomic_ops += l.valid;
  }
  // XLA buffer assignment updates the base in place (the operand is dead
  // after this op in our kernels): only the touched elements are stored,
  // not the whole buffer.  A segmented reduction stores one value per
  // *unique* target (the linear-algebra lowering of the paper's
  // offset_project anomaly); atomics store one per update.
  work.bytes_written += (l.segment ? l.unique_targets : updates) *
                        static_cast<double>(dtype_size(in.dtype));
}

const ShapeReport& shape_report_of(const Compiled& compiled) {
  if (!compiled.shape_report) {
    compiled.shape_report =
        std::make_shared<const ShapeReport>(build_shape_report(compiled));
  }
  return *compiled.shape_report;
}

}  // namespace

std::size_t peak_temp_bytes(const Compiled& compiled) {
  return shape_report_of(compiled).report.peak_temp_bytes;
}

namespace {

/// The full report: the cached shape-only part plus this call's
/// scatter-add lowerings (one per ShapeReport::scatter_adds) folded in SSA
/// order, then summed into `total`.
ExecutionReport build_report(const Compiled& compiled,
                             std::span<const ScatterLowering> lowerings) {
  const ShapeReport& shape = shape_report_of(compiled);
  ExecutionReport local = shape.report;
  for (std::size_t k = 0; k < shape.scatter_adds.size(); ++k) {
    fold_scatter(compiled, shape.scatter_adds[k], lowerings[k], local);
  }
  for (const auto& w : local.group_work) {
    local.total += w;
  }
  return local;
}

}  // namespace

namespace detail {

struct Invariance {
  /// The declared params this was built for.
  std::vector<int> params;
  /// The value depends only on declared params and constants.
  std::vector<bool> fixed;
  /// Fixed and computed, not a root: skipped on a hit.
  std::vector<bool> invariant;
  /// Invariant values read by an instruction that is not, in SSA order,
  /// and each instruction's index among them (-1 if not one).
  std::vector<InstrId> frontier;
  std::vector<int> slot;
};

}  // namespace detail

namespace {

using detail::Invariance;

Invariance build_invariance(const HloModule& m, std::vector<int> params) {
  const std::size_t n = m.size();
  std::vector<bool> declared(m.params.size(), false);
  for (const int p : params) {
    if (p < 0 || static_cast<std::size_t>(p) >= declared.size()) {
      throw std::invalid_argument("xla: invariant param " + std::to_string(p) +
                                  " out of range");
    }
    declared[static_cast<std::size_t>(p)] = true;
  }
  const std::unordered_set<InstrId> roots(m.roots.begin(), m.roots.end());
  Invariance inv;
  inv.params = std::move(params);
  inv.fixed.assign(n, false);
  inv.invariant.assign(n, false);
  inv.slot.assign(n, -1);
  std::vector<bool> read_by_evaluated(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (in.opcode == Opcode::kParam) {
      inv.fixed[i] = declared[static_cast<std::size_t>(in.i0)];
    } else if (in.opcode == Opcode::kConstant) {
      inv.fixed[i] = true;
    } else {
      inv.fixed[i] = std::all_of(
          in.operands.begin(), in.operands.end(),
          [&](InstrId op) { return inv.fixed[static_cast<std::size_t>(op)]; });
      inv.invariant[i] =
          inv.fixed[i] && roots.count(static_cast<InstrId>(i)) == 0;
    }
    if (!inv.invariant[i]) {
      for (const auto op : in.operands) {
        read_by_evaluated[static_cast<std::size_t>(op)] = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (inv.invariant[i] && read_by_evaluated[i]) {
      inv.slot[i] = static_cast<int>(inv.frontier.size());
      inv.frontier.push_back(static_cast<InstrId>(i));
    }
  }
  return inv;
}

const Invariance& invariance_of(const Compiled& compiled,
                                const std::vector<int>& params) {
  if (!compiled.invariance || compiled.invariance->params != params) {
    compiled.invariance = std::make_shared<const Invariance>(
        build_invariance(compiled.module, params));
  }
  return *compiled.invariance;
}

bool same_bits(const Literal& a, const Literal& b) {
  if (a.dtype() != b.dtype() || a.shape() != b.shape()) return false;
  switch (a.dtype()) {
    case DType::kF64:
      return std::memcmp(a.f64().data(), b.f64().data(), a.byte_size()) == 0;
    case DType::kI64:
      return std::memcmp(a.i64().data(), b.i64().data(), a.byte_size()) == 0;
    case DType::kPred:
      break;
  }
  return std::memcmp(a.pred().data(), b.pred().data(), a.byte_size()) == 0;
}

bool reusable(const ReuseEntry& e, const Compiled& compiled,
              const std::vector<Literal>& args) {
  if (e.compiled != &compiled) return false;
  for (std::size_t k = 0; k < e.params.size(); ++k) {
    if (!same_bits(args[static_cast<std::size_t>(e.params[k])],
                   e.param_copies[k])) {
      return false;
    }
  }
  return true;
}

/// A miss: the entry belongs to no Compiled until the call completes, its
/// old values go back to the pool, and the declared params are copied.
void restart(ReuseEntry& e, const std::vector<Literal>& args,
             BufferPool& pool) {
  e.compiled = nullptr;
  for (auto& v : e.values) pool.give(std::move(v));
  e.values.clear();
  e.lowerings.clear();
  e.param_copies.resize(e.params.size());
  for (std::size_t k = 0; k < e.params.size(); ++k) {
    e.param_copies[k] = args[static_cast<std::size_t>(e.params[k])];
  }
}

}  // namespace

std::vector<Literal> execute(const Compiled& compiled,
                             std::vector<Literal> args, BufferPool& pool,
                             ExecutionReport* report, ReuseEntry* reuse) {
  const HloModule& m = compiled.module;
  validate_args(m, args);
  const Invariance* inv =
      reuse != nullptr ? &invariance_of(compiled, reuse->params) : nullptr;
  const bool hit = inv != nullptr && reusable(*reuse, compiled, args);
  if (inv != nullptr && !hit) {
    restart(*reuse, args, pool);
  }
  pool.trim(compiled.buffer_classes);
  const auto skipped = [&](std::size_t i) {
    return hit && inv->invariant[i];
  };

  // Computed values and params (a donated, writable borrow included) are
  // owned; constants, kept values and read-only borrowed params are read
  // in place.  `owned` never resizes, so pointers into it stay valid.  A
  // value is alive while vals[i] == &owned[i].
  const std::size_t n = m.size();
  // Last reader of each value (itself when nothing reads it); skipped
  // instructions read nothing.  Roots, the scatter-add index streams (the
  // report's input) and, on a miss, the frontier values are read after
  // the loop, so they stay alive.
  std::vector<std::size_t> last_use(n);
  for (std::size_t i = 0; i < n; ++i) {
    last_use[i] = i;
    if (skipped(i)) continue;
    for (const auto op : m.instructions[i].operands) {
      last_use[static_cast<std::size_t>(op)] = i;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (in.opcode == Opcode::kScatterAdd && !skipped(i)) {
      last_use[static_cast<std::size_t>(in.operands[1])] = n;
    }
  }
  for (const auto r : m.roots) {
    last_use[static_cast<std::size_t>(r)] = n;
  }
  if (inv != nullptr && !hit) {
    for (const auto f : inv->frontier) {
      last_use[static_cast<std::size_t>(f)] = n;
    }
  }
  std::vector<Literal> owned(n);
  std::vector<const Literal*> vals(n, nullptr);
  std::vector<const Literal*> ops;
  const auto dies_here = [&](std::size_t o, std::size_t i) {
    return vals[o] == &owned[o] && last_use[o] == i;
  };
  // Moves owned[o] into owned[i]; operands that read it now read owned[i].
  const auto take_over = [&](std::size_t o, std::size_t i) {
    owned[i] = std::move(owned[o]);
    vals[o] = nullptr;
    for (auto& p : ops) {
      if (p == &owned[o]) p = &owned[i];
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (in.opcode == Opcode::kConstant) {
      vals[i] = &*in.literal;
      continue;
    }
    if (skipped(i)) {
      const int s = inv->slot[i];
      vals[i] = s < 0 ? nullptr : &reuse->values[static_cast<std::size_t>(s)];
      continue;
    }
    if (in.opcode == Opcode::kParam) {
      Literal& arg = args[static_cast<std::size_t>(in.i0)];
      if (!arg.writable()) {
        vals[i] = &arg;
        continue;
      }
      owned[i] = std::move(arg);
    } else {
      ops.clear();
      for (const auto op : in.operands) {
        ops.push_back(vals[static_cast<std::size_t>(op)]);
      }
      const bool scatter = in.opcode == Opcode::kScatterAdd ||
                           in.opcode == Opcode::kScatterSet;
      const auto& operands = in.operands;
      if (scatter && dies_here(static_cast<std::size_t>(operands[0]), i) &&
          operands[1] != operands[0] && operands[2] != operands[0]) {
        // Update a dead base in place, as XLA's buffer assignment does.
        take_over(static_cast<std::size_t>(operands[0]), i);
        scatter_into(in, owned[i], *ops[1], *ops[2]);
      } else {
        // An elementwise op may write over any operand that dies here, a
        // gather only over its index operand, and only when that is not
        // also the table.
        std::size_t k = 0;
        std::size_t end = 0;
        if (is_elementwise(in.opcode)) {
          end = operands.size();
        } else if (in.opcode == Opcode::kGather && operands[1] != operands[0]) {
          k = 1;
          end = 2;
        }
        const std::int64_t count = in.shape.num_elements();
        for (; k < end; ++k) {
          const auto o = static_cast<std::size_t>(operands[k]);
          if (dies_here(o, i) && owned[o].dtype() == in.dtype &&
              owned[o].num_elements() == count) {
            take_over(o, i);
            owned[i].reshape(in.shape);
            break;
          }
        }
        if (k == end) {
          owned[i] = pool.take(in.shape, in.dtype);
        }
        evaluate_instruction(in, ops, owned[i]);
      }
      // Every operand this instruction read last goes back to the pool.
      for (const auto op : operands) {
        const auto o = static_cast<std::size_t>(op);
        if (dies_here(o, i)) {
          pool.give(std::move(owned[o]));
          vals[o] = nullptr;
        }
      }
    }
    vals[i] = &owned[i];
    if (last_use[i] == i) {  // nothing reads it
      pool.give(std::move(owned[i]));
      vals[i] = nullptr;
    }
  }

  // This call's scatter-add lowerings: a stream the declared params fix
  // is measured on a miss and taken from the entry on a hit.
  std::vector<ScatterLowering> lowerings;
  if (report != nullptr || inv != nullptr) {
    const ShapeReport& shape = shape_report_of(compiled);
    for (std::size_t k = 0; k < shape.scatter_adds.size(); ++k) {
      const HloInstruction& in = m.at(shape.scatter_adds[k]);
      const auto idx = static_cast<std::size_t>(in.operands[1]);
      if (hit && inv->fixed[idx]) {
        lowerings.push_back(reuse->lowerings[k]);
      } else {
        lowerings.push_back(measure_scatter(
            vals[idx]->i64(), m.at(in.operands[0]).shape.num_elements()));
      }
    }
  }
  if (report != nullptr) {
    *report = build_report(compiled, lowerings);
  }

  // A root that is an owned param or computed value is moved out at its
  // last mention (still borrowed when it is held in a donated buffer);
  // constants, read-only borrows and earlier mentions of a repeated root
  // are copied.
  std::vector<Literal> outputs;
  outputs.reserve(m.roots.size());
  for (auto r = m.roots.begin(); r != m.roots.end(); ++r) {
    const auto i = static_cast<std::size_t>(*r);
    const bool last = std::find(r + 1, m.roots.end(), *r) == m.roots.end();
    if (last && vals[i] == &owned[i]) {
      outputs.push_back(std::move(owned[i]));
      vals[i] = nullptr;
    } else {
      outputs.push_back(*vals[i]);
    }
  }
  if (hit) {
    ++reuse->hits;
  } else if (inv != nullptr) {
    for (const auto f : inv->frontier) {
      // A value held in a donated buffer is copied: the caller owns that
      // memory once the call returns.
      Literal& v = owned[static_cast<std::size_t>(f)];
      reuse->values.push_back(v.borrowed() ? Literal(v) : std::move(v));
      vals[static_cast<std::size_t>(f)] = nullptr;
    }
    reuse->lowerings = std::move(lowerings);
    reuse->compiled = &compiled;
  }
  // What stayed alive only for the report: the scatter-add index streams.
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] == &owned[i]) pool.give(std::move(owned[i]));
  }
  return outputs;
}

}  // namespace toast::xla
