#include "xla/passes.hpp"

#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "xla/eval.hpp"

namespace toast::xla {

namespace {

/// Rebuild helper: copy instruction with operand ids remapped.
HloInstruction remap(const HloInstruction& in,
                     const std::vector<InstrId>& id_map) {
  HloInstruction out = in;
  for (auto& op : out.operands) {
    op = id_map[static_cast<std::size_t>(op)];
  }
  return out;
}

void remap_roots_and_params(const HloModule& src, HloModule& dst,
                            const std::vector<InstrId>& id_map) {
  dst.name = src.name;
  dst.params.clear();
  for (const auto p : src.params) {
    dst.params.push_back(id_map[static_cast<std::size_t>(p)]);
  }
  dst.roots.clear();
  for (const auto r : src.roots) {
    dst.roots.push_back(id_map[static_cast<std::size_t>(r)]);
  }
}

// Only fold scalars and tiny aggregates: folding a big iota/broadcast
// would materialize as a constant what XLA generates inside the kernel.
constexpr std::int64_t kMaxFoldElements = 16;

}  // namespace

HloModule fold_constants(HloModule module, int* folded) {
  HloModule out;
  std::vector<InstrId> id_map(module.size());
  int count = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    HloInstruction in = remap(module.instructions[i], id_map);
    const bool is_leaf =
        in.opcode == Opcode::kParam || in.opcode == Opcode::kConstant;
    bool all_const = !is_leaf;
    for (const auto op : in.operands) {
      if (out.at(op).opcode != Opcode::kConstant) {
        all_const = false;
        break;
      }
    }
    if (all_const && in.shape.num_elements() <= kMaxFoldElements) {
      std::vector<const Literal*> ops;
      ops.reserve(in.operands.size());
      for (const auto op : in.operands) {
        ops.push_back(&*out.at(op).literal);
      }
      Literal value(in.shape, in.dtype);
      evaluate_instruction(in, ops, value);
      HloInstruction cst;
      cst.opcode = Opcode::kConstant;
      cst.dtype = in.dtype;
      cst.shape = in.shape;
      cst.literal = std::move(value);
      out.instructions.push_back(std::move(cst));
      ++count;
    } else {
      out.instructions.push_back(std::move(in));
    }
    id_map[i] = static_cast<InstrId>(out.instructions.size() - 1);
  }
  remap_roots_and_params(module, out, id_map);
  if (folded != nullptr) *folded = count;
  return out;
}

HloModule simplify_algebra(HloModule module, int* simplified) {
  // Replace trivial instructions with forwarding to an operand: since
  // downstream passes remap through id_map, forwarding is expressed by
  // rebuilding the module and mapping the instruction's id onto the
  // surviving operand's id.
  HloModule out;
  std::vector<InstrId> id_map(module.size());
  int count = 0;

  auto is_scalar_const = [&](InstrId id, double value) {
    const auto& in = out.at(id);
    return in.opcode == Opcode::kConstant && in.literal->num_elements() == 1 &&
           in.dtype != DType::kPred && in.literal->as_double(0) == value;
  };

  for (std::size_t i = 0; i < module.size(); ++i) {
    HloInstruction in = remap(module.instructions[i], id_map);
    InstrId forward = -1;
    switch (in.opcode) {
      case Opcode::kAdd:
      case Opcode::kSub:
        // x + 0, 0 + x, x - 0.  Only when the shape survives (a scalar
        // zero on the non-scalar side).
        if (in.operands.size() == 2) {
          if (is_scalar_const(in.operands[1], 0.0) &&
              out.at(in.operands[0]).shape == in.shape) {
            forward = in.operands[0];
          } else if (in.opcode == Opcode::kAdd &&
                     is_scalar_const(in.operands[0], 0.0) &&
                     out.at(in.operands[1]).shape == in.shape) {
            forward = in.operands[1];
          }
        }
        break;
      case Opcode::kMul:
        if (is_scalar_const(in.operands[1], 1.0) &&
            out.at(in.operands[0]).shape == in.shape) {
          forward = in.operands[0];
        } else if (is_scalar_const(in.operands[0], 1.0) &&
                   out.at(in.operands[1]).shape == in.shape) {
          forward = in.operands[1];
        }
        break;
      case Opcode::kDiv:
        if (is_scalar_const(in.operands[1], 1.0) &&
            out.at(in.operands[0]).shape == in.shape) {
          forward = in.operands[0];
        }
        break;
      case Opcode::kNeg:
        if (out.at(in.operands[0]).opcode == Opcode::kNeg) {
          forward = out.at(in.operands[0]).operands[0];
        }
        break;
      case Opcode::kSelect:
        if (in.operands[1] == in.operands[2] &&
            out.at(in.operands[1]).shape == in.shape) {
          forward = in.operands[1];
        }
        break;
      case Opcode::kReshape:
        if (out.at(in.operands[0]).shape == in.shape) {
          forward = in.operands[0];
        }
        break;
      default:
        break;
    }
    if (forward >= 0) {
      id_map[i] = forward;
      ++count;
      continue;
    }
    out.instructions.push_back(std::move(in));
    id_map[i] = static_cast<InstrId>(out.instructions.size() - 1);
  }
  remap_roots_and_params(module, out, id_map);
  if (simplified != nullptr) *simplified = count;
  return out;
}

std::vector<std::string> verify(const HloModule& module) {
  std::vector<std::string> problems;
  std::vector<bool> param_seen;
  for (std::size_t i = 0; i < module.size(); ++i) {
    const auto& in = module.instructions[i];
    for (const auto op : in.operands) {
      if (op < 0 || static_cast<std::size_t>(op) >= i) {
        problems.push_back("instruction %" + std::to_string(i) +
                           " uses operand %" + std::to_string(op) +
                           " out of SSA order");
      }
    }
    if (in.opcode == Opcode::kConstant && !in.literal.has_value()) {
      problems.push_back("constant %" + std::to_string(i) +
                         " has no literal payload");
    }
    if (in.opcode == Opcode::kParam) {
      const auto idx = static_cast<std::size_t>(in.i0);
      if (param_seen.size() <= idx) {
        param_seen.resize(idx + 1, false);
      }
      if (param_seen[idx]) {
        problems.push_back("duplicate parameter index " +
                           std::to_string(in.i0));
      }
      param_seen[idx] = true;
    }
  }
  for (std::size_t p = 0; p < param_seen.size(); ++p) {
    if (!param_seen[p]) {
      problems.push_back("parameter index " + std::to_string(p) +
                         " missing (not dense)");
    }
  }
  for (const auto r : module.roots) {
    if (r < 0 || static_cast<std::size_t>(r) >= module.size()) {
      problems.push_back("root %" + std::to_string(r) + " out of range");
    }
  }
  return problems;
}

HloModule rewrite_dots(HloModule module, int* rewrites) {
  int count = 0;
  for (auto& in : module.instructions) {
    if (in.opcode != Opcode::kReduceSum || in.i0 != -1 ||
        in.dtype != DType::kF64) {
      continue;
    }
    const auto& prod = module.at(in.operands[0]);
    if (prod.opcode != Opcode::kMul || prod.dtype != DType::kF64 ||
        prod.shape.rank() != 1) {
      continue;
    }
    const auto& lhs = module.at(prod.operands[0]);
    const auto& rhs = module.at(prod.operands[1]);
    if (lhs.shape != rhs.shape || lhs.shape.rank() != 1) {
      continue;  // scalar-broadcast multiplies are not dots
    }
    in.opcode = Opcode::kDot;
    in.operands = prod.operands;
    in.i0 = 0;
    ++count;
  }
  if (rewrites != nullptr) *rewrites = count;
  return module;
}

HloModule eliminate_common_subexpressions(HloModule module, int* removed) {
  HloModule out;
  std::vector<InstrId> id_map(module.size());
  std::map<std::string, InstrId> seen;
  int count = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    HloInstruction in = remap(module.instructions[i], id_map);
    std::ostringstream key;
    key << static_cast<int>(in.opcode) << "|" << static_cast<int>(in.dtype)
        << "|" << in.shape.to_string() << "|" << in.i0 << "|";
    for (const auto op : in.operands) {
      key << op << ",";
    }
    bool hashable = true;
    if (in.opcode == Opcode::kConstant) {
      // Only dedupe small constants by value.
      if (in.literal->num_elements() <= 16) {
        for (std::int64_t k = 0; k < in.literal->num_elements(); ++k) {
          key << in.literal->as_double(k) << ";";
        }
      } else {
        hashable = false;
      }
    }
    if (in.opcode == Opcode::kParam) {
      hashable = false;
    }
    if (hashable) {
      const auto it = seen.find(key.str());
      if (it != seen.end()) {
        id_map[i] = it->second;
        ++count;
        continue;
      }
    }
    out.instructions.push_back(std::move(in));
    const auto new_id = static_cast<InstrId>(out.instructions.size() - 1);
    id_map[i] = new_id;
    if (hashable) {
      seen.emplace(key.str(), new_id);
    }
  }
  remap_roots_and_params(module, out, id_map);
  if (removed != nullptr) *removed = count;
  return out;
}

HloModule eliminate_dead_code(HloModule module, int* removed) {
  std::vector<bool> live(module.size(), false);
  std::vector<InstrId> stack(module.roots);
  // Parameters always survive (they define the calling convention).
  for (const auto p : module.params) {
    stack.push_back(p);
  }
  while (!stack.empty()) {
    const InstrId id = stack.back();
    stack.pop_back();
    if (live[static_cast<std::size_t>(id)]) {
      continue;
    }
    live[static_cast<std::size_t>(id)] = true;
    for (const auto op : module.at(id).operands) {
      stack.push_back(op);
    }
  }
  HloModule out;
  std::vector<InstrId> id_map(module.size(), -1);
  int count = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    if (!live[i]) {
      ++count;
      continue;
    }
    out.instructions.push_back(remap(module.instructions[i], id_map));
    id_map[i] = static_cast<InstrId>(out.instructions.size() - 1);
  }
  remap_roots_and_params(module, out, id_map);
  if (removed != nullptr) *removed = count;
  return out;
}

HloModule optimize(HloModule module, PassStats* stats) {
  PassStats local;
  module = fold_constants(std::move(module), &local.folded);
  module = simplify_algebra(std::move(module), &local.simplified);
  module = rewrite_dots(std::move(module), &local.dot_rewrites);
  module = eliminate_common_subexpressions(std::move(module),
                                           &local.cse_removed);
  module = eliminate_dead_code(std::move(module), &local.dce_removed);
  if (stats != nullptr) *stats = local;
  return module;
}

std::vector<int> assign_fusion_groups(const HloModule& module) {
  std::vector<int> group(module.size(), -1);
  int current = 0;
  bool open = false;
  for (std::size_t i = 0; i < module.size(); ++i) {
    const auto op = module.instructions[i].opcode;
    if (op == Opcode::kParam || op == Opcode::kConstant) {
      group[i] = -1;
      continue;
    }
    if (is_heavy(op)) {
      // A heavy op joins the open group (input fusion of its elementwise
      // producers) and closes it.
      group[i] = current;
      ++current;
      open = false;
    } else {
      group[i] = current;
      open = true;
    }
  }
  (void)open;
  return group;
}

}  // namespace toast::xla
