#pragma once

// Reference evaluation of single HLO instructions on Literals.  Used by the
// executor (functional semantics of fused groups) and by the constant-
// folding pass.

#include <cstdint>
#include <limits>
#include <vector>

#include "xla/hlo.hpp"
#include "xla/types.hpp"

namespace toast::xla {

/// Evaluate one instruction given its operand values into `out`, which
/// the caller sizes to the instruction's shape and dtype.  Every element
/// of `out` is overwritten, so its prior contents never matter.  `out`
/// may be the storage of an operand only for an elementwise op, or as a
/// gather's index operand when the table is another value: each output
/// element is then written after the last read of that operand element.
/// kParam is not handled here (the executor substitutes arguments).
void evaluate_instruction(const HloInstruction& instr,
                          const std::vector<const Literal*>& operands,
                          Literal& out);

/// Scatter-add / scatter-set `updates` into `base` at `indices`, in place.
/// evaluate_instruction scatters into a copy of its base operand; the
/// executor calls this directly on a base that dies at the scatter.
void scatter_into(const HloInstruction& instr, Literal& base,
                  const Literal& indices, const Literal& updates);

// Integer ops whose C++ meaning is undefined for some inputs get XLA's
// total semantics.  Both executors and constant folding use these, so a
// division by zero or an oversized shift gives the same defined value
// everywhere instead of a trap.

/// x / 0 = -1; INT64_MIN / -1 = INT64_MIN.
struct IntDiv {
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    if (y == 0) return -1;
    if (y == -1) return x == std::numeric_limits<std::int64_t>::min() ? x : -x;
    return x / y;
  }
};

/// x % 0 = x; INT64_MIN % -1 = 0.
struct IntRem {
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    if (y == 0) return x;
    if (y == -1) return 0;
    return x % y;
  }
};

/// Shift amounts outside [0, 64) give 0.
struct IntShl {
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    if (y < 0 || y >= 64) return 0;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) << y);
  }
};

/// Logical right shift; amounts outside [0, 64) give 0.
struct IntShr {
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    if (y < 0 || y >= 64) return 0;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) >> y);
  }
};

}  // namespace toast::xla
