#include "xla/eval.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "accel/host_threads.hpp"

namespace toast::xla {

namespace {

// Every instruction picks its element types once, then runs one loop over
// raw pointers.  The typed accessors throw std::bad_variant_access when a
// literal does not hold T (a dtype-mixed module), before any loop runs.
// Loops whose elements are independent run in element ranges on the
// host pool (chunks()); each element is computed as in one serial loop,
// so the ranges cannot change a result.  Scatter, full reductions and dot
// accumulate in element order and stay serial.

/// body(begin, end) over ranges covering [0, n), on the host pool.
template <typename F>
void chunks(std::int64_t n, const F& body) {
  accel::host_threads().parallel_chunks(
      static_cast<std::size_t>(std::max<std::int64_t>(n, 0)),
      [&](std::size_t b, std::size_t e) {
        body(static_cast<std::int64_t>(b), static_cast<std::int64_t>(e));
      });
}

template <typename T>
std::span<const T> elems(const Literal& l) {
  if constexpr (std::is_same_v<T, double>) {
    return l.f64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return l.i64();
  } else {
    return l.pred();
  }
}

template <typename T>
T* out_data(Literal& l) {
  if constexpr (std::is_same_v<T, double>) {
    return l.f64().data();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return l.i64().data();
  } else {
    return l.pred().data();
  }
}

/// An operand read by output element index.  A size-1 operand supplies
/// its single value for every output element (stride 0).
template <typename T>
struct View {
  const T* data;
  std::int64_t stride;
  T operator[](std::int64_t i) const { return data[i * stride]; }
};

template <typename T>
View<T> view(const Literal& l) {
  const auto s = elems<T>(l);
  return {s.data(), s.size() == 1 ? 0 : 1};
}

/// Calls f with a value of dtype d's element type.
template <typename F>
auto with_dtype(DType d, F&& f) {
  switch (d) {
    case DType::kF64:
      return f(double{});
    case DType::kI64:
      return f(std::int64_t{});
    case DType::kPred:
      break;
  }
  return f(std::uint8_t{});
}

/// o[i] = f(views[i]...) for i in [b, e).  The views are parameters, so
/// a store through `o` cannot alias their strides.
template <typename Out, typename F, typename... V>
void map_range(Out* o, std::int64_t b, std::int64_t e, F f, V... views) {
  for (std::int64_t i = b; i < e; ++i) o[i] = static_cast<Out>(f(views[i]...));
}

/// out[i] = f(views[i]...) over every output element.  `out` may share
/// storage with a full-size view: element i is read before it is written.
template <typename Out, typename F, typename... V>
void map(Literal& out, F f, V... views) {
  Out* o = out_data<Out>(out);
  chunks(out.num_elements(), [&](std::int64_t b, std::int64_t e) {
    map_range(o, b, e, f, views...);
  });
}

/// Elementwise op whose operands and result share the result dtype,
/// f64 or i64.
template <typename F, typename... L>
void numeric(Literal& out, F f, const L&... ops) {
  if (out.dtype() == DType::kF64) return map<double>(out, f, view<double>(ops)...);
  map<std::int64_t>(out, f, view<std::int64_t>(ops)...);
}

/// and/or/xor: `logical` on pred, `bitwise` on i64.
template <typename P, typename B>
void bits(Literal& out, P logical, B bitwise, const Literal& a,
          const Literal& b) {
  if (out.dtype() == DType::kPred) {
    return map<std::uint8_t>(out, logical, view<std::uint8_t>(a),
                             view<std::uint8_t>(b));
  }
  map<std::int64_t>(out, bitwise, view<std::int64_t>(a),
                    view<std::int64_t>(b));
}

template <typename F>
void compare(Literal& out, F f, const Literal& a, const Literal& b) {
  if (a.dtype() == DType::kI64) {
    return map<std::uint8_t>(out, f, view<std::int64_t>(a),
                             view<std::int64_t>(b));
  }
  map<std::uint8_t>(out, f, view<double>(a), view<double>(b));
}

template <typename F>
void f64_unary(Literal& out, F f, const Literal& a) {
  map<double>(out, f, view<double>(a));
}

struct Div {
  double operator()(double x, double y) const { return x / y; }
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    return IntDiv{}(x, y);
  }
};

struct Mod {
  double operator()(double x, double y) const { return std::fmod(x, y); }
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    return IntRem{}(x, y);
  }
};

void eval_unary(const HloInstruction& in, const Literal& a, Literal& out) {
  switch (in.opcode) {
    case Opcode::kNeg:
      return numeric(out, [](auto v) { return -v; }, a);
    case Opcode::kAbs:
      return numeric(out, [](auto v) { return std::abs(v); }, a);
    case Opcode::kSign:
      return numeric(out, [](auto v) { return (v > 0) - (v < 0); }, a);
    case Opcode::kSqrt:
      return f64_unary(out, [](double v) { return std::sqrt(v); }, a);
    case Opcode::kSin:
      return f64_unary(out, [](double v) { return std::sin(v); }, a);
    case Opcode::kCos:
      return f64_unary(out, [](double v) { return std::cos(v); }, a);
    case Opcode::kExp:
      return f64_unary(out, [](double v) { return std::exp(v); }, a);
    case Opcode::kLog:
      return f64_unary(out, [](double v) { return std::log(v); }, a);
    case Opcode::kFloor:
      return f64_unary(out, [](double v) { return std::floor(v); }, a);
    case Opcode::kTanh:
      return f64_unary(out, [](double v) { return std::tanh(v); }, a);
    case Opcode::kNot:
      return map<std::uint8_t>(out, std::logical_not<>(),
                               view<std::uint8_t>(a));
    case Opcode::kCastF64:
    case Opcode::kCastI64:
      return with_dtype(a.dtype(), [&](auto tag) {
        using T = decltype(tag);
        const auto identity = [](T v) { return v; };
        if (in.opcode == Opcode::kCastF64) {
          return map<double>(out, identity, view<T>(a));
        }
        map<std::int64_t>(out, identity, view<T>(a));
      });
    default:
      throw std::logic_error("eval: unexpected unary opcode");
  }
}

void eval_binary(const HloInstruction& in, const Literal& a, const Literal& b,
                 Literal& out) {
  switch (in.opcode) {
    case Opcode::kAdd:
      return numeric(out, std::plus<>(), a, b);
    case Opcode::kSub:
      return numeric(out, std::minus<>(), a, b);
    case Opcode::kMul:
      return numeric(out, std::multiplies<>(), a, b);
    case Opcode::kDiv:
      return numeric(out, Div{}, a, b);
    case Opcode::kMin:
      return numeric(out, [](auto x, auto y) { return std::min(x, y); }, a, b);
    case Opcode::kMax:
      return numeric(out, [](auto x, auto y) { return std::max(x, y); }, a, b);
    case Opcode::kAtan2:
      return map<double>(out,
                         [](double y, double x) { return std::atan2(y, x); },
                         view<double>(a), view<double>(b));
    case Opcode::kMod:
      return numeric(out, Mod{}, a, b);
    case Opcode::kAnd:
      return bits(out, std::logical_and<>(), std::bit_and<>(), a, b);
    case Opcode::kOr:
      return bits(out, std::logical_or<>(), std::bit_or<>(), a, b);
    case Opcode::kXor:
      return bits(out, std::not_equal_to<>(), std::bit_xor<>(), a, b);
    case Opcode::kShl:
      return map<std::int64_t>(out, IntShl{}, view<std::int64_t>(a),
                               view<std::int64_t>(b));
    case Opcode::kShr:
      return map<std::int64_t>(out, IntShr{}, view<std::int64_t>(a),
                               view<std::int64_t>(b));
    case Opcode::kLt:
      return compare(out, std::less<>(), a, b);
    case Opcode::kLe:
      return compare(out, std::less_equal<>(), a, b);
    case Opcode::kGt:
      return compare(out, std::greater<>(), a, b);
    case Opcode::kGe:
      return compare(out, std::greater_equal<>(), a, b);
    case Opcode::kEq:
      return compare(out, std::equal_to<>(), a, b);
    case Opcode::kNe:
      return compare(out, std::not_equal_to<>(), a, b);
    default:
      throw std::logic_error("eval: unexpected binary opcode");
  }
}

/// Full reduction (ReduceSum axis -1 or ReduceMax) to a scalar.
template <typename T, typename F>
void reduce_all(const Literal& a, T init, F f, Literal& out) {
  T acc = init;
  for (const T v : elems<T>(a)) acc = f(acc, v);
  out_data<T>(out)[0] = acc;
}

/// Row sums of a rank-2 operand.  A row is summed, in column order, by
/// the range that holds its first element.
template <typename T>
void reduce_rows(const Literal& a, Literal& out) {
  const std::int64_t rows = a.shape().dim(0);
  const std::int64_t cols = a.shape().dim(1);
  const T* src = elems<T>(a).data();
  T* o = out_data<T>(out);
  if (cols == 0) {
    std::fill_n(o, rows, T{0});
    return;
  }
  chunks(rows * cols, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t r = (b + cols - 1) / cols; r * cols < e; ++r) {
      const T* row = src + r * cols;
      T s = 0;
      for (std::int64_t c = 0; c < cols; ++c) s += row[c];
      o[r] = s;
    }
  });
}

/// o[i] = table[clamp(idx[i], 0, t - 1)] for i in [b, e); `o` may be
/// `idx`.
template <typename T>
void gather_range(T* o, const std::int64_t* idx, const T* table,
                  std::int64_t t, std::int64_t b, std::int64_t e) {
  for (std::int64_t i = b; i < e; ++i) {
    // JAX clamps out-of-range gather indices.
    o[i] = table[std::clamp<std::int64_t>(idx[i], 0, t - 1)];
  }
}

template <typename T>
void scatter(const HloInstruction& in, Literal& out, const Literal& indices,
             const Literal& updates) {
  T* o = out_data<T>(out);
  const auto idx = elems<std::int64_t>(indices);
  const T* upd = elems<T>(updates).data();
  const std::int64_t n = static_cast<std::int64_t>(idx.size());
  const std::int64_t t = out.num_elements();
  // JAX drops out-of-range scatters.
  if (in.opcode == Opcode::kScatterSet) {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t j = idx[static_cast<std::size_t>(i)];
      if (j >= 0 && j < t) o[j] = upd[i];
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t j = idx[static_cast<std::size_t>(i)];
      if (j >= 0 && j < t) o[j] += upd[i];
    }
  }
}

}  // namespace

void scatter_into(const HloInstruction& in, Literal& base,
                  const Literal& indices, const Literal& updates) {
  if (in.dtype == DType::kF64) {
    scatter<double>(in, base, indices, updates);
  } else {
    scatter<std::int64_t>(in, base, indices, updates);
  }
}

void evaluate_instruction(const HloInstruction& in,
                          const std::vector<const Literal*>& ops,
                          Literal& out) {
  switch (in.opcode) {
    case Opcode::kParam:
      throw std::logic_error("eval: params are substituted by the executor");
    case Opcode::kConstant:
      out = *in.literal;
      return;
    case Opcode::kIota: {
      std::int64_t* o = out.i64().data();
      return chunks(in.i0, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) o[i] = i;
      });
    }
    case Opcode::kSelect:
      return with_dtype(in.dtype, [&](auto tag) {
        using T = decltype(tag);
        map<T>(
            out, [](std::uint8_t p, T t, T f) { return p ? t : f; },
            view<std::uint8_t>(*ops[0]), view<T>(*ops[1]), view<T>(*ops[2]));
      });
    case Opcode::kClamp:
      return numeric(
          out, [](auto v, auto lo, auto hi) { return std::clamp(v, lo, hi); },
          *ops[0], *ops[1], *ops[2]);
    case Opcode::kReshape:
    case Opcode::kScatterAdd:
    case Opcode::kScatterSet:
      with_dtype(in.dtype, [&](auto tag) {
        using T = decltype(tag);
        const T* src = elems<T>(*ops[0]).data();
        T* o = out_data<T>(out);
        chunks(out.num_elements(), [&](std::int64_t b, std::int64_t e) {
          std::copy(src + b, src + e, o + b);
        });
      });
      if (in.opcode != Opcode::kReshape) {
        scatter_into(in, out, *ops[1], *ops[2]);
      }
      return;
    case Opcode::kBroadcastCol:
    case Opcode::kBroadcastRow:
      return with_dtype(in.dtype, [&](auto tag) {
        using T = decltype(tag);
        const std::int64_t rows = in.shape.dim(0);
        const std::int64_t cols = in.shape.dim(1);
        const T* a = elems<T>(*ops[0]).data();
        T* o = out_data<T>(out);
        const bool col = in.opcode == Opcode::kBroadcastCol;
        chunks(rows * cols, [&](std::int64_t b, std::int64_t e) {
          // The part of each row that falls in [b, e).
          for (std::int64_t i = b; i < e;) {
            const std::int64_t r = i / cols;
            const std::int64_t c0 = i - r * cols;
            const std::int64_t len = std::min(cols - c0, e - i);
            if (col) {
              std::fill_n(o + i, len, a[r]);
            } else {
              std::copy_n(a + c0, len, o + i);
            }
            i += len;
          }
        });
      });
    case Opcode::kSliceCol:
      return with_dtype(in.dtype, [&](auto tag) {
        using T = decltype(tag);
        const std::int64_t rows = in.shape.dim(0);
        const std::int64_t cols = ops[0]->shape().dim(1);
        const std::int64_t c = in.i0;
        const T* a = elems<T>(*ops[0]).data();
        T* o = out_data<T>(out);
        chunks(rows, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t r = b; r < e; ++r) o[r] = a[r * cols + c];
        });
      });
    case Opcode::kGather:
      return with_dtype(in.dtype, [&](auto tag) {
        using T = decltype(tag);
        const auto table = elems<T>(*ops[0]);
        const std::int64_t t = static_cast<std::int64_t>(table.size());
        const std::int64_t* idx = elems<std::int64_t>(*ops[1]).data();
        T* o = out_data<T>(out);
        chunks(out.num_elements(), [&](std::int64_t b, std::int64_t e) {
          gather_range(o, idx, table.data(), t, b, e);
        });
      });
    case Opcode::kReduceSum:
      if (in.i0 == -1) {
        return in.dtype == DType::kF64
                   ? reduce_all(*ops[0], 0.0, std::plus<>(), out)
                   : reduce_all(*ops[0], std::int64_t{0}, std::plus<>(), out);
      }
      // axis = 1 on rank 2.
      return in.dtype == DType::kF64 ? reduce_rows<double>(*ops[0], out)
                                     : reduce_rows<std::int64_t>(*ops[0], out);
    case Opcode::kReduceMax: {
      const auto max = [](auto m, auto v) { return std::max(m, v); };
      return in.dtype == DType::kF64
                 ? reduce_all(*ops[0],
                              -std::numeric_limits<double>::infinity(), max,
                              out)
                 : reduce_all(*ops[0],
                              std::numeric_limits<std::int64_t>::min(), max,
                              out);
    }
    case Opcode::kDot: {
      const auto a = elems<double>(*ops[0]);
      const double* b = elems<double>(*ops[1]).data();
      double s = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
      out.f64()[0] = s;
      return;
    }
    default:
      break;
  }
  if (in.operands.size() == 1) {
    return eval_unary(in, *ops[0], out);
  }
  if (in.operands.size() == 2) {
    return eval_binary(in, *ops[0], *ops[1], out);
  }
  throw std::logic_error("eval: unhandled instruction");
}

}  // namespace toast::xla
