// Tests for the mini-XLA: tracing, op semantics through jit, optimization
// passes, fusion grouping and the execution cost model.

#include "xla/jit.hpp"
#include "xla/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "accel/host_threads.hpp"
#include "accel/work.hpp"
#include "xla/eval.hpp"

namespace xla = toast::xla;
namespace accel = toast::accel;
using xla::Array;
using xla::DType;
using xla::Literal;
using xla::Shape;

namespace {

struct Fixture {
  accel::SimDevice device;
  accel::VirtualClock clock;
  toast::obs::Tracer tracer{&clock};
  xla::Runtime rt{device, clock, tracer};
};

Literal vec(std::initializer_list<double> values) {
  std::vector<double> v(values);
  return Literal::from_f64(Shape{static_cast<std::int64_t>(v.size())}, v);
}

Literal ivec(std::initializer_list<std::int64_t> values) {
  std::vector<std::int64_t> v(values);
  return Literal::from_i64(Shape{static_cast<std::int64_t>(v.size())}, v);
}

}  // namespace

TEST(XlaTrace, OpsOutsideJitThrow) {
  EXPECT_THROW(xla::constant(1.0), std::logic_error);
}

TEST(XlaJit, BasicArithmetic) {
  Fixture f;
  xla::Jit fn("axpy", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 2.0 + in[1]};
  });
  const auto out = fn.call(f.rt, {vec({1.0, 2.0, 3.0}), vec({10.0, 20.0, 30.0})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 12.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 24.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 36.0);
}

TEST(XlaJit, TranscendentalOps) {
  Fixture f;
  xla::Jit fn("trig", [](const std::vector<Array>& in) {
    const Array s = xla::sin(in[0]);
    const Array c = xla::cos(in[0]);
    return std::vector<Array>{s * s + c * c, xla::atan2(s, c)};
  });
  const auto out = fn.call(f.rt, {vec({0.3, 1.2, -2.0})});
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(out[0].f64()[i], 1.0, 1e-15);
  }
  EXPECT_NEAR(out[1].f64()[0], 0.3, 1e-12);
  EXPECT_NEAR(out[1].f64()[2], -2.0, 1e-12);
}

TEST(XlaJit, SelectComparison) {
  Fixture f;
  xla::Jit fn("relu", [](const std::vector<Array>& in) {
    return std::vector<Array>{
        xla::select(xla::gt(in[0], xla::constant(0.0)), in[0],
                    xla::constant(0.0))};
  });
  const auto out = fn.call(f.rt, {vec({-1.0, 2.0, -3.0, 4.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 0.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 2.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[3], 4.0);
}

TEST(XlaJit, IntegerBitOps) {
  Fixture f;
  xla::Jit fn("bits", [](const std::vector<Array>& in) {
    const Array two = xla::constant_i64(2);
    return std::vector<Array>{
        xla::bitwise_or(xla::shift_left(in[0], two), xla::constant_i64(1)),
        xla::bitwise_and(in[0], xla::constant_i64(3))};
  });
  const auto out = fn.call(f.rt, {ivec({1, 2, 7})});
  EXPECT_EQ(out[0].i64()[0], 5);
  EXPECT_EQ(out[0].i64()[2], 29);
  EXPECT_EQ(out[1].i64()[2], 3);
}

TEST(XlaJit, CastAndFloor) {
  Fixture f;
  xla::Jit fn("cast", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::to_i64(xla::floor(in[0])),
                              xla::to_f64(xla::to_i64(xla::floor(in[0])))};
  });
  const auto out = fn.call(f.rt, {vec({1.7, -0.2, 3.0})});
  EXPECT_EQ(out[0].i64()[0], 1);
  EXPECT_EQ(out[0].i64()[1], -1);
  EXPECT_EQ(out[0].i64()[2], 3);
  EXPECT_DOUBLE_EQ(out[1].f64()[1], -1.0);
}

TEST(XlaJit, BroadcastAndSlice) {
  Fixture f;
  xla::Jit fn("bc", [](const std::vector<Array>& in) {
    const Array m = xla::broadcast_col(in[0], 3);   // [2,3]
    const Array r = xla::broadcast_row(in[1], 2);   // [2,3]
    const Array sum = m + r;
    return std::vector<Array>{xla::slice_col(sum, 0),
                              xla::reduce_sum(sum, 1)};
  });
  const auto out =
      fn.call(f.rt, {vec({10.0, 20.0}), vec({1.0, 2.0, 3.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 11.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 21.0);
  EXPECT_DOUBLE_EQ(out[1].f64()[0], 36.0);  // 11+12+13
  EXPECT_DOUBLE_EQ(out[1].f64()[1], 66.0);  // 21+22+23
}

TEST(XlaJit, GatherClampsOutOfRange) {
  Fixture f;
  xla::Jit fn("g", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::gather(in[0], in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({10.0, 20.0, 30.0}), ivec({0, 2, 5, -3})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 10.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 30.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 30.0);  // clamped high
  EXPECT_DOUBLE_EQ(out[0].f64()[3], 10.0);  // clamped low
}

TEST(XlaJit, ScatterAddDropsOutOfRange) {
  Fixture f;
  xla::Jit fn("s", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  const auto out = fn.call(
      f.rt, {vec({0.0, 0.0, 0.0}), ivec({0, 1, 1, 7}), vec({1.0, 2.0, 3.0, 99.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 1.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 5.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 0.0);
}

TEST(XlaJit, IotaAndReduce) {
  Fixture f;
  xla::Jit fn("i", [](const std::vector<Array>&) {
    const Array idx = xla::iota(10);
    return std::vector<Array>{xla::reduce_sum(xla::to_f64(idx))};
  });
  const auto out = fn.call(f.rt, {});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 45.0);
}

TEST(XlaJit, DotMatchesManualSum) {
  Fixture f;
  xla::Jit fn("d", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::dot(in[0], in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({1.0, 2.0, 3.0}), vec({4.0, 5.0, 6.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 32.0);
}

TEST(XlaJit, CacheHitsPerSignature) {
  Fixture f;
  xla::Jit fn("c", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({1.0, 2.0})});
  EXPECT_EQ(fn.cache_size(), 1u);
  fn.call(f.rt, {vec({3.0, 4.0})});  // same shape: cache hit
  EXPECT_EQ(fn.cache_size(), 1u);
  fn.call(f.rt, {vec({1.0, 2.0, 3.0})});  // new shape: retrace
  EXPECT_EQ(fn.cache_size(), 2u);
  fn.call(f.rt, {vec({1.0, 2.0})}, "pad=7");  // static arg: retrace
  EXPECT_EQ(fn.cache_size(), 3u);
}

TEST(XlaJit, CompileChargedOncePerSignature) {
  Fixture f;
  xla::Jit fn("c", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 3.0};
  });
  fn.call(f.rt, {vec({1.0})});
  const double t_compile = f.tracer.seconds("jit_compile");
  EXPECT_GT(t_compile, 0.0);
  fn.call(f.rt, {vec({2.0})});
  EXPECT_DOUBLE_EQ(f.tracer.seconds("jit_compile"), t_compile);
  EXPECT_EQ(f.tracer.calls("c"), 2);
}

TEST(XlaJit, ArgumentValidation) {
  Fixture f;
  // Too few arguments: the traced body touches a parameter that does not
  // exist, which surfaces as a trace-time error (like JAX's arity errors).
  xla::Jit fn("v", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + in.at(1)};
  });
  EXPECT_THROW(fn.call(f.rt, {vec({1.0})}), std::exception);
  // Wrong shape on a later call against a cached signature is fine (it
  // retraces); wrong shape against the *module* is caught by execute().
  xla::Jit ok("ok", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  const auto out = ok.call(f.rt, {vec({1.0, 2.0})});
  EXPECT_EQ(out[0].num_elements(), 2);
}

TEST(XlaPasses, ConstantFolding) {
  Fixture f;
  xla::Jit fn("fold", [](const std::vector<Array>& in) {
    // 2*3+4 should fold to a single constant.
    const Array c = xla::constant(2.0) * xla::constant(3.0) + xla::constant(4.0);
    return std::vector<Array>{in[0] + c};
  });
  fn.call(f.rt, {vec({1.0})});
  const auto* compiled = fn.lookup({vec({1.0})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.folded, 2);
}

TEST(XlaPasses, CseMergesDuplicates) {
  Fixture f;
  xla::Jit fn("cse", [](const std::vector<Array>& in) {
    const Array a = xla::sin(in[0]);
    const Array b = xla::sin(in[0]);  // duplicate
    return std::vector<Array>{a + b};
  });
  fn.call(f.rt, {vec({0.5})});
  const auto* compiled = fn.lookup({vec({0.5})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.cse_removed, 1);
}

TEST(XlaPasses, DceRemovesUnusedWork) {
  Fixture f;
  xla::Jit fn("dce", [](const std::vector<Array>& in) {
    [[maybe_unused]] const Array dead = xla::exp(in[0]) * 7.0;
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({0.5})});
  const auto* compiled = fn.lookup({vec({0.5})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.dce_removed, 2);
}

TEST(XlaPasses, DotPatternRecognized) {
  Fixture f;
  xla::Jit fn("proj", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::reduce_sum(in[0] * in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({1.0, 2.0}), vec({3.0, 4.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 11.0);
  const auto* compiled = fn.lookup({vec({1.0, 2.0}), vec({3.0, 4.0})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->pass_stats.dot_rewrites, 1);
}

TEST(XlaFusion, ElementwiseChainIsOneLaunch) {
  Fixture f;
  xla::Jit fn("chain", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(xla::abs(in[0] * 2.0 + 1.0))};
  });
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0, 3.0, 4.0})}, "", report);
  int launches = 0;
  for (const auto& w : report.group_work) {
    if (w.launches > 0.0) ++launches;
  }
  EXPECT_EQ(launches, 1);
}

TEST(XlaFusion, HeavyOpsSplitLaunches) {
  Fixture f;
  // Gathers input-fuse; reduce/scatter close groups.
  xla::Jit fn("split", [](const std::vector<Array>& in) {
    const Array g = xla::gather(in[0], in[1]);      // fuses with consumers
    const Array e = g * 2.0 + 1.0;
    const Array r = xla::reduce_sum(e);             // closes launch 1
    return std::vector<Array>{r + 1.0};             // launch 2
  });
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0, 3.0}), ivec({0, 1, 2, 1})}, "",
                   report);
  int launches = 0;
  for (const auto& w : report.group_work) {
    if (w.launches > 0.0) ++launches;
  }
  EXPECT_EQ(launches, 2);
}

TEST(XlaFusion, FusionElidesIntermediateTraffic) {
  Fixture f;
  // One fused chain writes only the final output; the same chain split by
  // a reduce in the middle writes the intermediate too.
  xla::Jit fused("fused", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 2.0 + 3.0};
  });
  xla::ExecutionReport report;
  fused.call_reported(f.rt, {vec({1.0, 2.0, 3.0, 4.0})}, "", report);
  // Read one input vector (4 doubles = 32 B, constants are scalars),
  // write one output vector.
  EXPECT_DOUBLE_EQ(report.total.bytes_written, 32.0);
  EXPECT_LE(report.total.bytes_read, 32.0 + 16.0);
}

TEST(XlaScatter, SortedIndicesUseSegmentLowering) {
  Fixture f;
  xla::Jit fn("seg", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  xla::ExecutionReport report;
  fn.call_reported(
      f.rt,
      {vec({0.0, 0.0}), ivec({0, 0, 1, 1}), vec({1.0, 1.0, 1.0, 1.0})}, "",
      report);
  EXPECT_TRUE(report.segment_lowering_used);
  EXPECT_DOUBLE_EQ(report.total.atomic_ops, 0.0);
}

TEST(XlaScatter, UnsortedIndicesPayAtomics) {
  Fixture f;
  xla::Jit fn("atom", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  xla::ExecutionReport report;
  fn.call_reported(
      f.rt,
      {vec({0.0, 0.0}), ivec({1, 0, 1, 0}), vec({1.0, 1.0, 1.0, 1.0})}, "",
      report);
  EXPECT_FALSE(report.segment_lowering_used);
  EXPECT_DOUBLE_EQ(report.total.atomic_ops, 4.0);
  EXPECT_NEAR(report.total.atomic_conflict_rate, 0.5, 1e-12);
}

TEST(XlaRuntime, PreallocationClaimsDeviceMemory) {
  Fixture f;
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
  f.rt.enable_preallocation(0.5);
  EXPECT_GT(f.device.allocated_bytes(),
            static_cast<std::size_t>(0.4 * f.device.spec().memory_bytes));
  f.rt.disable_preallocation();
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
}

TEST(XlaRuntime, PreallocationPoolCoversTemporaries) {
  Fixture f;
  f.rt.enable_preallocation(0.75);
  const std::size_t claimed = f.device.allocated_bytes();
  EXPECT_EQ(claimed, f.rt.pool_bytes());
  // Enabling twice is a no-op, not a second claim.
  f.rt.enable_preallocation(0.75);
  EXPECT_EQ(f.device.allocated_bytes(), claimed);
  // With the pool claimed, call temporaries come out of it: the device
  // allocator balance must not move.
  xla::Jit fn("pool", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(in[0] * 2.0 + 1.0)};
  });
  fn.call(f.rt, {vec({1.0, 2.0, 3.0, 4.0})});
  EXPECT_EQ(f.device.allocated_bytes(), claimed);
  f.rt.disable_preallocation();
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
  EXPECT_EQ(f.rt.pool_bytes(), 0u);
}

namespace {

/// Two independent reduce chains: four fusion groups, two dependency
/// edges, no edge between the chains.
xla::Jit independent_chains() {
  return xla::Jit("chains", [](const std::vector<Array>& in) {
    const Array r0 = xla::reduce_sum(in[0] * 2.0);
    const Array r1 = xla::reduce_sum(in[1] * 3.0);
    return std::vector<Array>{r0 + 1.0, r1 + 1.0};
  });
}

}  // namespace

TEST(XlaStreams, GroupDepsExposeTheFusionDag) {
  Fixture f;
  xla::Jit fn = independent_chains();
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0}), vec({3.0, 4.0})}, "", report);
  ASSERT_EQ(report.group_deps.size(), report.group_work.size());
  // The two reduce chains read only parameters (independent roots); the
  // fused +1.0 epilogue group reads both of their results.  Edges point
  // backwards, sorted and deduplicated.
  std::vector<int> roots;
  std::vector<int> dependents;
  for (std::size_t g = 0; g < report.group_deps.size(); ++g) {
    if (report.group_work[g].launches <= 0.0) {
      continue;
    }
    const auto& deps = report.group_deps[g];
    EXPECT_TRUE(std::is_sorted(deps.begin(), deps.end()));
    for (const int d : deps) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, static_cast<int>(g));
    }
    (deps.empty() ? roots : dependents).push_back(static_cast<int>(g));
  }
  EXPECT_EQ(roots.size(), 2u);
  ASSERT_EQ(dependents.size(), 1u);
  EXPECT_EQ(report.group_deps[static_cast<std::size_t>(dependents[0])],
            roots);
}

TEST(XlaStreams, OneStreamIsDeterministicAndMultiStreamNeverSlower) {
  // Elapsed time of a cached call (compile charged on the first one).
  const auto elapsed = [](int streams) {
    Fixture f;
    f.rt.set_streams(streams);
    xla::Jit fn = independent_chains();
    const std::vector<Literal> args = {vec({1.0, 2.0}), vec({3.0, 4.0})};
    fn.call(f.rt, args);
    const double t0 = f.clock.now();
    fn.call(f.rt, args);
    return f.clock.now() - t0;
  };
  const double serial = elapsed(1);
  // 1-stream runs are bit-for-bit repeatable (the seed timeline).
  EXPECT_EQ(serial, elapsed(1));
  // Independent chains on two streams pipeline their launch latency.
  const double overlapped = elapsed(2);
  EXPECT_LT(overlapped, serial);
  // More streams than independent work: no further change, never slower.
  EXPECT_LE(elapsed(4), serial);
}

TEST(XlaStreams, StreamCountIsClampedToOne) {
  Fixture f;
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(0);
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(-3);
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(4);
  EXPECT_EQ(f.rt.streams(), 4);
}

TEST(XlaRuntime, DispatchOverheadCharged) {
  Fixture f;
  xla::Jit fn("o", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({1.0})});
  const double after_compile = f.tracer.seconds("o");
  EXPECT_GE(after_compile, f.rt.dispatch_overhead());
}

TEST(XlaRuntime, WorkScaleScalesKernelTime) {
  Fixture a;
  Fixture b;
  b.rt.set_work_scale(1e6);
  xla::Jit fn("w", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(in[0]) * 2.0};
  });
  std::vector<double> big(4096, 2.0);
  const Literal arg = Literal::from_f64(Shape{4096}, big);
  fn.call(a.rt, {arg});
  fn.call(b.rt, {arg});
  EXPECT_GT(b.tracer.seconds("w"), a.tracer.seconds("w"));
}

TEST(XlaLiteral, TypedAccessAndValidation) {
  const Literal l = vec({1.0, 2.0});
  EXPECT_EQ(l.byte_size(), 16u);
  EXPECT_DOUBLE_EQ(l.as_double(1), 2.0);
  EXPECT_THROW(Literal::from_f64(Shape{3}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(Shape({1, 2, 3}), std::invalid_argument);
}

TEST(XlaLiteral, BorrowedCopiesAreOwnedAndMovesStayBorrowed) {
  std::vector<double> memory = {1.0, 2.0, 3.0};
  const Literal view = Literal::borrow(Shape{3}, std::as_const(memory));
  EXPECT_TRUE(view.borrowed());
  EXPECT_FALSE(view.writable());
  EXPECT_EQ(view.data(), memory.data());
  Literal read_only = view;
  EXPECT_FALSE(read_only.borrowed());
  EXPECT_NE(read_only.data(), memory.data());
  memory[0] = 7.0;
  EXPECT_EQ(read_only.f64()[0], 1.0);
  EXPECT_EQ(view.f64()[0], 7.0);
  Literal unwritable = Literal::borrow(Shape{3}, std::as_const(memory));
  EXPECT_THROW(unwritable.f64(), std::logic_error);

  Literal donated = Literal::borrow_writable(Shape{3}, std::span(memory));
  Literal moved = std::move(donated);
  EXPECT_TRUE(moved.borrowed());
  EXPECT_TRUE(moved.writable());
  EXPECT_EQ(moved.data(), memory.data());
  moved.f64()[1] = 5.0;
  EXPECT_EQ(memory[1], 5.0);
  EXPECT_THROW(Literal::borrow(Shape{2}, std::as_const(memory)),
               std::invalid_argument);

  xla::BufferPool pool;
  pool.give(std::move(moved));
  pool.give(Literal::borrow(Shape{3}, std::as_const(memory)));
  EXPECT_EQ(pool.buffers(), 0u);
}

TEST(XlaEval, ParamOnlyAndConstantOnlyRoots) {
  // Roots that are leaves (a parameter, a folded constant) are forwarded
  // from the arguments and the module's literals, never computed.
  Fixture f;
  xla::Jit fn("leaves", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0], xla::constant(2.0) * xla::constant(3.0),
                              in[0]};
  });
  const std::vector<Literal> args = {vec({1.0, 2.0, 3.0})};
  const auto out = fn.call(f.rt, args);
  ASSERT_EQ(out.size(), 3u);
  for (const std::size_t k : {0u, 2u}) {
    EXPECT_EQ(std::vector<double>(out[k].f64().begin(), out[k].f64().end()),
              (std::vector<double>{1.0, 2.0, 3.0}))
        << "root " << k;
  }
  EXPECT_EQ(out[1].num_elements(), 1);
  EXPECT_EQ(out[1].f64()[0], 6.0);
}

// ---------------------------------------------------------------------------
// Element loops of the executor against a naive per-element reference
// written here, independent of eval.cpp.
// ---------------------------------------------------------------------------

namespace {

using I64 = std::int64_t;
using Op = xla::Opcode;

constexpr I64 kI64Min = std::numeric_limits<I64>::min();

Literal pvec(std::initializer_list<int> values) {
  Literal l(Shape{static_cast<std::int64_t>(values.size())}, DType::kPred);
  std::size_t k = 0;
  for (const int v : values) l.pred()[k++] = static_cast<std::uint8_t>(v);
  return l;
}

/// The first element of `l` as a rank-0 literal.
Literal scalar_of(const Literal& l) {
  switch (l.dtype()) {
    case DType::kF64:
      return Literal::scalar_f64(l.f64()[0]);
    case DType::kI64:
      return Literal::scalar_i64(l.i64()[0]);
    case DType::kPred:
      break;
  }
  return Literal::scalar_pred(l.pred()[0] != 0);
}

/// Element k of an operand; a size-1 operand repeats its value.
template <typename T>
T elem(const Literal& l, std::size_t k) {
  const std::size_t i = l.num_elements() == 1 ? 0 : k;
  if constexpr (std::is_same_v<T, double>) {
    return l.f64()[i];
  } else if constexpr (std::is_same_v<T, I64>) {
    return l.i64()[i];
  } else {
    return l.pred()[i];
  }
}

/// Values k * 1.5 - 4 (f64), 3k - 7 (i64) or k % 3 == 0 (pred).
Literal ramp(DType d, Shape s) {
  Literal l(s, d);
  for (std::int64_t k = 0; k < l.num_elements(); ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (d == DType::kF64) l.f64()[i] = static_cast<double>(k) * 1.5 - 4.0;
    if (d == DType::kI64) l.i64()[i] = 3 * k - 7;
    if (d == DType::kPred) l.pred()[i] = k % 3 == 0 ? 1 : 0;
  }
  return l;
}

/// A module of one `op` instruction over one parameter per argument.
xla::Compiled one_op(Op op, DType dtype, const Shape& shape,
                     const std::vector<Literal>& args, std::int64_t i0 = 0) {
  xla::HloModule m;
  m.name = "one_op";
  std::vector<xla::InstrId> operands;
  for (std::size_t p = 0; p < args.size(); ++p) {
    xla::HloInstruction param;
    param.opcode = Op::kParam;
    param.dtype = args[p].dtype();
    param.shape = args[p].shape();
    param.i0 = static_cast<std::int64_t>(p);
    m.instructions.push_back(param);
    m.params.push_back(static_cast<xla::InstrId>(p));
    operands.push_back(static_cast<xla::InstrId>(p));
  }
  xla::HloInstruction in;
  in.opcode = op;
  in.dtype = dtype;
  in.shape = shape;
  in.operands = operands;
  in.i0 = i0;
  m.instructions.push_back(in);
  m.roots = {static_cast<xla::InstrId>(args.size())};
  return xla::compile(std::move(m));
}

/// Every output element of the executor equals static_cast<T>(ref(k)).
template <typename T, typename Ref>
void expect_matches(const xla::Compiled& c, const std::vector<Literal>& args,
                    Ref ref, const std::string& what) {
  const Shape& shape = c.module.at(c.module.roots[0]).shape;
  xla::BufferPool pool;
  const auto out = xla::execute(c, args, pool);
  ASSERT_EQ(out[0].shape(), shape) << what;
  for (std::int64_t k = 0; k < out[0].num_elements(); ++k) {
    const auto i = static_cast<std::size_t>(k);
    EXPECT_EQ(elem<T>(out[0], i), static_cast<T>(ref(i)))
        << what << " element " << k;
  }
}

/// full∘full, scalar∘full and full∘scalar operands of a binary op.
std::vector<std::vector<Literal>> broadcast_positions(const Literal& a,
                                                      const Literal& b) {
  return {{a, b}, {scalar_of(a), b}, {a, scalar_of(b)}};
}

/// Field-by-field equality of two ExecutionReports, per group and total.
void expect_report_equal(const xla::ExecutionReport& a,
                         const xla::ExecutionReport& b) {
  EXPECT_EQ(a.peak_temp_bytes, b.peak_temp_bytes);
  EXPECT_EQ(a.segment_lowering_used, b.segment_lowering_used);
  EXPECT_EQ(a.group_heavy, b.group_heavy);
  EXPECT_EQ(a.group_deps, b.group_deps);
  ASSERT_EQ(a.group_work.size(), b.group_work.size());
  const auto expect_work_equal = [](const accel::WorkEstimate& x,
                                    const accel::WorkEstimate& y) {
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.bytes_read, y.bytes_read);
    EXPECT_EQ(x.bytes_written, y.bytes_written);
    EXPECT_EQ(x.launches, y.launches);
    EXPECT_EQ(x.parallel_items, y.parallel_items);
    EXPECT_EQ(x.divergence, y.divergence);
    EXPECT_EQ(x.atomic_ops, y.atomic_ops);
    EXPECT_EQ(x.atomic_conflict_rate, y.atomic_conflict_rate);
    EXPECT_EQ(x.cpu_vector_eff, y.cpu_vector_eff);
  };
  for (std::size_t g = 0; g < a.group_work.size(); ++g) {
    expect_work_equal(a.group_work[g], b.group_work[g]);
  }
  expect_work_equal(a.total, b.total);
}

std::string name_of(Op op, DType d, std::size_t position) {
  return std::string(xla::to_string(op)) + "/" + xla::to_string(d) + "/" +
         std::to_string(position);
}

const Literal kF64A = vec({0.5, -1.25, 3.0, -7.5, 2.0, 4.0});
const Literal kF64B = vec({2.0, 0.75, -3.0, 4.0, -0.5, 4.0});
const Literal kI64A = ivec({7, -8, 13, 0, -3, 5});
const Literal kI64B = ivec({2, -3, 5, 7, 4, 5});
const Literal kShifts = ivec({1, 0, 5, 63, 4, 2});
const Literal kPredA = pvec({1, 0, 1, 0, 1, 1});
const Literal kPredB = pvec({1, 1, 0, 0, 1, 0});

template <typename T>
bool ref_compare(Op op, T x, T y) {
  switch (op) {
    case Op::kLt:
      return x < y;
    case Op::kLe:
      return x <= y;
    case Op::kGt:
      return x > y;
    case Op::kGe:
      return x >= y;
    case Op::kEq:
      return x == y;
    default:
      return x != y;
  }
}

bool is_compare(Op op) {
  return op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe ||
         op == Op::kEq || op == Op::kNe;
}

double ref_f64(Op op, double x, double y) {
  switch (op) {
    case Op::kAdd:
      return x + y;
    case Op::kSub:
      return x - y;
    case Op::kMul:
      return x * y;
    case Op::kDiv:
      return x / y;
    case Op::kMin:
      return std::min(x, y);
    case Op::kMax:
      return std::max(x, y);
    case Op::kAtan2:
      return std::atan2(x, y);
    default:
      return std::fmod(x, y);
  }
}

I64 ref_i64(Op op, I64 x, I64 y) {
  const auto ux = static_cast<std::uint64_t>(x);
  switch (op) {
    case Op::kAdd:
      return x + y;
    case Op::kSub:
      return x - y;
    case Op::kMul:
      return x * y;
    case Op::kDiv:
      return x / y;
    case Op::kMin:
      return std::min(x, y);
    case Op::kMax:
      return std::max(x, y);
    case Op::kMod:
      return x % y;
    case Op::kAnd:
      return x & y;
    case Op::kOr:
      return x | y;
    case Op::kXor:
      return x ^ y;
    case Op::kShl:
      return static_cast<I64>(ux << y);
    default:
      return static_cast<I64>(ux >> y);
  }
}

}  // namespace

TEST(XlaEval, F64BinaryOpsAtEveryBroadcastPosition) {
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                      Op::kMax, Op::kAtan2, Op::kMod, Op::kLt, Op::kLe,
                      Op::kGt, Op::kGe, Op::kEq, Op::kNe}) {
    const auto positions = broadcast_positions(kF64A, kF64B);
    for (std::size_t pos = 0; pos < positions.size(); ++pos) {
      const auto& args = positions[pos];
      const auto x = [&](std::size_t k) { return elem<double>(args[0], k); };
      const auto y = [&](std::size_t k) { return elem<double>(args[1], k); };
      const auto what = name_of(op, DType::kF64, pos);
      if (is_compare(op)) {
        expect_matches<std::uint8_t>(
            one_op(op, DType::kPred, Shape{6}, args),
            args, [&](std::size_t k) { return ref_compare(op, x(k), y(k)); },
            what);
      } else {
        expect_matches<double>(
            one_op(op, DType::kF64, Shape{6}, args), args,
            [&](std::size_t k) { return ref_f64(op, x(k), y(k)); }, what);
      }
    }
  }
}

TEST(XlaEval, I64BinaryOpsAtEveryBroadcastPosition) {
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                      Op::kMax, Op::kMod, Op::kAnd, Op::kOr, Op::kXor,
                      Op::kShl, Op::kShr, Op::kLt, Op::kLe, Op::kGt, Op::kGe,
                      Op::kEq, Op::kNe}) {
    const bool shift = op == Op::kShl || op == Op::kShr;
    const auto positions =
        broadcast_positions(kI64A, shift ? kShifts : kI64B);
    for (std::size_t pos = 0; pos < positions.size(); ++pos) {
      const auto& args = positions[pos];
      const auto x = [&](std::size_t k) { return elem<I64>(args[0], k); };
      const auto y = [&](std::size_t k) { return elem<I64>(args[1], k); };
      const auto what = name_of(op, DType::kI64, pos);
      if (is_compare(op)) {
        expect_matches<std::uint8_t>(
            one_op(op, DType::kPred, Shape{6}, args),
            args, [&](std::size_t k) { return ref_compare(op, x(k), y(k)); },
            what);
      } else {
        expect_matches<I64>(
            one_op(op, DType::kI64, Shape{6}, args), args,
            [&](std::size_t k) { return ref_i64(op, x(k), y(k)); }, what);
      }
    }
  }
}

TEST(XlaEval, PredLogicalOpsAtEveryBroadcastPosition) {
  for (const Op op : {Op::kAnd, Op::kOr, Op::kXor}) {
    const auto positions = broadcast_positions(kPredA, kPredB);
    for (std::size_t pos = 0; pos < positions.size(); ++pos) {
      const auto& args = positions[pos];
      expect_matches<std::uint8_t>(
          one_op(op, DType::kPred, Shape{6}, args), args,
          [&](std::size_t k) {
            const bool x = elem<std::uint8_t>(args[0], k) != 0;
            const bool y = elem<std::uint8_t>(args[1], k) != 0;
            return op == Op::kAnd ? (x && y) : op == Op::kOr ? (x || y)
                                                             : (x != y);
          },
          name_of(op, DType::kPred, pos));
    }
  }
}

TEST(XlaEval, UnaryOpsOnFullAndScalarOperands) {
  const Literal positive = vec({0.25, 1.5, 2.0, 9.0, 0.5, 4.0});
  const auto check_f64 = [&](Op op, const Literal& input, auto fn) {
    for (const Literal& a : {input, scalar_of(input)}) {
      expect_matches<double>(
          one_op(op, DType::kF64, a.shape(), {a}), {a},
          [&](std::size_t k) { return fn(elem<double>(a, k)); },
          name_of(op, DType::kF64, a.num_elements() == 1 ? 1 : 0));
    }
  };
  check_f64(Op::kNeg, kF64A, [](double v) { return -v; });
  check_f64(Op::kAbs, kF64A, [](double v) { return std::fabs(v); });
  check_f64(Op::kSign, kF64A,
            [](double v) { return v > 0.0 ? 1.0 : v < 0.0 ? -1.0 : 0.0; });
  check_f64(Op::kFloor, kF64A, [](double v) { return std::floor(v); });
  check_f64(Op::kSin, kF64A, [](double v) { return std::sin(v); });
  check_f64(Op::kCos, kF64A, [](double v) { return std::cos(v); });
  check_f64(Op::kTanh, kF64A, [](double v) { return std::tanh(v); });
  check_f64(Op::kExp, kF64A, [](double v) { return std::exp(v); });
  check_f64(Op::kSqrt, positive, [](double v) { return std::sqrt(v); });
  check_f64(Op::kLog, positive, [](double v) { return std::log(v); });

  for (const Literal& a : {kI64A, scalar_of(kI64A)}) {
    const auto x = [&](std::size_t k) { return elem<I64>(a, k); };
    expect_matches<I64>(one_op(Op::kNeg, DType::kI64, a.shape(), {a}), {a},
                        [&](std::size_t k) { return -x(k); }, "neg/i64");
    expect_matches<I64>(
        one_op(Op::kAbs, DType::kI64, a.shape(), {a}), {a},
        [&](std::size_t k) { return x(k) < 0 ? -x(k) : x(k); }, "abs/i64");
    expect_matches<I64>(
        one_op(Op::kSign, DType::kI64, a.shape(), {a}), {a},
        [&](std::size_t k) { return x(k) > 0 ? 1 : x(k) < 0 ? -1 : 0; },
        "sign/i64");
  }
  for (const Literal& a : {kPredA, scalar_of(kPredA)}) {
    expect_matches<std::uint8_t>(
        one_op(Op::kNot, DType::kPred, a.shape(), {a}), {a},
        [&](std::size_t k) { return elem<std::uint8_t>(a, k) == 0; },
        "not/pred");
  }
}

TEST(XlaEval, CastsFromEveryDtype) {
  for (const Literal& a : {kF64A, kI64A, kPredA}) {
    const auto as_f64 = [&](std::size_t k) {
      switch (a.dtype()) {
        case DType::kF64:
          return elem<double>(a, k);
        case DType::kI64:
          return static_cast<double>(elem<I64>(a, k));
        case DType::kPred:
          break;
      }
      return elem<std::uint8_t>(a, k) != 0 ? 1.0 : 0.0;
    };
    const auto as_i64 = [&](std::size_t k) {
      // Truncation toward zero for f64 (-1.25 -> -1, -7.5 -> -7).
      return static_cast<I64>(as_f64(k));
    };
    const std::string from = xla::to_string(a.dtype());
    expect_matches<double>(one_op(Op::kCastF64, DType::kF64, Shape{6}, {a}),
                           {a}, as_f64, "convert.f64 from " + from);
    expect_matches<I64>(one_op(Op::kCastI64, DType::kI64, Shape{6}, {a}),
                        {a}, as_i64, "convert.i64 from " + from);
  }
}

TEST(XlaEval, SelectWithScalarPredicateAndBranches) {
  const std::vector<std::pair<Literal, Literal>> branches = {
      {kF64A, kF64B}, {kI64A, kI64B}, {kPredA, kPredB}};
  for (const auto& [on_true, on_false] : branches) {
    const DType d = on_true.dtype();
    // Bit b of `mask` makes operand b a scalar.
    for (int mask = 0; mask < 8; ++mask) {
      const std::vector<Literal> args = {
          mask & 1 ? scalar_of(kPredA) : kPredA,
          mask & 2 ? scalar_of(on_true) : on_true,
          mask & 4 ? scalar_of(on_false) : on_false};
      const Shape shape = mask == 7 ? Shape{} : Shape{6};
      const auto what = name_of(Op::kSelect, d, static_cast<std::size_t>(mask));
      const auto pick = [&](std::size_t k) {
        return elem<std::uint8_t>(args[0], k) != 0 ? 1 : 2;
      };
      const xla::Compiled c = one_op(Op::kSelect, d, shape, args);
      if (d == DType::kF64) {
        expect_matches<double>(
            c, args,
            [&](std::size_t k) { return elem<double>(args[pick(k)], k); },
            what);
      } else if (d == DType::kI64) {
        expect_matches<I64>(
            c, args, [&](std::size_t k) { return elem<I64>(args[pick(k)], k); },
            what);
      } else {
        expect_matches<std::uint8_t>(
            c, args,
            [&](std::size_t k) {
              return elem<std::uint8_t>(args[pick(k)], k);
            },
            what);
      }
    }
  }
}

TEST(XlaEval, ClampWithScalarBounds) {
  // Every lower bound (full or scalar) is <= every upper bound.
  const std::vector<std::vector<Literal>> operands = {
      {kF64A, vec({-1.0, -2.0, 0.0, -3.0, 1.0, -4.0}),
       vec({2.0, 1.0, 3.0, 1.5, 4.0, 2.0})},
      {kI64A, ivec({-1, -2, 0, -3, 1, -4}), ivec({2, 1, 3, 1, 4, 2})}};
  for (const auto& ops : operands) {
    const DType d = ops[0].dtype();
    for (int mask = 0; mask < 8; ++mask) {
      const std::vector<Literal> args = {
          mask & 1 ? scalar_of(ops[0]) : ops[0],
          mask & 2 ? scalar_of(ops[1]) : ops[1],
          mask & 4 ? scalar_of(ops[2]) : ops[2]};
      const Shape shape = mask == 7 ? Shape{} : Shape{6};
      const auto what = name_of(Op::kClamp, d, static_cast<std::size_t>(mask));
      const xla::Compiled c = one_op(Op::kClamp, d, shape, args);
      const auto clamp = [](auto v, auto lo, auto hi) {
        return v < lo ? lo : hi < v ? hi : v;
      };
      if (d == DType::kF64) {
        expect_matches<double>(
            c, args,
            [&](std::size_t k) {
              return clamp(elem<double>(args[0], k), elem<double>(args[1], k),
                           elem<double>(args[2], k));
            },
            what);
      } else {
        expect_matches<I64>(
            c, args,
            [&](std::size_t k) {
              return clamp(elem<I64>(args[0], k), elem<I64>(args[1], k),
                           elem<I64>(args[2], k));
            },
            what);
      }
    }
  }
}

namespace {

/// Runs `check<T>` with the C++ element type of `d`.
template <typename F>
void for_dtype(DType d, F check) {
  if (d == DType::kF64) check(double{});
  if (d == DType::kI64) check(I64{});
  if (d == DType::kPred) check(std::uint8_t{});
}

}  // namespace

TEST(XlaEval, BroadcastSliceAndGatherForEveryDtype) {
  for (const DType d : {DType::kF64, DType::kI64, DType::kPred}) {
    for_dtype(d, [&](auto tag) {
      using T = decltype(tag);
      const std::string dt = xla::to_string(d);
      const Literal col = ramp(d, Shape{3});
      expect_matches<T>(
          one_op(Op::kBroadcastCol, d, Shape{3, 4}, {col}), {col},
          [&](std::size_t k) { return elem<T>(col, k / 4); },
          "broadcast_col/" + dt);
      const Literal row = ramp(d, Shape{4});
      expect_matches<T>(
          one_op(Op::kBroadcastRow, d, Shape{3, 4}, {row}), {row},
          [&](std::size_t k) { return elem<T>(row, k % 4); },
          "broadcast_row/" + dt);
      const Literal matrix = ramp(d, Shape{3, 4});
      expect_matches<T>(
          one_op(Op::kSliceCol, d, Shape{3}, {matrix}, 2), {matrix},
          [&](std::size_t k) { return elem<T>(matrix, k * 4 + 2); },
          "slice_col/" + dt);
      const Literal table = ramp(d, Shape{5});
      const Literal idx = ivec({4, 0, -2, 7, 2, 2});
      expect_matches<T>(
          one_op(Op::kGather, d, Shape{6}, {table, idx}), {table, idx},
          [&](std::size_t k) {
            const I64 j = std::min<I64>(std::max<I64>(elem<I64>(idx, k), 0), 4);
            return elem<T>(table, static_cast<std::size_t>(j));
          },
          "gather/" + dt);
    });
  }
}

TEST(XlaEval, ScatterForEveryDtype) {
  for (const DType d : {DType::kF64, DType::kI64}) {
    for_dtype(d, [&](auto tag) {
      using T = decltype(tag);
      const Literal base = ramp(d, Shape{5});
      const Literal idx = ivec({4, 0, -2, 7, 2, 2});
      const Literal upd = ramp(d, Shape{6});
      for (const Op op : {Op::kScatterAdd, Op::kScatterSet}) {
        std::vector<T> expected(5);
        for (std::size_t j = 0; j < 5; ++j) expected[j] = elem<T>(base, j);
        for (std::size_t k = 0; k < 6; ++k) {
          const I64 j = elem<I64>(idx, k);
          if (j < 0 || j >= 5) continue;
          auto& slot = expected[static_cast<std::size_t>(j)];
          slot = op == Op::kScatterSet ? elem<T>(upd, k)
                                       : slot + elem<T>(upd, k);
        }
        expect_matches<T>(
            one_op(op, d, Shape{5}, {base, idx, upd}), {base, idx, upd},
            [&](std::size_t k) { return expected[k]; },
            std::string(xla::to_string(op)) + "/" + xla::to_string(d));
      }
    });
  }
}

TEST(XlaEval, ReductionsAndDot) {
  const Literal mf = ramp(DType::kF64, Shape{3, 4});
  const Literal mi = ramp(DType::kI64, Shape{3, 4});
  const auto row_sum = [](const Literal& m, std::size_t r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 4; ++c) s += m.as_double(r * 4 + c);
    return s;
  };
  expect_matches<double>(
      one_op(Op::kReduceSum, DType::kF64, Shape{3}, {mf}, 1), {mf},
      [&](std::size_t r) { return row_sum(mf, r); }, "reduce_sum axis 1/f64");
  expect_matches<I64>(
      one_op(Op::kReduceSum, DType::kI64, Shape{3}, {mi}, 1), {mi},
      [&](std::size_t r) { return row_sum(mi, r); }, "reduce_sum axis 1/i64");
  expect_matches<double>(
      one_op(Op::kReduceSum, DType::kF64, Shape{}, {mf}, -1), {mf},
      [&](std::size_t) { return row_sum(mf, 0) + row_sum(mf, 1) + row_sum(mf, 2); },
      "reduce_sum/f64");
  expect_matches<I64>(one_op(Op::kReduceMax, DType::kI64, Shape{}, {kI64A}),
                      {kI64A}, [](std::size_t) { return 13; },
                      "reduce_max/i64");
  expect_matches<double>(
      one_op(Op::kReduceMax, DType::kF64, Shape{}, {kF64A}), {kF64A},
      [](std::size_t) { return 4.0; }, "reduce_max/f64");
  expect_matches<double>(
      one_op(Op::kDot, DType::kF64, Shape{}, {kF64A, kF64B}), {kF64A, kF64B},
      [](std::size_t) {
        double s = 0.0;
        for (std::size_t k = 0; k < 6; ++k) {
          s += kF64A.f64()[k] * kF64B.f64()[k];
        }
        return s;
      },
      "dot/f64");
}

TEST(XlaEval, ScatterChainsUpdateOwnedBasesOnlyWhenDead) {
  // s1 updates its dead parameter base in place (the call owns its
  // arguments, never the caller's copy) and s2 the dead s1; every other
  // scatter must copy its base: a value read again later (s3, s5), or a
  // base that is also the updates (s5, s6).
  xla::Jit fn("chain", [](const std::vector<Array>& in) {
    const Array s1 = xla::scatter_add(in[0], in[1], in[2]);
    const Array s2 = xla::scatter_set(s1, in[1], in[2]);
    const Array s4 = s2 * 2.0;
    const Array s3 = xla::scatter_add(s4, in[1], in[2]);
    const Array s5 = xla::scatter_add(s4, xla::iota(4), s4);
    const Array s7 = s2 * 3.0;
    const Array s6 = xla::scatter_add(s7, xla::iota(4), s7);
    return std::vector<Array>{s3, s4 + s5, s6};
  });
  const std::vector<Literal> args = {vec({1.0, 2.0, 3.0, 4.0}),
                                     ivec({3, 0, 3, 9}),
                                     vec({10.0, 20.0, 30.0, 40.0})};
  // s1 = {21, 2, 3, 44}; s2 = {20, 2, 3, 30}; s4 = {40, 4, 6, 60};
  // s3 = {60, 4, 6, 100}; s5 = {80, 8, 12, 120}; s7 = {60, 6, 9, 90}.
  const std::vector<std::vector<double>> expected = {
      {60.0, 4.0, 6.0, 100.0}, {120.0, 12.0, 18.0, 180.0},
      {120.0, 12.0, 18.0, 180.0}};
  Fixture f;
  const auto out = fn.call(f.rt, args);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(std::vector<double>(out[k].f64().begin(), out[k].f64().end()),
              expected[k])
        << "root " << k;
  }
  // The caller's base is never written.
  EXPECT_EQ(args[0].f64()[0], 1.0);
}

TEST(XlaEval, ScatterIndexStreamStaysReadableForTheReport) {
  // `idx` is the index stream of the first scatter-add and the base of a
  // later i64 scatter-add that reads it last: it must not be updated in
  // place, since the report reads the first scatter's indices afterwards.
  xla::Jit fn("reuse", [](const std::vector<Array>& in) {
    const Array idx = xla::maximum(in[1], xla::constant_i64(-100));
    const Array s = xla::scatter_add(in[0], idx, in[2]);
    const Array t = xla::scatter_add(idx, in[3], in[3]);
    return std::vector<Array>{s, t};
  });
  const std::vector<Literal> args = {vec({0.0, 0.0, 0.0}), ivec({2, 0, 2, 1}),
                                     vec({1.0, 2.0, 3.0, 4.0}),
                                     ivec({3, 3, 0, 1})};
  Fixture f;
  xla::ExecutionReport report;
  const auto out = fn.call_reported(f.rt, args, "", report);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::vector<double>(out[0].f64().begin(), out[0].f64().end()),
            (std::vector<double>{2.0, 4.0, 4.0}));
  EXPECT_EQ(std::vector<I64>(out[1].i64().begin(), out[1].i64().end()),
            (std::vector<I64>{2, 1, 2, 7}));
  EXPECT_EQ(report.total.atomic_ops, 8.0);
  // The second call reads the cached shape report; the index streams it
  // needs must still be alive then too.
  xla::ExecutionReport again;
  fn.call_reported(f.rt, args, "", again);
  expect_report_equal(report, again);
}

TEST(XlaEval, ScatterConflictRateOverSeveralWarps) {
  // 36 unsorted lanes over an 8-element base: lanes 0-31 hit k % 4 (32
  // valid, 4 distinct: 28 conflicts); lanes 32-35 hit {9, 3, -1, 3} (9 and
  // -1 dropped: 2 valid, 1 conflict).  34 atomics, 29 conflicts.
  std::vector<std::int64_t> idx;
  for (std::int64_t k = 0; k < 32; ++k) idx.push_back(k % 4);
  for (const std::int64_t j : {9, 3, -1, 3}) idx.push_back(j);
  const Literal base(Shape{8}, DType::kF64);
  const Literal indices = Literal::from_i64(Shape{36}, idx);
  const Literal updates = ramp(DType::kF64, Shape{36});
  const std::vector<Literal> args = {base, indices, updates};
  const xla::Compiled c =
      one_op(Op::kScatterAdd, DType::kF64, Shape{8}, args);
  ASSERT_EQ(c.n_groups, 1);
  const double rate = 29.0 / 34.0;
  xla::BufferPool pool;
  for (int call = 0; call < 2; ++call) {  // the second reuses the cache
    xla::ExecutionReport r;
    xla::execute(c, args, pool, &r);
    EXPECT_FALSE(r.segment_lowering_used);
    EXPECT_EQ(r.group_work[0].atomic_ops, 34.0);
    EXPECT_EQ(r.group_work[0].atomic_conflict_rate, rate * 34.0 / 34.0);
    EXPECT_EQ(r.total.atomic_ops, 34.0);
    EXPECT_EQ(r.total.atomic_conflict_rate, rate * 34.0 / 34.0);
    // Atomics store one value per update lane, plus the 8-element root.
    EXPECT_EQ(r.group_work[0].bytes_written, (36.0 + 8.0) * 8.0);
  }
}

TEST(XlaEval, ShapeReportIsBuiltOncePerCompiled) {
  const std::vector<Literal> args = {vec({1.0, 2.0}), ivec({1, 0, 1}),
                                     vec({1.0, 2.0, 3.0})};
  const xla::Compiled c =
      one_op(Op::kScatterAdd, DType::kF64, Shape{2}, args);
  EXPECT_EQ(c.shape_report, nullptr);
  xla::BufferPool pool;
  xla::execute(c, args, pool);  // no report requested: nothing cached
  EXPECT_EQ(c.shape_report, nullptr);
  xla::ExecutionReport first;
  xla::execute(c, args, pool, &first);
  const auto cached = c.shape_report;
  ASSERT_NE(cached, nullptr);
  xla::ExecutionReport second;
  xla::execute(c, args, pool, &second);
  EXPECT_EQ(c.shape_report, cached);
  expect_report_equal(first, second);
}

// ---------------------------------------------------------------------------
// execute() frees each computed value after its last reader.  The products
// must not notice: each module below is checked against plain loops.
// ---------------------------------------------------------------------------

namespace {

std::vector<double> values(const Literal& l) {
  return {l.f64().begin(), l.f64().end()};
}

}  // namespace

TEST(XlaEval, ValueReadTwiceByOneInstructionThenFreed) {
  // `t` dies at `t * t`, which names it as both operands.
  xla::Jit fn("square", [](const std::vector<Array>& in) {
    const Array t = in[0] * 2.0 + 1.0;
    const Array u = t * t;
    return std::vector<Array>{u - 3.0};
  });
  const std::vector<double> x = {0.5, -1.0, 2.0, 3.5};
  std::vector<double> expected;
  for (const double v : x) {
    const double t = v * 2.0 + 1.0;
    expected.push_back(t * t - 3.0);
  }
  Fixture f;
  const auto out = fn.call(f.rt, {vec({0.5, -1.0, 2.0, 3.5})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaEval, ValueReadLastAfterUnrelatedInstructionsStaysAlive) {
  // `a` is read by `p`, then two instructions that do not read it (and
  // whose own inputs die on the way) run, then its last reader.
  xla::Jit fn("late", [](const std::vector<Array>& in) {
    const Array a = xla::sqrt(in[0]);
    const Array p = a * 2.0;
    const Array b = in[1] * 3.0;
    const Array c = b - 2.0;
    return std::vector<Array>{p + a * c};
  });
  const std::vector<double> x = {4.0, 9.0, 0.25};
  const std::vector<double> y = {1.0, -2.0, 0.5};
  std::vector<double> expected;
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double a = std::sqrt(x[k]);
    expected.push_back(a * 2.0 + a * (y[k] * 3.0 - 2.0));
  }
  Fixture f;
  const auto out = fn.call(f.rt, {vec({4.0, 9.0, 0.25}), vec({1.0, -2.0, 0.5})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaEval, InPlaceScatterBaseWhoseProducerIsFreed) {
  // `t` dies at `base`; `base` is computed, owned and dead after the
  // scatter, so the scatter updates it in place; the scatter's result in
  // turn dies at the root.
  xla::Jit fn("inplace", [](const std::vector<Array>& in) {
    const Array t = in[0] + 1.0;
    const Array base = t * 2.0;
    const Array s = xla::scatter_add(base, in[1], in[2]);
    return std::vector<Array>{s * 0.5};
  });
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<I64> idx = {3, 0, 3, 7};
  const std::vector<double> upd = {10.0, 20.0, 30.0, 40.0};
  std::vector<double> expected;
  for (const double v : x) expected.push_back((v + 1.0) * 2.0);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] >= 0 && idx[k] < 4) {
      expected[static_cast<std::size_t>(idx[k])] += upd[k];
    }
  }
  for (auto& v : expected) v *= 0.5;
  Fixture f;
  const std::vector<Literal> args = {vec({1.0, 2.0, 3.0, 4.0}),
                                     ivec({3, 0, 3, 7}),
                                     vec({10.0, 20.0, 30.0, 40.0})};
  const auto out = fn.call(f.rt, args);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
  EXPECT_EQ(args[0].f64()[0], 1.0);
}

TEST(XlaEval, EarlyReadScatterIndexStreamStillFeedsTheReport) {
  // The computed index stream's only reader in the module is the first
  // instruction after it; two more instructions follow.  The report reads
  // it after the loop, so it must outlive its last in-module reader.
  const auto module = [](bool computed_indices) {
    return xla::Jit("early", [computed_indices](const std::vector<Array>& in) {
      const Array idx = computed_indices
                            ? xla::maximum(in[1], xla::constant_i64(-100))
                            : in[1];
      const Array s = xla::scatter_add(in[0], idx, in[2]);
      const Array r = s * 2.0;
      return std::vector<Array>{r + 1.0};
    });
  };
  // Unsorted: atomics.  One warp of 5 valid lanes over {2, 0, 2, 1, 2}:
  // 3 distinct targets, 2 conflicts.
  const std::vector<Literal> args = {vec({0.0, 0.0, 0.0}),
                                     ivec({2, 0, 2, 1, 2}),
                                     vec({1.0, 2.0, 3.0, 4.0, 5.0})};
  const std::vector<double> expected = {2.0 * 2.0 + 1.0, 4.0 * 2.0 + 1.0,
                                        9.0 * 2.0 + 1.0};
  for (const bool computed : {true, false}) {
    Fixture f;
    xla::Jit fn = module(computed);
    xla::ExecutionReport report;
    const auto out = fn.call_reported(f.rt, args, "", report);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(values(out[0]), expected) << "computed=" << computed;
    EXPECT_FALSE(report.segment_lowering_used);
    EXPECT_EQ(report.total.atomic_ops, 5.0) << "computed=" << computed;
    EXPECT_EQ(report.total.atomic_conflict_rate, 2.0 / 5.0)
        << "computed=" << computed;
  }
}

TEST(XlaEval, ScatterConflictRateMatchesKernelHelper) {
  // One unsorted scatter-add of 300 in-range lanes over 24 targets, with
  // runs of repeats: the report's rate is the kernels' rate of the stream.
  std::vector<std::int64_t> idx(300);
  std::uint64_t state = 7;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    idx[i] = (i % 9 < 3 && i > 0)
                 ? idx[i - 1]
                 : static_cast<std::int64_t>((state >> 33) % 24);
  }
  ASSERT_FALSE(std::is_sorted(idx.begin(), idx.end()));
  const std::vector<double> updates(idx.size(), 1.0);
  xla::Jit fn("conflicts", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  Fixture f;
  xla::ExecutionReport report;
  fn.call_reported(
      f.rt,
      {Literal::from_f64(Shape{24}, std::vector<double>(24, 0.0)),
       Literal::from_i64(Shape{static_cast<std::int64_t>(idx.size())}, idx),
       Literal::from_f64(Shape{static_cast<std::int64_t>(updates.size())},
                         updates)},
      "", report);
  EXPECT_FALSE(report.segment_lowering_used);
  EXPECT_EQ(report.total.atomic_ops, 300.0);
  const double rate = toast::accel::count_window_conflicts(idx).rate();
  EXPECT_GT(rate, 0.0);
  EXPECT_EQ(report.total.atomic_conflict_rate, rate);
}

// ---------------------------------------------------------------------------
// Integer ops with no C++ meaning for some inputs take XLA's values, in
// the executor and in constant folding.
// ---------------------------------------------------------------------------

TEST(XlaIntSemantics, DivisionAndRemainderByZeroAndOverflow) {
  xla::Jit fn("divmod", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::div(in[0], in[1]), xla::mod(in[0], in[1])};
  });
  const std::vector<Literal> args = {ivec({7, 8, -7, kI64Min, kI64Min, 9}),
                                     ivec({0, 2, 0, -1, 0, -1})};
  const std::vector<I64> quotient = {-1, 4, -1, kI64Min, -1, -9};
  const std::vector<I64> remainder = {7, 0, -7, 0, kI64Min, 0};
  Fixture f;
  const auto out = fn.call(f.rt, args);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::vector<I64>(out[0].i64().begin(), out[0].i64().end()),
            quotient);
  EXPECT_EQ(std::vector<I64>(out[1].i64().begin(), out[1].i64().end()),
            remainder);
}

TEST(XlaIntSemantics, ShiftsOutOfRangeGiveZero) {
  xla::Jit fn("shifts", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::shift_left(in[0], in[1]),
                              xla::shift_right(in[0], in[1])};
  });
  const std::vector<Literal> args = {ivec({5, 5, 5, 1, 5, -1}),
                                     ivec({-1, 64, 65, 63, 0, 3})};
  const std::vector<I64> left = {0, 0, 0, kI64Min, 5, -8};
  const std::vector<I64> right = {0, 0, 0, 0, 5,
                                  std::numeric_limits<I64>::max() >> 2};
  Fixture f;
  const auto out = fn.call(f.rt, args);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::vector<I64>(out[0].i64().begin(), out[0].i64().end()), left);
  EXPECT_EQ(std::vector<I64>(out[1].i64().begin(), out[1].i64().end()),
            right);
}

TEST(XlaIntSemantics, ConstantFoldingUsesTheSameValues) {
  xla::Jit fn("folded", [](const std::vector<Array>&) {
    const Array seven = xla::constant_i64(7);
    const Array zero = xla::constant_i64(0);
    const Array min = xla::constant_i64(kI64Min);
    const Array minus_one = xla::constant_i64(-1);
    return std::vector<Array>{
        xla::div(seven, zero), xla::mod(seven, zero),
        xla::div(min, minus_one), xla::mod(min, minus_one),
        xla::shift_left(seven, xla::constant_i64(64)),
        xla::shift_right(seven, minus_one)};
  });
  Fixture f;
  const auto out = fn.call(f.rt, {});
  const auto* c = fn.lookup({});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->pass_stats.folded, 6);
  const std::vector<I64> expected = {-1, 7, kI64Min, 0, 0, 0};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(out[k].i64()[0], expected[k]) << "root " << k;
  }
}

// ---------------------------------------------------------------------------
// execute() recycles buffers: an elementwise op or a gather's index
// operand writes over an operand that dies there, other values draw from
// the Runtime's pool, and dead values go back to it.  Each case is checked
// bitwise against plain loops and against a fresh Runtime, and repeated on
// a Runtime whose pool starts full of poisoned buffers.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(const Literal& a, const Literal& b) {
  if (a.dtype() != b.dtype() || a.shape() != b.shape()) return false;
  const auto bytes = [](const Literal& l) -> const void* {
    switch (l.dtype()) {
      case DType::kF64:
        return l.f64().data();
      case DType::kI64:
        return l.i64().data();
      case DType::kPred:
        break;
    }
    return l.pred().data();
  };
  return std::memcmp(bytes(a), bytes(b), a.byte_size()) == 0;
}

/// Two buffers of every class `c` computes, all bytes 0xA5, so a value
/// that reads its buffer's old contents shows.
void poison(xla::BufferPool& pool, const xla::Compiled& c) {
  for (const auto& cls : c.buffer_classes) {
    for (int k = 0; k < 2; ++k) {
      Literal l(Shape{cls.count}, cls.dtype);
      switch (cls.dtype) {
        case DType::kF64:
          std::memset(l.f64().data(), 0xA5, l.byte_size());
          break;
        case DType::kI64:
          std::memset(l.i64().data(), 0xA5, l.byte_size());
          break;
        case DType::kPred:
          std::memset(l.pred().data(), 0xA5, l.byte_size());
          break;
      }
      pool.give(std::move(l));
    }
  }
}

/// `fn` on a fresh Runtime, then twice on one whose pool starts poisoned:
/// all three give the same bits, and the caller's `args` are untouched.
std::vector<Literal> call_recycled(xla::Jit& fn,
                                   const std::vector<Literal>& args) {
  const std::vector<Literal> before = args;
  Fixture fresh;
  const auto expected = fn.call(fresh.rt, args);
  Fixture reused;
  const xla::Compiled* c = fn.lookup(args);
  EXPECT_NE(c, nullptr);
  if (c != nullptr) poison(reused.rt.buffers(), *c);
  for (int call = 0; call < 2; ++call) {
    const auto out = fn.call(reused.rt, args);
    EXPECT_EQ(out.size(), expected.size());
    for (std::size_t k = 0; k < std::min(out.size(), expected.size()); ++k) {
      EXPECT_TRUE(same_bits(out[k], expected[k]))
          << "call " << call << " root " << k;
    }
  }
  for (std::size_t p = 0; p < args.size(); ++p) {
    EXPECT_TRUE(same_bits(args[p], before[p])) << "argument " << p;
  }
  return expected;
}

std::vector<I64> ivalues(const Literal& l) {
  return {l.i64().begin(), l.i64().end()};
}

}  // namespace

TEST(XlaRecycle, OperandReadAgainLaterIsNeverOverwritten) {
  // `a` and the parameter are both read again after `b`, so `b` may not
  // write over either; `c` may write over the dead `b`.
  xla::Jit fn("reread", [](const std::vector<Array>& in) {
    const Array a = in[0] * 2.0;
    const Array b = a + 1.0;
    const Array c = b * in[0];
    return std::vector<Array>{c - a};
  });
  const std::vector<double> x = {0.5, -1.0, 2.0, 3.5};
  std::vector<double> expected;
  for (const double v : x) {
    const double a = v * 2.0;
    expected.push_back((a + 1.0) * v - a);
  }
  const auto out = call_recycled(fn, {vec({0.5, -1.0, 2.0, 3.5})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaRecycle, OneValueAsBothOperands) {
  // `t` dies at `t * t` and at `select(p, u, u)`: the output may take its
  // buffer although both operand slots read it.
  xla::Jit fn("both", [](const std::vector<Array>& in) {
    const Array t = in[0] + 0.5;
    const Array u = t * t;
    const Array w = xla::select(xla::lt(in[0], xla::constant(1.0)), u, u);
    return std::vector<Array>{w - in[0]};
  });
  const std::vector<double> x = {0.5, -1.0, 2.0, 3.5};
  std::vector<double> expected;
  for (const double v : x) expected.push_back((v + 0.5) * (v + 0.5) - v);
  const auto out = call_recycled(fn, {vec({0.5, -1.0, 2.0, 3.5})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaRecycle, GatherWhoseTableIsItsIndices) {
  // gather(x, x) reads the table at every lane: it must not write over
  // its index operand.  gather(g, z) may write over the dead `z`.
  xla::Jit fn("self_gather", [](const std::vector<Array>& in) {
    const Array x = in[0] + xla::constant_i64(1);
    const Array g = xla::gather(x, x);
    const Array z = in[0] * xla::constant_i64(2);
    return std::vector<Array>{g, xla::gather(g, z)};
  });
  const std::vector<I64> in = {2, 0, 4, 1, 3};
  std::vector<I64> x, g, expected;
  for (const I64 v : in) x.push_back(v + 1);
  for (const I64 j : x) g.push_back(x[static_cast<std::size_t>(std::clamp<I64>(j, 0, 4))]);
  for (const I64 v : in) {
    expected.push_back(g[static_cast<std::size_t>(std::clamp<I64>(2 * v, 0, 4))]);
  }
  const auto out = call_recycled(fn, {ivec({2, 0, 4, 1, 3})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(ivalues(out[0]), g);
  EXPECT_EQ(ivalues(out[1]), expected);
}

TEST(XlaRecycle, ParameterScatterBaseThatDiesAtTheScatter) {
  // The call owns its arguments: a parameter base that dies at the
  // scatter is updated in place, never the caller's copy.
  xla::Jit fn("param_base", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2]) * 2.0};
  });
  const std::vector<double> base = {1.0, 2.0, 3.0, 4.0};
  const std::vector<I64> idx = {3, 0, 3, 7};
  const std::vector<double> upd = {10.0, 20.0, 30.0, 40.0};
  std::vector<double> expected = base;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] >= 0 && idx[k] < 4) expected[static_cast<std::size_t>(idx[k])] += upd[k];
  }
  for (auto& v : expected) v *= 2.0;
  const auto out = call_recycled(
      fn, {vec({1.0, 2.0, 3.0, 4.0}), ivec({3, 0, 3, 7}),
           vec({10.0, 20.0, 30.0, 40.0})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaRecycle, ParameterScatterBaseReadAgainAfterTheScatter) {
  xla::Jit fn("param_base_reread", [](const std::vector<Array>& in) {
    const Array s = xla::scatter_set(in[0], in[1], in[2]);
    return std::vector<Array>{s + in[0]};
  });
  const std::vector<double> base = {1.0, 2.0, 3.0, 4.0};
  const std::vector<I64> idx = {2, -1, 0};
  const std::vector<double> upd = {10.0, 20.0, 30.0};
  std::vector<double> s = base;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] >= 0 && idx[k] < 4) s[static_cast<std::size_t>(idx[k])] = upd[k];
  }
  std::vector<double> expected;
  for (std::size_t k = 0; k < base.size(); ++k) expected.push_back(s[k] + base[k]);
  const auto out = call_recycled(
      fn, {vec({1.0, 2.0, 3.0, 4.0}), ivec({2, -1, 0}),
           vec({10.0, 20.0, 30.0})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(values(out[0]), expected);
}

TEST(XlaRecycle, ScatterIndexStreamIsNotHandedOutBeforeTheReport) {
  // After the scatter, `t` is an i64 value of the index stream's class
  // that draws its buffer from the pool (its operand is read again):
  // were the stream handed to the pool at its last in-module reader, `t`
  // would overwrite it before the report reads it.
  xla::Jit fn("stream", [](const std::vector<Array>& in) {
    const Array idx = xla::maximum(in[1], xla::constant_i64(-100));
    const Array s = xla::scatter_add(in[0], idx, in[2]);
    const Array t = in[3] * xla::constant_i64(3);
    return std::vector<Array>{s, t + in[3]};
  });
  // One warp of 5 valid lanes over {2, 0, 2, 1, 2}: 3 distinct targets,
  // 2 conflicts.
  const std::vector<Literal> args = {vec({0.0, 0.0, 0.0}),
                                     ivec({2, 0, 2, 1, 2}),
                                     vec({1.0, 2.0, 3.0, 4.0, 5.0}),
                                     ivec({0, 0, 0, 0, 0})};
  const auto out = call_recycled(fn, args);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(values(out[0]), (std::vector<double>{2.0, 4.0, 9.0}));
  EXPECT_EQ(ivalues(out[1]), (std::vector<I64>{0, 0, 0, 0, 0}));
  Fixture f;
  poison(f.rt.buffers(), *fn.lookup(args));
  for (int call = 0; call < 2; ++call) {
    xla::ExecutionReport report;
    fn.call_reported(f.rt, args, "", report);
    EXPECT_FALSE(report.segment_lowering_used);
    EXPECT_EQ(report.total.atomic_ops, 5.0) << "call " << call;
    EXPECT_EQ(report.total.atomic_conflict_rate, 2.0 / 5.0) << "call " << call;
  }
}

TEST(XlaRecycle, SecondCallOnOneRuntimeRepeatsOutputsAndReport) {
  xla::Jit fn("repeat", [](const std::vector<Array>& in) {
    const Array g = xla::gather(in[0], in[1]);
    const Array s = xla::scatter_add(in[0] * 0.5, in[1], g * 3.0);
    return std::vector<Array>{s, xla::reduce_sum(g), xla::sqrt(g * g)};
  });
  const std::vector<Literal> args = {vec({1.0, -2.0, 3.0, -4.0}),
                                     ivec({3, 1, 1, 0, 9, 2})};
  Fixture f;
  xla::ExecutionReport first;
  const auto a = fn.call_reported(f.rt, args, "", first);
  EXPECT_GT(f.rt.buffers().buffers(), 0u);
  xla::ExecutionReport second;
  const auto b = fn.call_reported(f.rt, args, "", second);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_TRUE(same_bits(a[k], b[k])) << "root " << k;
  }
  expect_report_equal(first, second);
  call_recycled(fn, args);
}

TEST(XlaRecycle, CallThatThrowsLeavesTheRuntimeUsable) {
  const std::vector<Literal> good = {vec({1.0, 2.0, 3.0}),
                                     vec({0.5, 0.25, 4.0})};
  const xla::Compiled c = one_op(Op::kMul, DType::kF64, Shape{3}, good);
  Fixture f;
  xla::BufferPool& pool = f.rt.buffers();
  const auto expected = xla::execute(c, good, pool);
  EXPECT_THROW(xla::execute(c, {vec({1.0, 2.0}), vec({1.0, 2.0})}, pool),
               std::invalid_argument);
  EXPECT_THROW(xla::execute(c, {good[0]}, pool), std::invalid_argument);
  const auto again = xla::execute(c, good, pool);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(same_bits(again[0], expected[0]));
  EXPECT_EQ(values(again[0]), (std::vector<double>{0.5, 0.5, 12.0}));
}

TEST(XlaRecycle, PoolKeepsOnlyTheModuleBufferClasses) {
  // At call start the pool drops classes the module never computes and
  // keeps at most as many buffers of a class as the module computes.
  const std::vector<Literal> args = {vec({1.0, 2.0, 3.0})};
  const xla::Compiled c = one_op(Op::kNeg, DType::kF64, Shape{3}, args);
  ASSERT_EQ(c.buffer_classes.size(), 1u);
  EXPECT_EQ(c.buffer_classes[0].count, 3);
  EXPECT_EQ(c.buffer_classes[0].keep, 1u);
  xla::BufferPool pool;
  for (int k = 0; k < 4; ++k) pool.give(Literal(Shape{3}, DType::kF64));
  pool.give(Literal(Shape{5}, DType::kF64));
  pool.give(Literal(Shape{3}, DType::kI64));
  EXPECT_EQ(pool.buffers(), 6u);
  const auto out = xla::execute(c, args, pool);
  EXPECT_EQ(values(out[0]), (std::vector<double>{-1.0, -2.0, -3.0}));
  // The trim left one f64[3]; the neg wrote over its dead parameter and
  // did not draw from the pool, so that buffer is still there.
  EXPECT_EQ(pool.buffers(), 1u);
}

// ---------------------------------------------------------------------------
// A Jit that declares loop-invariant params keeps what it computed from
// them and skips that work while they stay bit-identical.  Every case is
// compared bitwise (outputs, report, clock, TimeLog) with a Jit that
// declares nothing.
// ---------------------------------------------------------------------------

namespace {

/// in[0] (i64 rows) and in[1] (f64 table) are the loop-invariant inputs;
/// in[2] (signal) and in[3] (map) change.  The scatter's index stream and
/// the gathered weights depend on in[0] and in[1] only.
std::vector<Array> map_step(const std::vector<Array>& in) {
  const Array idx = in[0] * xla::constant_i64(3) + xla::constant_i64(1);
  const Array valid = xla::lt(idx, xla::constant_i64(8));
  const Array w = xla::gather(in[1], idx);
  const Array z = xla::gather(in[2], in[0]) * w;
  const Array target = xla::select(valid, idx, xla::constant_i64(-1));
  return {xla::scatter_add(in[3], target, z), z * 2.0};
}

xla::Jit declared_jit(const std::string& name, xla::TracedFn fn,
                      std::vector<int> params) {
  xla::Jit jit(name, std::move(fn));
  jit.set_invariant_params(std::move(params));
  return jit;
}

/// Runs `calls` on a Jit declaring `params` and on one declaring nothing,
/// each on its own Runtime, and expects the same bits everywhere.
void expect_reuse_exact(xla::TracedFn fn, std::vector<int> params,
                        const std::vector<std::vector<Literal>>& calls,
                        const std::vector<std::string>& keys = {}) {
  xla::Jit reused = declared_jit("step", fn, std::move(params));
  xla::Jit fresh("step", std::move(fn));
  Fixture a;
  Fixture b;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::string key = c < keys.size() ? keys[c] : "";
    xla::ExecutionReport ra;
    xla::ExecutionReport rb;
    const auto out_a = reused.call_reported(a.rt, calls[c], key, ra);
    const auto out_b = fresh.call_reported(b.rt, calls[c], key, rb);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t k = 0; k < out_a.size(); ++k) {
      EXPECT_TRUE(same_bits(out_a[k], out_b[k])) << "call " << c << " root " << k;
    }
    expect_report_equal(ra, rb);
    EXPECT_EQ(a.clock.now(), b.clock.now()) << "call " << c;
  }
  const auto la = a.rt.log();
  const auto lb = b.rt.log();
  EXPECT_EQ(la.categories(), lb.categories());
  for (const auto& cat : la.categories()) {
    EXPECT_EQ(la.seconds(cat), lb.seconds(cat)) << cat;
    EXPECT_EQ(la.calls(cat), lb.calls(cat)) << cat;
  }
}

std::vector<Literal> step_args(std::vector<double> table, double signal_scale) {
  std::vector<double> signal;
  for (int k = 0; k < 5; ++k) signal.push_back(signal_scale * (k - 1.5));
  return {ivec({2, 0, 1, 2, 4}),
          Literal::from_f64(Shape{static_cast<std::int64_t>(table.size())},
                            table),
          Literal::from_f64(Shape{5}, signal), vec({0.0, 1.0, 0.0, 0.0, 0.0,
                                                    0.0, 0.0, 2.0})};
}

/// Rows {2, 0, 1, 2, 4} read table elements {7, 1, 4, 7, 12}.
const std::vector<double> kTable = {0.5, 0.0, 2.0, -1.0, 4.0, 1.5, 3.0, -2.5,
                                    0.25, 1.0, 7.0, -3.0, 0.75};

}  // namespace

TEST(XlaReuse, EqualInvariantParamsSkipTheirWork) {
  std::vector<std::vector<Literal>> calls;
  for (int c = 0; c < 4; ++c) calls.push_back(step_args(kTable, 1.0 + c));
  expect_reuse_exact(map_step, {0, 1}, calls);
  xla::Jit jit = declared_jit("step", map_step, {0, 1});
  Fixture f;
  for (const auto& args : calls) jit.call(f.rt, args);
  EXPECT_EQ(jit.reuse_hits(), 3u);
  // Redeclaring the same set keeps the entry.
  jit.set_invariant_params({1, 0, 1});
  jit.call(f.rt, calls[0]);
  EXPECT_EQ(jit.reuse_hits(), 4u);
}

TEST(XlaReuse, OneFlippedBitRecomputes) {
  // 0.0 -> -0.0 in the table flips the sign of a product, and one i64
  // lane of the rows moves a target: both must miss.
  std::vector<double> negated = kTable;
  negated[1] = -0.0;
  std::vector<std::vector<Literal>> calls;
  calls.push_back(step_args(kTable, 1.0));
  calls.push_back(step_args(negated, 2.0));
  calls.push_back(step_args(negated, 3.0));
  calls.push_back(step_args(negated, 3.0));
  calls.back()[0].i64()[1] ^= 1;
  expect_reuse_exact(map_step, {0, 1}, calls);
  xla::Jit jit = declared_jit("step", map_step, {0, 1});
  Fixture f;
  for (const auto& args : calls) jit.call(f.rt, args);
  EXPECT_EQ(jit.reuse_hits(), 1u);  // only the third call
}

TEST(XlaReuse, ShapeChangeReplacesTheEntry) {
  std::vector<double> longer = kTable;
  longer.push_back(9.0);
  std::vector<std::vector<Literal>> calls;
  calls.push_back(step_args(kTable, 1.0));
  calls.push_back(step_args(longer, 2.0));
  calls.push_back(step_args(kTable, 3.0));
  calls.push_back(step_args(kTable, 4.0));
  expect_reuse_exact(map_step, {0, 1}, calls);
  xla::Jit jit = declared_jit("step", map_step, {0, 1});
  Fixture f;
  for (const auto& args : calls) jit.call(f.rt, args);
  EXPECT_EQ(jit.cache_size(), 2u);
  EXPECT_EQ(jit.reuse_hits(), 1u);  // only the last call
}

TEST(XlaReuse, ExecutableChangeWithEqualParamsReplacesTheEntry) {
  // Equal arguments under another static key trace another graph: the
  // values kept for the first executable do not belong to the second.
  auto offset = std::make_shared<std::int64_t>(1);
  const xla::TracedFn fn = [offset](const std::vector<Array>& in) {
    const Array idx = in[0] + xla::constant_i64(*offset);
    return std::vector<Array>{xla::gather(in[1], idx) * in[2]};
  };
  const std::vector<Literal> args = {ivec({0, 2, 1}), vec({1.0, 2.0, 4.0, 8.0}),
                                     vec({1.0, 3.0, 5.0})};
  xla::Jit reused = declared_jit("keyed", fn, {0, 1});
  xla::Jit fresh("keyed", fn);
  Fixture a;
  Fixture b;
  for (const std::int64_t o : {1, 1, 2, 2, 1}) {
    *offset = o;
    const std::string key = "offset=" + std::to_string(o);
    const auto x = reused.call(a.rt, args, key);
    const auto y = fresh.call(b.rt, args, key);
    EXPECT_TRUE(same_bits(x[0], y[0])) << key;
  }
  EXPECT_EQ(reused.reuse_hits(), 2u);
}

TEST(XlaReuse, InvariantScatterStreamKeepsItsLowering) {
  // Two scatter-adds: the first's index stream depends on the declared
  // in[0] only, the second's on the undeclared in[3], which goes from
  // sorted (segment) to unsorted with conflicts and back.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    const Array fixed = xla::maximum(in[0], xla::constant_i64(-1));
    const Array s = xla::scatter_add(in[1], fixed, in[2]);
    const Array moving = xla::maximum(in[3], xla::constant_i64(-1));
    return std::vector<Array>{xla::scatter_add(s, moving, in[2] * 2.0)};
  };
  const auto args = [](std::initializer_list<std::int64_t> moving, double u) {
    return std::vector<Literal>{ivec({2, 0, 2, 1, 2, 3}),
                                vec({0.0, 0.0, 0.0, 0.0}),
                                vec({u, 2.0, 3.0, 4.0, 5.0, 6.0}),
                                ivec(moving)};
  };
  const std::vector<std::vector<Literal>> calls = {
      args({0, 1, 1, 2, 3, 3}, 1.0), args({3, 3, 3, 0, 3, 9}, 2.0),
      args({1, 0, 1, 0, 1, 0}, 3.0), args({0, 1, 1, 2, 3, 3}, 4.0)};
  expect_reuse_exact(fn, {0}, calls);
  xla::Jit jit = declared_jit("lowering", fn, {0});
  Fixture f;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    xla::ExecutionReport report;
    jit.call_reported(f.rt, calls[c], "", report);
    // The fixed stream {2,0,2,1,2,3} is unsorted: 6 atomics, 2 conflicts.
    // The moving stream adds its own atomics unless it is sorted.
    const double moving_atomics = c == 0 || c == 3 ? 0.0 : c == 1 ? 5.0 : 6.0;
    EXPECT_EQ(report.total.atomic_ops, 6.0 + moving_atomics) << "call " << c;
  }
  EXPECT_EQ(jit.reuse_hits(), 3u);
}

TEST(XlaReuse, CallThatThrowsMidExecutionLeavesNoEntry) {
  // The gather of the signal runs after the invariant work; giving it a
  // dtype its table does not hold makes the call throw there.
  xla::Jit tracer("step", map_step);
  const std::vector<Literal> first = step_args(kTable, 1.0);
  std::vector<double> other_table = kTable;
  other_table[0] = 5.0;
  const std::vector<Literal> second = step_args(other_table, 2.0);
  Fixture f;
  tracer.call(f.rt, first);
  xla::Compiled c = *tracer.lookup(first);
  xla::HloInstruction* signal_gather = nullptr;
  for (auto& in : c.module.instructions) {
    if (in.opcode == Op::kGather &&
        c.module.at(in.operands[0]).opcode == Op::kParam &&
        c.module.at(in.operands[0]).i0 == 2) {
      signal_gather = &in;
    }
  }
  ASSERT_NE(signal_gather, nullptr);
  xla::ReuseEntry entry;
  entry.params = {0, 1};
  xla::BufferPool pool;
  xla::ExecutionReport report;
  xla::execute(c, first, pool, &report, &entry);
  EXPECT_EQ(entry.compiled, &c);
  signal_gather->dtype = DType::kI64;
  EXPECT_ANY_THROW(xla::execute(c, second, pool, &report, &entry));
  ASSERT_EQ(entry.compiled, nullptr);
  signal_gather->dtype = DType::kF64;
  for (int call = 0; call < 2; ++call) {
    const auto out = xla::execute(c, second, pool, &report, &entry);
    xla::BufferPool own;
    const auto expected = xla::execute(c, second, own);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_TRUE(same_bits(out[k], expected[k])) << "call " << call;
    }
  }
  EXPECT_EQ(entry.hits, 1u);
}

TEST(XlaReuse, KeptValueIsNeverOverwritten) {
  // `k` is invariant and dies at the elementwise add, which could write
  // over it were it owned; a kept `k` must survive for the next call.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    const Array k = in[0] * 2.0 + 1.0;
    return std::vector<Array>{k + in[1]};
  };
  xla::Jit jit = declared_jit("kept", fn, {0});
  xla::Jit fresh("kept", fn);
  const auto args = [](double v) {
    return std::vector<Literal>{vec({0.5, -1.0, 2.0}), vec({v, v + 1.0, v})};
  };
  Fixture plain;
  fresh.call(plain.rt, args(0.0));
  Fixture poisoned;
  poison(poisoned.rt.buffers(), *fresh.lookup(args(0.0)));
  for (int c = 0; c < 4; ++c) {
    const auto out = jit.call(poisoned.rt, args(c));
    const auto expected = fresh.call(plain.rt, args(c));
    EXPECT_TRUE(same_bits(out[0], expected[0])) << "call " << c;
    poison(poisoned.rt.buffers(), *fresh.lookup(args(0.0)));
  }
  EXPECT_EQ(jit.reuse_hits(), 3u);
}

TEST(XlaReuse, ClearCacheDropsTheEntry) {
  const std::vector<Literal> args = step_args(kTable, 1.0);
  xla::Jit jit = declared_jit("step", map_step, {0, 1});
  Fixture f;
  const auto expected = jit.call(f.rt, args);
  jit.call(f.rt, args);
  EXPECT_EQ(jit.reuse_hits(), 1u);
  jit.clear_cache();
  EXPECT_EQ(jit.reuse_hits(), 0u);
  const double before = f.clock.now();
  const auto out = jit.call(f.rt, args);  // recompiles, recomputes
  EXPECT_EQ(jit.reuse_hits(), 0u);
  EXPECT_GT(f.clock.now() - before,
            jit.lookup(args)->compile_seconds);
  EXPECT_TRUE(same_bits(out[0], expected[0]));
  jit.call(f.rt, args);
  EXPECT_EQ(jit.reuse_hits(), 1u);
}

// ---------------------------------------------------------------------------
// Borrowed arguments: a read-only borrow is read in place and never
// written; a donated (writable) borrow is updated in place.  Each case is
// compared bitwise with the same call on owned copies of the arguments,
// on a fresh Runtime and on one whose pool starts poisoned.
// ---------------------------------------------------------------------------

namespace {

bool is_donated(const std::vector<int>& donated, std::size_t p) {
  return std::find(donated.begin(), donated.end(), static_cast<int>(p)) !=
         donated.end();
}

/// Views of `memory`, the caller's buffers: a writable borrow at each
/// donated param, a read-only borrow elsewhere.
std::vector<Literal> views(std::vector<Literal>& memory,
                           const std::vector<int>& donated) {
  std::vector<Literal> args;
  for (std::size_t p = 0; p < memory.size(); ++p) {
    Literal& m = memory[p];
    const bool writable = is_donated(donated, p);
    if (m.dtype() == DType::kF64) {
      args.push_back(writable
                         ? Literal::borrow_writable(m.shape(), m.f64())
                         : Literal::borrow(m.shape(), std::as_const(m).f64()));
    } else {
      args.push_back(writable
                         ? Literal::borrow_writable(m.shape(), m.i64())
                         : Literal::borrow(m.shape(), std::as_const(m).i64()));
    }
  }
  return args;
}

/// One call on borrowed views: the caller's buffers and the outputs,
/// which may hold them.
struct BorrowedCall {
  std::vector<Literal> memory;
  std::vector<Literal> out;
};

/// `fn`, donating `donated`, on views of copies of `inputs`: on a fresh
/// Runtime, then twice on one whose pool starts poisoned.  Every call
/// gives the bits of the same call on owned copies of `inputs` and leaves
/// every read-only buffer as it was.  Returns the fresh-Runtime call.
BorrowedCall call_borrowed(const xla::TracedFn& fn,
                           const std::vector<Literal>& inputs,
                           const std::vector<int>& donated) {
  xla::Jit owned("borrow", fn);
  owned.set_donated_params(donated);
  Fixture plain;
  const auto expected = owned.call(plain.rt, inputs);
  const auto check = [&](const BorrowedCall& c, const std::string& what) {
    ASSERT_EQ(c.out.size(), expected.size()) << what;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(same_bits(c.out[k], expected[k])) << what << " root " << k;
    }
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      if (!is_donated(donated, p)) {
        EXPECT_TRUE(same_bits(c.memory[p], inputs[p]))
            << what << " argument " << p;
      }
    }
  };
  xla::Jit jit("borrow", fn);
  jit.set_donated_params(donated);
  BorrowedCall first;
  first.memory = inputs;
  Fixture fresh;
  first.out = jit.call(fresh.rt, views(first.memory, donated));
  check(first, "fresh");
  Fixture poisoned;
  poison(poisoned.rt.buffers(), *jit.lookup(inputs));
  for (int call = 0; call < 2; ++call) {
    BorrowedCall c;
    c.memory = inputs;
    c.out = jit.call(poisoned.rt, views(c.memory, donated));
    check(c, "poisoned call " + std::to_string(call));
  }
  return first;
}

}  // namespace

TEST(XlaBorrow, ReadOnlyParamDyingAtAnElementwiseOpKeepsItsBits) {
  // An owned in[0] would be written over by the multiply it dies at.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 2.0 + in[1]};
  };
  const BorrowedCall c = call_borrowed(
      fn, {vec({0.5, -1.0, 2.0, 3.5}), vec({1.0, 0.25, -3.0, 8.0})}, {});
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_FALSE(c.out[0].borrowed());
  EXPECT_NE(c.out[0].data(), c.memory[0].data());
  EXPECT_NE(c.out[0].data(), c.memory[1].data());
  EXPECT_EQ(values(c.out[0]), (std::vector<double>{2.0, -1.75, 1.0, 15.0}));
}

TEST(XlaBorrow, DonatedBaseIsScatteredInPlace) {
  // A scatter chain over the donated base, each base read by a gather
  // before it dies at the next scatter (the kernels' x.at[idx] pattern):
  // the result is the caller's buffer, updated in place.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    const Array s = xla::scatter_add(in[0], in[1], in[2]);
    return std::vector<Array>{
        xla::scatter_set(s, in[1], xla::gather(s, in[1]) * 2.0)};
  };
  const BorrowedCall c = call_borrowed(
      fn,
      {vec({1.0, 2.0, 3.0, 4.0}), ivec({3, 0, 3, 7}),
       vec({10.0, 20.0, 30.0, 40.0})},
      {0});
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_TRUE(c.out[0].borrowed());
  EXPECT_TRUE(c.out[0].writable());
  EXPECT_EQ(c.out[0].data(), c.memory[0].data());
  // s = {21, 2, 3, 44}; lane 3 gathers the clamped s[3].
  EXPECT_EQ(values(c.memory[0]), (std::vector<double>{42.0, 2.0, 3.0, 88.0}));
}

TEST(XlaBorrow, DonatedParamDyingBeforeTheRootNeverEntersThePool) {
  // The add writes over the donated in[0] and dies at the reduction: its
  // buffer is the caller's, so the pool must drop it.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::reduce_sum(in[0] + 1.0)};
  };
  const std::vector<Literal> inputs = {vec({0.5, -1.0, 2.0, 3.5})};
  const BorrowedCall c = call_borrowed(fn, inputs, {0});
  EXPECT_EQ(values(c.out[0]), (std::vector<double>{9.0}));

  xla::Jit jit("borrow", fn);
  jit.set_donated_params({0});
  Fixture f;
  std::vector<Literal> memory = inputs;
  jit.call(f.rt, views(memory, {0}));
  std::vector<Literal> taken;
  for (std::size_t k = 0; k <= f.rt.buffers().buffers(); ++k) {
    taken.push_back(f.rt.buffers().take(Shape{4}, DType::kF64));
    EXPECT_NE(taken.back().data(), memory[0].data());
  }
}

TEST(XlaBorrow, DonatedParamAliasingAReadOnlyArgumentIsCopied) {
  // in[1] views the donated in[0]'s memory and is read after the
  // scatter: updating in[0] in place would change what it reads.
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    const Array s = xla::scatter_add(in[0], in[2], in[3]);
    return std::vector<Array>{s, in[1] * 2.0};
  };
  const std::vector<Literal> inputs = {
      vec({1.0, 2.0, 3.0, 4.0}), vec({1.0, 2.0, 3.0, 4.0}), ivec({3, 0, 3}),
      vec({10.0, 20.0, 30.0})};
  xla::Jit owned("alias", fn);
  owned.set_donated_params({0});
  Fixture plain;
  const auto expected = owned.call(plain.rt, inputs);
  xla::Jit jit("alias", fn);
  jit.set_donated_params({0});
  Fixture fresh;
  Fixture poisoned;
  poison(poisoned.rt.buffers(), *owned.lookup(inputs));
  for (Fixture* f : {&fresh, &poisoned}) {
    std::vector<Literal> memory = {inputs[0], inputs[2], inputs[3]};
    std::vector<Literal> args;
    args.push_back(Literal::borrow_writable(Shape{4}, memory[0].f64()));
    args.push_back(Literal::borrow(Shape{4}, std::as_const(memory[0]).f64()));
    args.push_back(Literal::borrow(Shape{3}, std::as_const(memory[1]).i64()));
    args.push_back(Literal::borrow(Shape{3}, std::as_const(memory[2]).f64()));
    const auto out = jit.call(f->rt, std::move(args));
    ASSERT_EQ(out.size(), 2u);
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_TRUE(same_bits(out[k], expected[k])) << "root " << k;
      EXPECT_NE(out[k].data(), memory[0].data()) << "root " << k;
    }
    EXPECT_TRUE(same_bits(memory[0], inputs[0]));
  }
  EXPECT_EQ(values(expected[0]), (std::vector<double>{21.0, 2.0, 3.0, 44.0}));
  EXPECT_EQ(values(expected[1]), (std::vector<double>{2.0, 4.0, 6.0, 8.0}));
}

TEST(XlaBorrow, ReadOnlyParamRootComesBackOwned) {
  const xla::TracedFn fn = [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0], in[1] + 1.0};
  };
  BorrowedCall c =
      call_borrowed(fn, {vec({0.5, -1.0, 2.0}), vec({4.0, 5.0, 6.0})}, {});
  ASSERT_EQ(c.out.size(), 2u);
  EXPECT_FALSE(c.out[0].borrowed());
  EXPECT_NE(c.out[0].data(), c.memory[0].data());
  // The caller may reuse its buffer: the output keeps its own bits.
  c.memory[0].f64()[0] = 99.0;
  EXPECT_EQ(values(c.out[0]), (std::vector<double>{0.5, -1.0, 2.0}));
}

TEST(XlaBorrow, ReuseEntryMissesWhenABorrowedInvariantParamChanges) {
  // The entry's param copies are deep copies: a caller that changes one
  // table element in place between calls gets a miss, then a hit.
  xla::Jit unplanned("step", map_step);
  Fixture probe;
  unplanned.call(probe.rt, step_args(kTable, 1.0));
  Fixture fresh;
  Fixture poisoned;
  poison(poisoned.rt.buffers(), *unplanned.lookup(step_args(kTable, 1.0)));
  for (Fixture* f : {&fresh, &poisoned}) {
    xla::Jit jit = declared_jit("step", map_step, {0, 1});
    std::vector<Literal> memory = step_args(kTable, 1.0);
    const auto expect_owned_bits = [&](const std::vector<Literal>& out) {
      xla::Jit plain_jit("step", map_step);
      Fixture plain;
      const auto expected = plain_jit.call(plain.rt, memory);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_TRUE(same_bits(out[k], expected[k])) << "root " << k;
      }
    };
    expect_owned_bits(jit.call(f->rt, views(memory, {})));
    memory[1].f64()[7] += 1.0;  // the table element rows 2 read
    expect_owned_bits(jit.call(f->rt, views(memory, {})));
    EXPECT_EQ(jit.reuse_hits(), 0u);
    expect_owned_bits(jit.call(f->rt, views(memory, {})));
    EXPECT_EQ(jit.reuse_hits(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Element loops in ranges on the host pool: every chunked opcode, at sizes
// around the pool's grain, equals the same instruction evaluated inside a
// pool job, where the busy pool runs it inline as one serial loop.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kGrain =
    static_cast<std::int64_t>(accel::HostThreads::kGrain);

/// Runs f() inside a pool job, where every nested pool call runs inline.
template <typename F>
void inside_pool_job(const F& f) {
  accel::host_threads().parallel_for(2, [&](std::size_t i) {
    if (i == 0) f();
  });
}

/// One `op` instruction over `args`, evaluated on this thread and inside
/// a pool job; the two must agree bit for bit.
void expect_chunked_matches_inline(Op op, DType dtype, const Shape& shape,
                                   const std::vector<Literal>& args,
                                   std::int64_t i0 = 0) {
  xla::HloInstruction in;
  in.opcode = op;
  in.dtype = dtype;
  in.shape = shape;
  in.i0 = i0;
  std::vector<const Literal*> ops;
  for (std::size_t k = 0; k < args.size(); ++k) {
    in.operands.push_back(static_cast<xla::InstrId>(k));
    ops.push_back(&args[k]);
  }
  Literal pooled(shape, dtype);
  xla::evaluate_instruction(in, ops, pooled);
  Literal serial(shape, dtype);
  inside_pool_job([&] { xla::evaluate_instruction(in, ops, serial); });
  EXPECT_TRUE(same_bits(pooled, serial))
      << xla::to_string(op) << "/" << xla::to_string(dtype) << " "
      << shape.num_elements() << " elements";
}

const std::int64_t kChunkSizes[] = {kGrain - 1, kGrain, kGrain + 1,
                                    2 * kGrain + 1, 9 * kGrain + 5};
/// Rank-2 shapes whose rows straddle range boundaries.
const std::vector<Shape> kChunkMatrices = {
    Shape{1, kGrain + 1}, Shape{3, kGrain / 3 + 1}, Shape{2, kGrain / 2},
    Shape{64, 65},        Shape{37, 1000},          Shape{kGrain + 1, 1}};

}  // namespace

TEST(XlaChunks, EveryChunkedOpMatchesInlineEvaluation) {
  const DType f64 = DType::kF64, i64 = DType::kI64, pred = DType::kPred;
  for (const std::int64_t n : kChunkSizes) {
    const Shape s{n};
    const Literal f = ramp(f64, s);
    const Literal i = ramp(i64, s), pr = ramp(pred, s);
    Literal j(s, i64);  // other i64 values: 1, 2, ..., shifts of 0..63
    for (std::int64_t k = 0; k < n; ++k) j.i64()[k] = k % 70 - 3;
    Literal h(s, f64);
    for (std::int64_t k = 0; k < n; ++k) h.f64()[k] = 0.25 * (k % 17) - 2.0;
    Literal q(s, pred);
    for (std::int64_t k = 0; k < n; ++k) q.pred()[k] = k % 5 < 2 ? 1 : 0;

    for (const Op op : {Op::kNeg, Op::kAbs, Op::kSign, Op::kSqrt, Op::kSin,
                        Op::kCos, Op::kExp, Op::kLog, Op::kFloor,
                        Op::kTanh}) {
      expect_chunked_matches_inline(op, f64, s, {f});
    }
    for (const Op op : {Op::kNeg, Op::kAbs, Op::kSign}) {
      expect_chunked_matches_inline(op, i64, s, {i});
    }
    expect_chunked_matches_inline(Op::kNot, pred, s, {pr});
    for (const auto* from : {&f, &i, &pr}) {
      expect_chunked_matches_inline(Op::kCastF64, f64, s, {*from});
      expect_chunked_matches_inline(Op::kCastI64, i64, s, {*from});
    }
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                        Op::kMax, Op::kAtan2, Op::kMod}) {
      expect_chunked_matches_inline(op, f64, s, {f, h});
      expect_chunked_matches_inline(op, f64, s, {scalar_of(h), f});
    }
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                        Op::kMax, Op::kMod, Op::kAnd, Op::kOr, Op::kXor,
                        Op::kShl, Op::kShr}) {
      expect_chunked_matches_inline(op, i64, s, {i, j});
      expect_chunked_matches_inline(op, i64, s, {i, scalar_of(j)});
    }
    for (const Op op : {Op::kAnd, Op::kOr, Op::kXor}) {
      expect_chunked_matches_inline(op, pred, s, {pr, q});
    }
    for (const Op op :
         {Op::kLt, Op::kLe, Op::kGt, Op::kGe, Op::kEq, Op::kNe}) {
      expect_chunked_matches_inline(op, pred, s, {f, h});
      expect_chunked_matches_inline(op, pred, s, {i, j});
    }
    expect_chunked_matches_inline(Op::kSelect, f64, s, {q, f, h});
    expect_chunked_matches_inline(Op::kSelect, i64, s, {q, scalar_of(i), j});
    expect_chunked_matches_inline(Op::kSelect, pred, s, {q, pr, q});
    expect_chunked_matches_inline(
        Op::kClamp, f64, s,
        {f, Literal::scalar_f64(-2.0), Literal::scalar_f64(100.0)});
    expect_chunked_matches_inline(
        Op::kClamp, i64, s,
        {i, Literal::scalar_i64(-5), Literal::scalar_i64(1000)});
    // Gather indices 3k - 7 run below 0 and past the table: clamped.
    for (const auto* table : {&f, &i, &pr}) {
      const Literal t = ramp(table->dtype(), Shape{1000});
      expect_chunked_matches_inline(Op::kGather, table->dtype(), s, {t, i});
    }
    expect_chunked_matches_inline(Op::kIota, i64, s, {}, n);
    expect_chunked_matches_inline(Op::kSliceCol, f64, s,
                                  {ramp(f64, Shape{n, 3})}, 2);
    // A scatter copies its base, then adds serially.
    Literal idx(Shape{64}, i64);
    for (std::int64_t k = 0; k < 64; ++k) idx.i64()[k] = (k * 977) % n - 2;
    expect_chunked_matches_inline(Op::kScatterAdd, f64, s,
                                  {f, idx, ramp(f64, Shape{64})});
    expect_chunked_matches_inline(Op::kScatterSet, i64, s,
                                  {i, idx, ramp(i64, Shape{64})});
  }
  for (const Shape& m : kChunkMatrices) {
    const std::int64_t rows = m.dim(0), cols = m.dim(1);
    for (const DType d : {DType::kF64, DType::kI64, DType::kPred}) {
      expect_chunked_matches_inline(Op::kBroadcastRow, d, m,
                                    {ramp(d, Shape{cols})});
      expect_chunked_matches_inline(Op::kBroadcastCol, d, m,
                                    {ramp(d, Shape{rows})});
      expect_chunked_matches_inline(Op::kReshape, d, m,
                                    {ramp(d, Shape{rows * cols})});
    }
    expect_chunked_matches_inline(Op::kReduceSum, DType::kF64, Shape{rows},
                                  {ramp(DType::kF64, m)}, 1);
    expect_chunked_matches_inline(Op::kReduceSum, DType::kI64, Shape{rows},
                                  {ramp(DType::kI64, m)}, 1);
  }
}

TEST(XlaChunks, InPlaceOutputsMatchInlineEvaluation) {
  // execute() writes an elementwise result over a parameter that dies
  // there, and an i64 gather over its index operand.
  for (const std::int64_t n : kChunkSizes) {
    const Shape s{n};
    const std::vector<Literal> sum = {ramp(DType::kF64, s),
                                      ramp(DType::kF64, s)};
    const std::vector<Literal> sel = {ramp(DType::kPred, s),
                                      ramp(DType::kI64, s),
                                      Literal::scalar_i64(5)};
    const std::vector<Literal> gather = {ramp(DType::kI64, Shape{999}),
                                         ramp(DType::kI64, s)};
    for (const auto& [op, dtype, args] :
         {std::tuple{Op::kAdd, DType::kF64, &sum},
          std::tuple{Op::kSelect, DType::kI64, &sel},
          std::tuple{Op::kGather, DType::kI64, &gather}}) {
      const xla::Compiled compiled = one_op(op, dtype, s, *args);
      const auto& root = compiled.module.at(compiled.module.roots[0]);
      xla::BufferPool pool;
      const auto pooled = xla::execute(compiled, *args, pool);
      std::vector<Literal> serial;
      inside_pool_job([&] {
        xla::BufferPool own;
        serial = xla::execute(compiled, *args, own);
      });
      // And the plain evaluation into a fresh buffer, not in place.
      std::vector<const Literal*> ops;
      for (const auto& a : *args) ops.push_back(&a);
      Literal fresh(root.shape, root.dtype);
      inside_pool_job([&] { xla::evaluate_instruction(root, ops, fresh); });
      EXPECT_TRUE(same_bits(pooled[0], serial[0]))
          << xla::to_string(root.opcode) << " n = " << n;
      EXPECT_TRUE(same_bits(pooled[0], fresh))
          << xla::to_string(root.opcode) << " n = " << n;
    }
  }
}
