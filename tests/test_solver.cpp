// Tests of the destriping map-maker: convergence, cross-backend
// agreement, actual removal of injected noise offsets, and the pinned
// virtual timeline of the overlapped CG collectives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "resilience/policy.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace fault = toast::fault;
namespace resilience = toast::resilience;
namespace sim = toast::sim;
using core::Backend;
using toast::solver::AsyncComm;
using toast::solver::Destriper;
using toast::solver::DestriperConfig;

namespace {

// An observation with pointing expanded and a signal consisting of the
// scanned sky plus known step-wise offsets (the thing the destriper must
// recover) plus a little white noise.
struct Scenario {
  core::Observation ob;
  std::vector<double> injected;  // true offsets per (det, step)
  DestriperConfig cfg;
};

Scenario make_scenario(std::uint64_t seed = 11, double white_sigma = 1e-7) {
  DestriperConfig cfg;
  cfg.nside = 16;
  cfg.step_length = 128;
  cfg.max_iterations = 150;
  cfg.tolerance = 1e-8;

  const auto fp = sim::hex_focalplane(4, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;
  Scenario s{sim::simulate_satellite("destripe", fp, 8192, scan, seed), {},
             cfg};

  // Sky synthesis + pointing + scan in one pipeline (weights stay on the
  // device between the operators).
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = cfg.nside;
  core::Data data;
  data.observations.push_back(std::move(s.ob));
  sim::make_scan_pipeline(wf).exec(data, ctx);
  s.ob = std::move(data.observations[0]);

  // Inject known offsets + white noise.
  const std::int64_t n_det = s.ob.n_detectors();
  const std::int64_t n_samp = s.ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + cfg.step_length - 1) / cfg.step_length;
  std::mt19937 gen(static_cast<unsigned>(seed));
  std::normal_distribution<double> off(0.0, 1e-4);
  std::normal_distribution<double> white(0.0, white_sigma);
  s.injected.resize(static_cast<std::size_t>(n_det * n_amp_det));
  for (auto& v : s.injected) v = off(gen);
  auto signal = s.ob.field(core::fields::kSignal).f64();
  for (std::int64_t d = 0; d < n_det; ++d) {
    for (std::int64_t t = 0; t < n_samp; ++t) {
      signal[static_cast<std::size_t>(d * n_samp + t)] +=
          s.injected[static_cast<std::size_t>(d * n_amp_det +
                                              t / cfg.step_length)] +
          white(gen);
    }
  }
  return s;
}

double tod_rms(const core::Observation& ob) {
  const auto s = ob.field(core::fields::kSignal).f64();
  double acc = 0.0;
  for (const double v : s) acc += v * v;
  return std::sqrt(acc / static_cast<double>(s.size()));
}

}  // namespace

TEST(Destriper, ConvergesOnCpu) {
  auto sc = make_scenario();
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.reduction(), 1e-7);
  EXPECT_GT(result.iterations, 1);
  // Residuals decrease overall.
  EXPECT_LT(result.residuals.back(), result.residuals.front());
}

TEST(Destriper, RecoversInjectedOffsets) {
  auto sc = make_scenario(21);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  ASSERT_TRUE(result.converged);

  // The solved amplitudes match the injected ones up to a common offset
  // per detector (the absolute level is degenerate with the sky).
  const std::int64_t n_det = sc.ob.n_detectors();
  const auto n_amp_det =
      static_cast<std::int64_t>(result.amplitudes.size()) / n_det;
  double err = 0.0, sig = 0.0;
  for (std::int64_t d = 0; d < n_det; ++d) {
    double mean_diff = 0.0;
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      const auto i = static_cast<std::size_t>(d * n_amp_det + a);
      mean_diff += result.amplitudes[i] - sc.injected[i];
    }
    mean_diff /= static_cast<double>(n_amp_det);
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      const auto i = static_cast<std::size_t>(d * n_amp_det + a);
      const double diff =
          result.amplitudes[i] - sc.injected[i] - mean_diff;
      err += diff * diff;
      sig += sc.injected[i] * sc.injected[i];
    }
  }
  EXPECT_LT(std::sqrt(err / sig), 0.15);
}

TEST(Destriper, ApplyReducesStriping) {
  auto sc = make_scenario(31);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const double rms_before = tod_rms(sc.ob);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  destriper.apply(sc.ob, result, ctx, Backend::kCpu);
  const double rms_after = tod_rms(sc.ob);
  // The offsets dominate the signal in this scenario; destriping must
  // remove most of the variance.
  EXPECT_LT(rms_after, 0.5 * rms_before);
}

TEST(Destriper, BackendsAgree) {
  auto sc_cpu = make_scenario(41);
  auto sc_omp = make_scenario(41);
  auto sc_jax = make_scenario(41);
  core::ExecConfig ec;
  core::ExecContext c1(ec), c2(ec), c3(ec);
  toast::kernels::jax::clear_jit_caches();
  Destriper destriper(sc_cpu.cfg);
  const auto r_cpu = destriper.solve(sc_cpu.ob, c1, Backend::kCpu);
  const auto r_omp = destriper.solve(sc_omp.ob, c2, Backend::kOmpTarget);
  const auto r_jax = destriper.solve(sc_jax.ob, c3, Backend::kJax);
  ASSERT_EQ(r_cpu.amplitudes.size(), r_omp.amplitudes.size());
  ASSERT_EQ(r_cpu.amplitudes.size(), r_jax.amplitudes.size());
  for (std::size_t i = 0; i < r_cpu.amplitudes.size(); ++i) {
    ASSERT_DOUBLE_EQ(r_cpu.amplitudes[i], r_omp.amplitudes[i]) << i;
    ASSERT_DOUBLE_EQ(r_cpu.amplitudes[i], r_jax.amplitudes[i]) << i;
  }
}

TEST(Destriper, RequiresPointing) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto ob = sim::simulate_satellite("nopointing", fp, 512, {}, 3);
  ob.create_detdata(core::fields::kSignal, core::FieldType::kF64);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper;
  EXPECT_THROW(destriper.solve(ob, ctx, Backend::kCpu),
               std::invalid_argument);
}

TEST(Destriper, DistributedCommChargesTimeNotValues) {
  // Running the solve with a simulated multi-rank comm config must charge
  // allreduce time on the virtual clock without perturbing the numerics:
  // every rank computes the same global dot products, so amplitudes and
  // residuals stay bitwise identical to the single-rank solve.
  auto solo = make_scenario(33);
  core::ExecConfig ec;
  core::ExecContext ctx_solo(ec);
  const auto r_solo =
      Destriper(solo.cfg).solve(solo.ob, ctx_solo, Backend::kCpu);

  auto dist = make_scenario(33);
  dist.cfg.comm_ranks = 4;
  dist.cfg.comm_ranks_per_node = 2;
  core::ExecContext ctx_dist(ec);
  const auto r_dist =
      Destriper(dist.cfg).solve(dist.ob, ctx_dist, Backend::kCpu);

  ASSERT_EQ(r_solo.amplitudes.size(), r_dist.amplitudes.size());
  for (std::size_t i = 0; i < r_solo.amplitudes.size(); ++i) {
    ASSERT_EQ(r_solo.amplitudes[i], r_dist.amplitudes[i]) << i;
  }
  ASSERT_EQ(r_solo.residuals.size(), r_dist.residuals.size());
  for (std::size_t i = 0; i < r_solo.residuals.size(); ++i) {
    ASSERT_EQ(r_solo.residuals[i], r_dist.residuals[i]) << i;
  }

  // The comm charges show up on the clock and in the trace.
  EXPECT_GT(ctx_dist.elapsed(), ctx_solo.elapsed());
  int dot_spans = 0;
  int map_spans = 0;
  for (const auto& s : ctx_dist.tracer().spans()) {
    if (s.name == "destriper_allreduce_dot") ++dot_spans;
    if (s.name == "destriper_allreduce_map") ++map_spans;
  }
  EXPECT_GT(dot_spans, 0);
  EXPECT_GT(map_spans, 0);

  // And the distributed run itself is deterministic.
  auto again = make_scenario(33);
  again.cfg.comm_ranks = 4;
  again.cfg.comm_ranks_per_node = 2;
  core::ExecContext ctx_again(ec);
  const auto r_again =
      Destriper(again.cfg).solve(again.ob, ctx_again, Backend::kCpu);
  EXPECT_EQ(ctx_dist.elapsed(), ctx_again.elapsed());
  ASSERT_EQ(r_dist.amplitudes.size(), r_again.amplitudes.size());
  for (std::size_t i = 0; i < r_dist.amplitudes.size(); ++i) {
    ASSERT_EQ(r_dist.amplitudes[i], r_again.amplitudes[i]) << i;
  }
}

TEST(Destriper, AsyncOverlapHidesCollectivesKeepsProducts) {
  // Overlap mode pipelines each allreduce behind the next matvec: the
  // solve must get strictly faster while amplitudes and residuals stay
  // bitwise (the awaited values are the same numbers, just later).
  auto staged = make_scenario(33);
  staged.cfg.comm_ranks = 4;
  staged.cfg.comm_ranks_per_node = 2;
  core::ExecConfig ec;
  core::ExecContext ctx_staged(ec);
  const auto r_staged =
      Destriper(staged.cfg).solve(staged.ob, ctx_staged, Backend::kCpu);

  auto ov = make_scenario(33);
  ov.cfg.comm_ranks = 4;
  ov.cfg.comm_ranks_per_node = 2;
  ov.cfg.async_comm = toast::solver::AsyncComm::kOverlap;
  core::ExecContext ctx_ov(ec);
  const auto r_ov = Destriper(ov.cfg).solve(ov.ob, ctx_ov, Backend::kCpu);

  EXPECT_LT(ctx_ov.elapsed(), ctx_staged.elapsed());
  ASSERT_EQ(r_staged.amplitudes.size(), r_ov.amplitudes.size());
  for (std::size_t i = 0; i < r_staged.amplitudes.size(); ++i) {
    ASSERT_EQ(r_staged.amplitudes[i], r_ov.amplitudes[i]) << i;
  }
  ASSERT_EQ(r_staged.residuals, r_ov.residuals);

  // Unhidden latency surfaces as explicit wait spans on the trace.
  double wait_s = 0.0;
  bool saw_engine_lane = false;
  for (const auto& s : ctx_ov.tracer().spans()) {
    if (s.category == "wait") {
      wait_s += s.duration;
    }
  }
  for (const auto& [stream, name] : ctx_ov.tracer().stream_names()) {
    (void)stream;
    if (name == "async:comm") {
      saw_engine_lane = true;
    }
  }
  EXPECT_GE(wait_s, 0.0);
  EXPECT_TRUE(saw_engine_lane);
}

TEST(Destriper, PriorStabilizesUnhitSteps) {
  // With a tiny prior the solve must still converge even though flagged
  // samples leave some steps weakly constrained.
  auto sc = make_scenario(51);
  sc.cfg.prior_weight = 1e-8;
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  EXPECT_TRUE(result.converged);
  for (const double a : result.amplitudes) {
    ASSERT_TRUE(std::isfinite(a));
  }
}

// --- the overlapped CG collectives, pinned ----------------------------------
//
// Each case below pins one kOverlap solve to the bit: the clock end,
// every TimeLog category's seconds and calls, the summed "*_wait"
// seconds, the start and end of every span on the "async:comm" lane
// (count, first, last and a digest of all of them) and the fault and
// resilience counters.  The amplitudes and residuals must equal the
// staged solve under the same plan and policy.  The pinned values were
// captured from the task-engine implementation of the pipeline.

namespace {

struct PinnedSolve {
  toast::solver::DestriperResult result;
  std::string pin;
  /// (start, end) of every span on the "async:comm" lane, in order.
  std::vector<std::pair<double, double>> comm_spans;
  double wait_s = 0.0;
};

// FNV-1a over the bit patterns of the span bounds.
std::uint64_t bounds_digest(
    const std::vector<std::pair<double, double>>& spans) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [start, end] : spans) {
    mix(start);
    mix(end);
  }
  return h;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

PinnedSolve pinned_solve(AsyncComm mode, const fault::FaultPlan& plan,
                         const resilience::Policy& policy) {
  auto sc = make_scenario(33);
  sc.cfg.max_iterations = 12;
  sc.cfg.tolerance = 0.0;
  sc.cfg.checkpoint_interval = 4;
  sc.cfg.comm_ranks = 64;
  sc.cfg.comm_ranks_per_node = 4;
  sc.cfg.async_comm = mode;
  core::ExecConfig ec;
  ec.fault_plan = plan;
  ec.resilience_policy = policy;
  core::ExecContext ctx(ec);
  PinnedSolve out;
  out.result = Destriper(sc.cfg).solve(sc.ob, ctx, Backend::kCpu);

  std::string& pin = out.pin;
  pin += "clock_end " + fmt("%.17g", ctx.clock().now()) + "\n";
  const auto log = ctx.log();
  for (const auto& c : log.categories()) {
    pin += "log " + c + " " + fmt("%.17g", log.seconds(c)) + " " +
           std::to_string(log.calls(c)) + "\n";
    if (c.size() > 5 && c.compare(c.size() - 5, 5, "_wait") == 0) {
      out.wait_s += log.seconds(c);
    }
  }
  pin += "wait_s " + fmt("%.17g", out.wait_s) + "\n";

  int comm_stream = -1;
  for (const auto& [stream, name] : ctx.tracer().stream_names()) {
    if (name == "async:comm") {
      comm_stream = stream;
    }
  }
  for (const auto& sp : ctx.tracer().spans()) {
    if (comm_stream >= 0 && sp.stream == comm_stream) {
      out.comm_spans.emplace_back(sp.start, sp.start + sp.duration);
    }
  }
  char digest[64];
  std::snprintf(digest, sizeof digest, "comm_spans %zu digest %016llx\n",
                out.comm_spans.size(),
                static_cast<unsigned long long>(
                    bounds_digest(out.comm_spans)));
  pin += digest;
  if (!out.comm_spans.empty()) {
    pin += "first " + fmt("%.17g", out.comm_spans.front().first) + " " +
           fmt("%.17g", out.comm_spans.front().second) + "\n";
    pin += "last " + fmt("%.17g", out.comm_spans.back().first) + " " +
           fmt("%.17g", out.comm_spans.back().second) + "\n";
  }
  for (const auto& [k, v] : ctx.faults().counters()) {
    pin += "fault " + k + " " + fmt("%.17g", v) + "\n";
  }
  for (const auto& [k, v] : ctx.resilience().counters()) {
    pin += "resilience " + k + " " + fmt("%.17g", v) + "\n";
  }
  return out;
}

void expect_products_equal_staged(const PinnedSolve& ov,
                                  const fault::FaultPlan& plan,
                                  const resilience::Policy& policy) {
  const PinnedSolve staged = pinned_solve(AsyncComm::kStaged, plan, policy);
  EXPECT_EQ(ov.result.amplitudes, staged.result.amplitudes);
  EXPECT_EQ(ov.result.residuals, staged.result.residuals);
  EXPECT_EQ(ov.result.iterations, staged.result.iterations);
}

fault::FaultPlan pinned_rank_failures() {
  fault::FaultPlan p;
  p.seed = 17;
  fault::FaultRule r;
  r.kind = fault::FaultKind::kRankFailure;
  r.site = "destriper_cg";
  r.probability = 0.25;
  r.max_fires = 2;
  p.rules.push_back(r);
  return p;
}

}  // namespace

TEST(Destriper, OverlapPinnedFaultFree) {
  const PinnedSolve ov =
      pinned_solve(AsyncComm::kOverlap, fault::FaultPlan{}, {});
  EXPECT_EQ(ov.pin, R"(clock_end 0.013181308352632865
log build_noise_weighted 0.0029081465263157908 26
log destriper_allreduce_dot 0.0095760239400009967 38
log destriper_allreduce_dot_wait 0.0049950434794746304 22
log destriper_allreduce_map 0.0033263193600002882 13
log destriper_comm_drain 0.0010118726100003424 1
log noise_weight 0.0014367983157894738 26
log scan_map 0.0017569978947368425 13
log template_offset_add_to_signal 0.00066313768421052618 12
log template_offset_apply_diag_precond 3.4407578947368417e-05 13
log template_offset_project_signal 0.0003749042631578948 13
wait_s 0.0049950434794746304
comm_spans 51 digest c698b83b83d0dddc
first 0.00027896505263157894 0.00053483577263157699
last 0.012929307722632779 0.013181308352632865
)");
  expect_products_equal_staged(ov, fault::FaultPlan{}, {});

  // One comm lane: each collective starts once the previous one ended.
  ASSERT_GT(ov.comm_spans.size(), 1u);
  for (std::size_t i = 1; i < ov.comm_spans.size(); ++i) {
    EXPECT_GE(ov.comm_spans[i].first, ov.comm_spans[i - 1].second) << i;
  }
  // Unhidden latency is charged as wait spans, and only on the awaits
  // that found their slot still in flight.
  EXPECT_GT(ov.wait_s, 0.0);
}

TEST(Destriper, OverlapPinnedDrainOnRankFailure) {
  // No policy: a rollback drains the in-flight collectives, charging
  // their remaining latency before the checkpoint restore.
  const auto plan = pinned_rank_failures();
  const PinnedSolve ov = pinned_solve(AsyncComm::kOverlap, plan, {});
  EXPECT_EQ(ov.pin, R"(clock_end 0.017897251845264577
log build_noise_weighted 0.0038029608421052659 34
log destriper_allreduce_dot 0.012600031500000691 50
log destriper_allreduce_dot_wait 0.0056846335942124498 25
log destriper_allreduce_map 0.0043498022400007257 17
log destriper_comm_drain 0.0028137171457889706 3
log fault_checkpoint_restore 0 2
log fault_task_requeue 0 2
log noise_weight 0.0018788901052631585 34
log scan_map 0.0022976126315789477 17
log template_offset_add_to_signal 0.0008841835789473681 16
log template_offset_apply_diag_precond 4.499452631578947e-05 17
log template_offset_project_signal 0.00049025942105263172 17
wait_s 0.0056846335942124498
comm_spans 67 digest 4390e3ae6c87dcf1
first 0.00027896505263157894 0.00053483577263157699
last 0.01764525121526471 0.017897251845264577
fault fault_checkpoint_restores 2
fault fault_rank_failures 2
fault fault_task_requeues 8
)");
  expect_products_equal_staged(ov, plan, {});
}

TEST(Destriper, OverlapPinnedRequeueOnRankFailure) {
  // Elastic requeue: a rollback cancels the in-flight placements (no
  // slack charged) and the replay issues them again.
  const auto plan = pinned_rank_failures();
  resilience::Policy policy;
  policy.elastic.enabled = true;
  policy.elastic.min_ranks = 2;
  policy.elastic.requeue = true;
  const PinnedSolve ov = pinned_solve(AsyncComm::kOverlap, plan, policy);
  EXPECT_EQ(ov.pin, R"(clock_end 0.016095407309475632
log build_noise_weighted 0.0038029608421052659 34
log destriper_allreduce_dot 0.012600031500001238 50
log destriper_allreduce_dot_wait 0.0056846335942125435 25
log destriper_allreduce_map 0.004349802240000521 17
log destriper_comm_drain 0.0010118726099999347 1
log destriper_comm_requeue 0 2
log fault_checkpoint_restore 0 2
log fault_task_requeue 0 2
log noise_weight 0.0018788901052631585 34
log resilience_task_requeue 0 2
log scan_map 0.0022976126315789477 17
log template_offset_add_to_signal 0.0008841835789473681 16
log template_offset_apply_diag_precond 4.499452631578947e-05 17
log template_offset_project_signal 0.00049025942105263172 17
wait_s 0.0056846335942125435
comm_spans 67 digest 1dc4d072030a41c2
first 0.00027896505263157894 0.00053483577263157699
last 0.015843406679475765 0.016095407309475632
fault fault_checkpoint_restores 2
fault fault_rank_failures 2
fault fault_task_requeues 8
resilience resilience_task_requeues 8
)");
  expect_products_equal_staged(ov, plan, policy);
}

TEST(Destriper, OverlapPinnedLadderEscalatesMidSolve) {
  // The first rank failure escalates the "solver_comm" ladder: the
  // rest of the solve charges its collectives at the call site.
  const auto plan = pinned_rank_failures();
  resilience::Policy policy;
  policy.ladders.push_back(
      resilience::LadderSpec{resilience::Domain::kSolverComm, 1, 1});
  const PinnedSolve ov = pinned_solve(AsyncComm::kOverlap, plan, policy);
  EXPECT_EQ(ov.pin, R"(clock_end 0.024458452529473051
log build_noise_weighted 0.0038029608421052659 34
log destriper_allreduce_dot 0.012600031499998613 50
log destriper_allreduce_dot_wait 0.00089333488421044138 4
log destriper_allreduce_map 0.0043498022400007396 17
log destriper_comm_drain 0.0010118726099999052 1
log fault_checkpoint_restore 0 2
log fault_task_requeue 0 1
log noise_weight 0.0018788901052631585 34
log resilience_degrade 0 1
log scan_map 0.0022976126315789477 17
log template_offset_add_to_signal 0.0008841835789473681 16
log template_offset_apply_diag_precond 4.499452631578947e-05 17
log template_offset_project_signal 0.00049025942105263172 17
wait_s 0.00089333488421044138
comm_spans 15 digest a52d075e23115602
first 0.00027896505263157894 0.00053483577263157699
last 0.0038224542326314222 0.0040744548626313985
fault fault_checkpoint_restores 2
fault fault_rank_failures 2
fault fault_task_requeues 4
resilience resilience_degrades 1
)");
  expect_products_equal_staged(ov, plan, policy);
}
