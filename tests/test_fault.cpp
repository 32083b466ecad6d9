// Tests of the deterministic fault-injection + recovery layer: plan
// parsing, the counter-based RNG's determinism, retry/backoff accounting
// on the virtual clock, the structured OOM error, and the end-to-end
// recovery paths (CPU fallback, pool shrink, checkpoint restore, rank
// replay) through the mpisim job and the destriper.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/sim_device.hpp"
#include "core/context.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "mpisim/job.hpp"
#include "obs/trace.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace fault = toast::fault;
namespace sim = toast::sim;
using toast::accel::DeviceOomError;
using toast::accel::SimDevice;
using toast::accel::VirtualClock;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultRule;

namespace {

FaultPlan one_rule(FaultKind kind, double probability,
                   const std::string& site = "", int max_fires = -1) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rules = {FaultRule{kind, site, probability, max_fires}};
  return plan;
}

// --- plan parsing ----------------------------------------------------------

TEST(FaultPlan, ParsesFullDocument) {
  const FaultPlan plan = FaultPlan::parse(R"({
    "schema": "toastcase-fault-plan-v1",
    "seed": 42,
    "retry": {"max_attempts": 5, "backoff_seconds": 1e-3,
              "backoff_multiplier": 3.0, "failed_fraction": 0.25},
    "rules": [
      {"kind": "transfer", "site": "update", "probability": 0.5},
      {"kind": "straggler", "probability": 0.1, "factor": 4.0},
      {"kind": "oom", "probability": 1.0, "pressure_threshold": 0.8,
       "max_fires": 2}
    ]
  })");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.retry.max_attempts, 5);
  EXPECT_DOUBLE_EQ(plan.retry.backoff_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(plan.retry.backoff_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(plan.retry.failed_fraction, 0.25);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kTransfer);
  EXPECT_EQ(plan.rules[0].site, "update");
  EXPECT_DOUBLE_EQ(plan.rules[1].factor, 4.0);
  EXPECT_EQ(plan.rules[2].max_fires, 2);
  EXPECT_DOUBLE_EQ(plan.rules[2].pressure_threshold, 0.8);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, DefaultsApplyWhenOmitted) {
  const FaultPlan plan = FaultPlan::parse(
      R"({"schema": "toastcase-fault-plan-v1",
          "rules": [{"kind": "launch", "probability": 1.0}]})");
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_EQ(plan.retry.max_attempts, 3);
  EXPECT_DOUBLE_EQ(plan.retry.failed_fraction, 0.5);
  EXPECT_EQ(plan.rules[0].max_fires, -1);
}

TEST(FaultPlan, RejectsBadDocuments) {
  EXPECT_THROW(FaultPlan::parse("[]"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse(R"({"schema": "nope"})"),
               std::runtime_error);
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema": "toastcase-fault-plan-v1",
                           "rules": [{"kind": "gremlin"}]})"),
      std::runtime_error);
  // A wrong type or a fraction must not become a default or a truncation.
  for (const char* body : {
           R"("rules": [{"kind": "launch", "probability": "0.5"}])",
           R"("rules": {"kind": "launch", "probability": 1.0})",
           R"("rules": [{"kind": "launch", "max_fires": 2.9}])",
           R"("retry": {"max_attempts": "5"})",
           R"("seed": -1)"}) {
    EXPECT_THROW(FaultPlan::parse(
                     std::string(R"({"schema": "toastcase-fault-plan-v1", )") +
                     body + "}"),
                 std::runtime_error)
        << body;
  }
}

TEST(FaultPlan, MissingKindNamesItsPath) {
  try {
    FaultPlan::parse(R"({"schema": "toastcase-fault-plan-v1",
                         "rules": [{"kind": "launch"}, {"probability": 1}]})");
    FAIL() << "a rule without a kind was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rules[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'kind'"), std::string::npos) << msg;
  }
}

TEST(FaultPlan, RejectsUnknownKeys) {
  // A typo must be an error, not a silently applied default.
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema": "toastcase-fault-plan-v1",
                           "sede": 7})"),
      std::runtime_error);
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema": "toastcase-fault-plan-v1",
                           "retry": {"max_attempt": 5}})"),
      std::runtime_error);
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema": "toastcase-fault-plan-v1",
                           "rules": [{"kind": "launch", "probability": 1.0,
                                      "max_fire": 2}]})"),
      std::runtime_error);
}

// --- disarmed injector -----------------------------------------------------

TEST(FaultInjector, EmptyPlanIsCompletelyInert) {
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  FaultInjector inj(FaultPlan{}, &clock, &tracer);

  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(inj.attempt_sync(FaultKind::kTransfer, "anywhere", 1.0), 0);
  const fault::ProbeResult pr = inj.probe(FaultKind::kLaunch, "x", 1.0);
  EXPECT_EQ(pr.failures, 0);
  EXPECT_FALSE(pr.persistent);
  EXPECT_DOUBLE_EQ(inj.straggler_factor("x"), 1.0);
  EXPECT_FALSE(inj.rank_failure("x"));
  EXPECT_FALSE(inj.oom_should_fire("x", 1, 0, 100));
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(inj.counters().empty());
}

// --- determinism -----------------------------------------------------------

TEST(FaultInjector, SameSeedSameDrawSequence) {
  const FaultPlan plan = one_rule(FaultKind::kLaunch, 0.3);
  FaultInjector a(plan, nullptr, nullptr);
  FaultInjector b(plan, nullptr, nullptr);
  for (int i = 0; i < 200; ++i) {
    const auto ra = a.probe(FaultKind::kLaunch, "kernel", 1.0);
    const auto rb = b.probe(FaultKind::kLaunch, "kernel", 1.0);
    EXPECT_EQ(ra.failures, rb.failures) << i;
    EXPECT_DOUBLE_EQ(ra.penalty, rb.penalty) << i;
  }
  EXPECT_EQ(a.counters(), b.counters());
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPlan plan_a = one_rule(FaultKind::kLaunch, 0.5);
  FaultPlan plan_b = plan_a;
  plan_b.seed = plan_a.seed + 1;
  FaultInjector a(plan_a, nullptr, nullptr);
  FaultInjector b(plan_b, nullptr, nullptr);
  int diffs = 0;
  for (int i = 0; i < 200; ++i) {
    diffs += a.probe(FaultKind::kLaunch, "k", 1.0).failures !=
                     b.probe(FaultKind::kLaunch, "k", 1.0).failures
                 ? 1
                 : 0;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, DrawsAreIndependentPerSite) {
  // The counter-based RNG keys on (kind, site): interleaving draws for
  // another site must not shift a site's own sequence.
  const FaultPlan plan = one_rule(FaultKind::kTransfer, 0.4);
  FaultInjector lone(plan, nullptr, nullptr);
  FaultInjector interleaved(plan, nullptr, nullptr);
  for (int i = 0; i < 50; ++i) {
    const auto want = lone.probe(FaultKind::kTransfer, "site_a", 1.0);
    interleaved.probe(FaultKind::kTransfer, "site_b", 1.0);
    const auto got = interleaved.probe(FaultKind::kTransfer, "site_a", 1.0);
    EXPECT_EQ(want.failures, got.failures) << i;
  }
}

// --- retry / backoff accounting --------------------------------------------

TEST(FaultInjector, AttemptSyncChargesWastedWorkAndBackoff) {
  FaultPlan plan = one_rule(FaultKind::kTransfer, 1.0, "", 2);
  plan.retry.max_attempts = 5;
  plan.retry.backoff_seconds = 1e-3;
  plan.retry.backoff_multiplier = 2.0;
  plan.retry.failed_fraction = 0.5;
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  FaultInjector inj(plan, &clock, &tracer);

  // The rule fires exactly twice (max_fires), so the op succeeds on the
  // third attempt: two wasted half-ops plus backoff(0) + backoff(1).
  const int failures = inj.attempt_sync(FaultKind::kTransfer, "t", 2.0);
  EXPECT_EQ(failures, 2);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0 * 0.5 * 2.0 + 1e-3 + 2e-3);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "fault_retry_transfer");
  EXPECT_EQ(tracer.spans()[0].category, "fault");
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_transfer_retries"), 2.0);

  // Spent rule: subsequent attempts are clean and charge nothing.
  const double t = clock.now();
  EXPECT_EQ(inj.attempt_sync(FaultKind::kTransfer, "t", 2.0), 0);
  EXPECT_DOUBLE_EQ(clock.now(), t);
}

TEST(FaultInjector, PersistentFaultThrowsAfterRetryBudget) {
  FaultPlan plan = one_rule(FaultKind::kLaunch, 1.0);
  plan.retry.max_attempts = 3;
  VirtualClock clock;
  FaultInjector inj(plan, &clock, nullptr);
  EXPECT_THROW(inj.attempt_sync(FaultKind::kLaunch, "k", 1.0),
               fault::PersistentFaultError);
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_persistent"), 1.0);
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_launch_retries"), 3.0);
  EXPECT_GT(clock.now(), 0.0);  // the wasted attempts were still charged
}

TEST(FaultInjector, ProbeHasNoSideEffects) {
  const FaultPlan plan = one_rule(FaultKind::kLaunch, 1.0);
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  FaultInjector inj(plan, &clock, &tracer);
  const auto pr = inj.probe(FaultKind::kLaunch, "k", 4.0);
  EXPECT_TRUE(pr.persistent);
  EXPECT_EQ(pr.failures, 3);
  EXPECT_GT(pr.penalty, 0.0);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(FaultInjector, SiteSubstringMatching) {
  FaultInjector inj(one_rule(FaultKind::kLaunch, 1.0, "pool"), nullptr,
                    nullptr);
  EXPECT_EQ(inj.probe(FaultKind::kLaunch, "omptarget_pool", 1.0).failures, 3);
  EXPECT_EQ(inj.probe(FaultKind::kLaunch, "elsewhere", 1.0).failures, 0);
  EXPECT_EQ(inj.probe(FaultKind::kTransfer, "omptarget_pool", 1.0).failures,
            0);
}

TEST(FaultInjector, StragglerFactorAndRankFailure) {
  FaultPlan plan;
  plan.seed = 3;
  plan.rules = {FaultRule{FaultKind::kStraggler, "", 1.0, -1, 3.5},
                FaultRule{FaultKind::kRankFailure, "", 1.0, 2}};
  FaultInjector inj(plan, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(inj.straggler_factor("stream"), 3.5);
  EXPECT_TRUE(inj.rank_failure("rank"));
  EXPECT_TRUE(inj.rank_failure("rank"));
  EXPECT_FALSE(inj.rank_failure("rank"));  // max_fires = 2 spent
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_rank_failures"), 2.0);
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_stragglers"), 1.0);
}

TEST(FaultInjector, CommKindsRoundTripAndPlanParse) {
  EXPECT_EQ(fault::kind_from_string("link"), FaultKind::kLinkDegrade);
  EXPECT_EQ(fault::kind_from_string("chunk"), FaultKind::kChunkLoss);
  EXPECT_STREQ(fault::to_string(FaultKind::kLinkDegrade), "link");
  EXPECT_STREQ(fault::to_string(FaultKind::kChunkLoss), "chunk");
  const FaultPlan plan = FaultPlan::parse(
      R"({"schema": "toastcase-fault-plan-v1",
          "rules": [{"kind": "link", "probability": 0.5, "factor": 3.0},
                    {"kind": "chunk", "site": "comm", "probability": 0.1}]})");
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kChunkLoss);
}

TEST(FaultInjector, LinkDegradeFactorIsDeterministic) {
  // Disarmed injector never degrades.
  FaultInjector inert(FaultPlan{}, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(inert.link_degrade_factor("comm/link/0>1"), 1.0);

  FaultPlan plan;
  plan.seed = 17;
  plan.rules = {FaultRule{FaultKind::kLinkDegrade, "link", 1.0, -1, 2.5}};
  FaultInjector inj(plan, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(inj.link_degrade_factor("comm/link/0>1"), 2.5);
  EXPECT_DOUBLE_EQ(inj.link_degrade_factor("comm/chunk/0>1"), 1.0)
      << "site filter must apply";
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_link_degrades"), 1.0);

  // Same seed, fresh injector: identical factor sequence.
  plan.rules[0].probability = 0.5;
  FaultInjector a(plan, nullptr, nullptr);
  FaultInjector b(plan, nullptr, nullptr);
  for (int i = 0; i < 16; ++i) {
    const std::string site = "comm/link/" + std::to_string(i) + ">0";
    EXPECT_EQ(a.link_degrade_factor(site), b.link_degrade_factor(site));
  }
}

// --- structured OOM --------------------------------------------------------

TEST(DeviceOom, RealOverflowCarriesStructuredFields) {
  SimDevice dev;
  const std::size_t cap = dev.capacity_bytes();
  dev.allocate(cap / 2, "pool");
  dev.allocate(cap / 4, "jit_temp");
  try {
    dev.allocate(cap / 2, "pool");
    FAIL() << "expected DeviceOomError";
  } catch (const DeviceOomError& e) {
    EXPECT_EQ(e.info().requested_bytes, cap / 2);
    EXPECT_EQ(e.info().in_use_bytes, cap / 2 + cap / 4);
    EXPECT_EQ(e.info().capacity_bytes, cap);
    EXPECT_FALSE(e.info().injected);
    ASSERT_EQ(e.info().top_consumers.size(), 2u);
    // Largest holder first.
    EXPECT_EQ(e.info().top_consumers[0].first, "pool");
    EXPECT_EQ(e.info().top_consumers[0].second, cap / 2);
    EXPECT_NE(std::string(e.what()).find("simulated device out of memory"),
              std::string::npos);
  }
}

TEST(DeviceOom, InjectedFaultFiresUnderPressureOnly) {
  FaultPlan plan = one_rule(FaultKind::kDeviceOom, 1.0);
  plan.rules[0].pressure_threshold = 0.5;
  FaultInjector inj(plan, nullptr, nullptr);
  SimDevice dev;
  dev.set_fault_hook(&inj);

  const std::size_t cap = dev.capacity_bytes();
  dev.allocate(cap / 4, "pool");  // 25% pressure: below the threshold
  try {
    dev.allocate(cap / 2, "pool");  // 75% pressure: the hook fires
    FAIL() << "expected injected DeviceOomError";
  } catch (const DeviceOomError& e) {
    EXPECT_TRUE(e.info().injected);
    EXPECT_EQ(e.info().in_use_bytes, cap / 4);
  }
  EXPECT_DOUBLE_EQ(inj.counters().at("fault_oom_injected"), 1.0);
}

TEST(DeviceOom, OnOomRetriesInjectedFaultsOnly) {
  FaultPlan plan = one_rule(FaultKind::kDeviceOom, 1.0);
  plan.retry.max_attempts = 3;
  VirtualClock clock;
  FaultInjector inj(plan, &clock, nullptr);

  toast::accel::OomInfo injected;
  injected.injected = true;
  EXPECT_TRUE(inj.on_oom("site", DeviceOomError(injected), 0));
  EXPECT_TRUE(inj.on_oom("site", DeviceOomError(injected), 1));
  EXPECT_FALSE(inj.on_oom("site", DeviceOomError(injected), 2));  // budget
  EXPECT_GT(clock.now(), 0.0);

  toast::accel::OomInfo real;  // real overflow: never retried
  EXPECT_FALSE(inj.on_oom("site", DeviceOomError(real), 0));
}

// --- end-to-end recovery ---------------------------------------------------

toast::mpisim::JobResult tiny_job(core::Backend backend,
                                  const FaultPlan& plan) {
  toast::mpisim::JobConfig cfg;
  cfg.problem = toast::bench_model::tiny_problem();
  cfg.schedule.set_backend(backend);
  cfg.fault_plan = plan;
  return toast::mpisim::run_benchmark_job(cfg);
}

TEST(FaultRecovery, EmptyPlanIsBitForBitIdentical) {
  const auto base = tiny_job(core::Backend::kOmpTarget, FaultPlan{});
  const auto zero = tiny_job(core::Backend::kOmpTarget, FaultPlan{});
  EXPECT_EQ(base.runtime, zero.runtime);
  EXPECT_EQ(base.rank_spans.size(), zero.rank_spans.size());
  EXPECT_TRUE(zero.fault_counters.empty());
  EXPECT_TRUE(zero.degraded_kernels.empty());
}

TEST(FaultRecovery, PersistentLaunchFaultsFallBackToCpu) {
  const auto r =
      tiny_job(core::Backend::kOmpTarget, one_rule(FaultKind::kLaunch, 1.0));
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.runtime, 0.0);
  EXPECT_GT(r.fault_counters.at("fault_fallbacks"), 0.0);
  EXPECT_GT(r.fault_counters.at("fault_launch_retries"), 0.0);
  EXPECT_FALSE(r.degraded_kernels.empty());
}

TEST(FaultRecovery, PersistentLaunchFaultOnJaxLeavesProductsUntouched) {
  // A jitted kernel probes for launch faults before it computes any value
  // (its donated signal is updated in place once it runs) or charges a
  // fusion group: under a probability-1 plan scan_map raises, the host
  // signal keeps its input bits, and a second run of the same plan ends
  // on the same clock.
  const std::int64_t n_det = 2;
  const std::int64_t n_samp = 64;
  const std::int64_t nnz = 3;
  const std::int64_t n_pix = 48;
  const std::vector<core::Interval> intervals = {{0, 30}, {34, 64}};
  std::vector<double> sky(static_cast<std::size_t>(n_pix * nnz));
  for (std::size_t i = 0; i < sky.size(); ++i) {
    sky[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  std::vector<std::int64_t> pixels(static_cast<std::size_t>(n_det * n_samp));
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = i % 11 == 0 ? -1 : static_cast<std::int64_t>(i * 5) % n_pix;
  }
  const std::vector<double> weights(
      static_cast<std::size_t>(nnz * n_det * n_samp), 0.5);
  std::vector<double> signal0(static_cast<std::size_t>(n_det * n_samp));
  for (std::size_t i = 0; i < signal0.size(); ++i) {
    signal0[i] = static_cast<double>(i) * 0.125;
  }

  struct Run {
    bool raised = false;
    std::vector<double> signal;
    std::map<std::string, double> counters;
    double virtual_s = 0.0;
  };
  const auto run = [&] {
    // Cold JIT caches, so both runs pay the same compile charge.
    toast::kernels::jax::clear_jit_caches();
    core::ExecConfig cfg;
    cfg.backend = core::Backend::kJax;
    cfg.fault_plan = one_rule(FaultKind::kLaunch, 1.0);
    core::ExecContext ctx(cfg);
    Run r;
    r.signal = signal0;
    try {
      toast::kernels::jax::scan_map(sky.data(), n_pix, nnz, pixels.data(),
                                    weights.data(), 1.0, intervals, n_det,
                                    n_samp, r.signal.data(), ctx);
    } catch (const fault::PersistentFaultError&) {
      r.raised = true;
    }
    r.counters = ctx.faults().counters();
    r.virtual_s = ctx.elapsed();
    return r;
  };
  const Run a = run();
  const Run b = run();
  EXPECT_TRUE(a.raised);
  EXPECT_TRUE(b.raised);
  EXPECT_EQ(a.signal, signal0);
  EXPECT_DOUBLE_EQ(a.counters.at("fault_persistent"), 1.0);
  EXPECT_GT(a.counters.at("fault_launch_retries"), 0.0);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_GT(a.virtual_s, 0.0);
  EXPECT_EQ(a.virtual_s, b.virtual_s);
}

namespace {

/// One build_noise_weighted call on a device too small for its
/// temporaries: whether it raised DeviceOomError, the donated zmap after
/// it and the clock it ended on.
struct OverCapacityRun {
  bool raised = false;
  std::vector<double> zmap;
  double virtual_s = 0.0;
};

const std::vector<double>& over_capacity_zmap() {
  static const std::vector<double> zmap = [] {
    std::vector<double> z(48 * 3);
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = 0.375 * static_cast<double>(i % 5) - 0.25;
    }
    return z;
  }();
  return zmap;
}

OverCapacityRun run_over_capacity() {
  const std::int64_t n_det = 2;
  const std::int64_t n_samp = 64;
  const std::int64_t nnz = 3;
  const std::int64_t n_pix = 48;
  const std::vector<core::Interval> intervals = {{0, 30}, {34, 64}};
  std::vector<std::int64_t> pixels(static_cast<std::size_t>(n_det * n_samp));
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<std::int64_t>(i * 7) % n_pix;
  }
  const std::vector<double> weights(
      static_cast<std::size_t>(nnz * n_det * n_samp), 0.5);
  std::vector<double> signal(static_cast<std::size_t>(n_det * n_samp));
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<double>(i) * 0.125;
  }
  const std::vector<double> det_scale = {1.0, 0.5};

  // Cold JIT caches, so both runs pay the same compile charge.
  toast::kernels::jax::clear_jit_caches();
  core::ExecConfig cfg;
  cfg.backend = core::Backend::kJax;
  cfg.device_spec.memory_bytes = 4096.0;
  core::ExecContext ctx(cfg);
  OverCapacityRun r;
  r.zmap = over_capacity_zmap();
  try {
    toast::kernels::jax::build_noise_weighted(
        pixels.data(), weights.data(), n_pix, nnz, signal.data(),
        det_scale.data(), nullptr, 0, intervals, n_det, n_samp,
        r.zmap.data(), ctx);
  } catch (const DeviceOomError& e) {
    r.raised = true;
    EXPECT_FALSE(e.info().injected);
    EXPECT_EQ(e.info().capacity_bytes, 4096u);
  }
  r.virtual_s = ctx.elapsed();
  return r;
}

}  // namespace

TEST(FaultRecovery, JaxCallOverCapacityLeavesDonatedBufferUntouched) {
  // The capacity check of a jitted call's temporaries runs before any
  // value is computed, so the zmap the call would update in place keeps
  // its input bits.
  const OverCapacityRun r = run_over_capacity();
  EXPECT_TRUE(r.raised);
  const auto& zmap = over_capacity_zmap();
  ASSERT_EQ(r.zmap.size(), zmap.size());
  EXPECT_EQ(std::memcmp(r.zmap.data(), zmap.data(),
                        zmap.size() * sizeof(double)),
            0);
}

TEST(FaultRecovery, JaxCallOverCapacityEndsOnTheSameClock) {
  const OverCapacityRun a = run_over_capacity();
  const OverCapacityRun b = run_over_capacity();
  EXPECT_TRUE(a.raised);
  EXPECT_TRUE(b.raised);
  EXPECT_GT(a.virtual_s, 0.0);
  EXPECT_EQ(a.virtual_s, b.virtual_s);
}

TEST(FaultRecovery, RankFailuresReplayBoundedly) {
  FaultPlan plan = one_rule(FaultKind::kRankFailure, 1.0, "", 2);
  const auto clean = tiny_job(core::Backend::kCpu, FaultPlan{});
  const auto r = tiny_job(core::Backend::kCpu, plan);
  EXPECT_DOUBLE_EQ(r.fault_counters.at("fault_rank_failures"), 2.0);
  EXPECT_GT(r.runtime, clean.runtime);  // the replays were charged
}

TEST(FaultRecovery, SameSeedTwiceIsDeterministic) {
  FaultPlan plan;
  plan.seed = 20230923;
  plan.rules = {FaultRule{FaultKind::kTransfer, "", 0.1},
                FaultRule{FaultKind::kLaunch, "", 0.1},
                FaultRule{FaultKind::kStraggler, "", 0.2, -1, 2.5},
                FaultRule{FaultKind::kRankFailure, "", 0.3, 1}};
  const auto a = tiny_job(core::Backend::kJax, plan);
  const auto b = tiny_job(core::Backend::kJax, plan);
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
  EXPECT_EQ(a.degraded_kernels, b.degraded_kernels);
}

TEST(FaultRecovery, DestriperCheckpointRestoreMatchesCleanSolve) {
  // A rank failure mid-CG restores the last checkpoint and replays; the
  // replayed iterations recompute the same numbers, so the solution must
  // equal the fault-free solve exactly — only the charged time grows.
  const auto fp = sim::hex_focalplane(3, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;

  const auto make_ob = [&]() {
    core::ExecConfig ec;
    core::ExecContext ctx(ec);
    sim::WorkflowConfig wf;
    wf.nside = 16;
    core::Data data;
    data.observations.push_back(
        sim::simulate_satellite("ckpt", fp, 4096, scan, 11));
    sim::make_scan_pipeline(wf).exec(data, ctx);
    return std::move(data.observations[0]);
  };

  toast::solver::DestriperConfig dc;
  dc.nside = 16;
  dc.step_length = 128;
  dc.max_iterations = 25;
  dc.tolerance = 1e-10;
  dc.checkpoint_interval = 4;
  toast::solver::Destriper destriper(dc);

  core::Observation clean_ob = make_ob();
  core::ExecConfig clean_ec;
  core::ExecContext clean_ctx(clean_ec);
  const auto clean =
      destriper.solve(clean_ob, clean_ctx, core::Backend::kCpu);

  core::Observation chaos_ob = make_ob();
  core::ExecConfig chaos_ec;
  chaos_ec.fault_plan =
      one_rule(FaultKind::kRankFailure, 0.4, "destriper_cg");
  core::ExecContext chaos_ctx(chaos_ec);
  const auto chaos =
      destriper.solve(chaos_ob, chaos_ctx, core::Backend::kCpu);

  EXPECT_GT(chaos_ctx.faults().counters().at("fault_checkpoint_restores"),
            0.0);
  EXPECT_EQ(chaos.iterations, clean.iterations);
  ASSERT_EQ(chaos.amplitudes.size(), clean.amplitudes.size());
  for (std::size_t i = 0; i < clean.amplitudes.size(); ++i) {
    EXPECT_EQ(chaos.amplitudes[i], clean.amplitudes[i]) << i;
  }
}

}  // namespace
