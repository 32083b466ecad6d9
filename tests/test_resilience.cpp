// Tests of the declarative resilience policy engine: strict policy
// parsing, the deterministic circuit-breaker state machine
// (closed -> open -> half-open -> closed on the virtual clock),
// per-site retry overrides, retry-penalty deadlines, degradation
// ladders, and elastic world-shrink recovery through the destriper CG
// and the mpisim job — all under pinned seeds with bitwise-identical
// repeat runs, and with the empty-policy pass-through guarantee.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/sim_device.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"
#include "obs/trace.hpp"
#include "resilience/manager.hpp"
#include "resilience/policy.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace fault = toast::fault;
namespace resilience = toast::resilience;
namespace sim = toast::sim;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultRule;
using resilience::BreakerState;
using resilience::Domain;
using resilience::Manager;
using resilience::Policy;
using toast::accel::VirtualClock;

namespace {

Policy breaker_policy(int open_after, double open_seconds, int close_after) {
  Policy p;
  resilience::SitePolicy sp;
  sp.breaker.open_after = open_after;
  sp.breaker.open_seconds = open_seconds;
  sp.breaker.close_after = close_after;
  p.sites.push_back(std::move(sp));
  return p;
}

// --- policy parsing --------------------------------------------------------

TEST(ResiliencePolicy, ParsesFullDocument) {
  const Policy p = Policy::parse(R"({
    "schema": "toastcase-resilience-policy-v1",
    "sites": [
      {"site": "xla/", "deadline_seconds": 0.01,
       "retry": {"max_attempts": 5, "backoff_seconds": 1e-3,
                 "backoff_multiplier": 3.0, "failed_fraction": 0.25},
       "breaker": {"open_after": 3, "open_seconds": 0.05,
                   "close_after": 2, "jitter": 0.1}}
    ],
    "ladders": [{"domain": "solver_comm", "escalate_after": 2,
                 "max_level": 2}],
    "elastic": {"enabled": true, "min_ranks": 2,
                "rebuild_seconds": 1e-3, "requeue": false}
  })");
  ASSERT_EQ(p.sites.size(), 1u);
  EXPECT_EQ(p.sites[0].site, "xla/");
  EXPECT_TRUE(p.sites[0].has_retry);
  EXPECT_EQ(p.sites[0].retry.max_attempts, 5);
  EXPECT_DOUBLE_EQ(p.sites[0].retry.failed_fraction, 0.25);
  EXPECT_DOUBLE_EQ(p.sites[0].deadline_seconds, 0.01);
  EXPECT_EQ(p.sites[0].breaker.open_after, 3);
  EXPECT_EQ(p.sites[0].breaker.close_after, 2);
  EXPECT_DOUBLE_EQ(p.sites[0].breaker.jitter, 0.1);
  ASSERT_EQ(p.ladders.size(), 1u);
  EXPECT_EQ(p.ladders[0].domain, Domain::kSolverComm);
  EXPECT_EQ(p.ladders[0].escalate_after, 2);
  EXPECT_TRUE(p.elastic.enabled);
  EXPECT_EQ(p.elastic.min_ranks, 2);
  EXPECT_FALSE(p.elastic.requeue);
  EXPECT_FALSE(p.empty());
}

TEST(ResiliencePolicy, EmptyDocumentIsEmptyPolicy) {
  const Policy p =
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1"})");
  EXPECT_TRUE(p.empty());
  // Elastic present but disabled is still empty.
  const Policy q = Policy::parse(
      R"({"schema": "toastcase-resilience-policy-v1",
          "elastic": {"enabled": false}})");
  EXPECT_TRUE(q.empty());
}

TEST(ResiliencePolicy, RejectsUnknownKeysEverywhere) {
  EXPECT_THROW(Policy::parse(R"({"schema": "nope"})"), std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "sitez": []})"),
      std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "sites": [{"deadline_second": 1.0}]})"),
      std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "sites": [{"retry": {"max_attempt": 5}}]})"),
      std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "sites": [{"breaker": {"open_afte": 3}}]})"),
      std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "ladders": [{"domain": "x", "max_leve": 2}]})"),
      std::runtime_error);
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "elastic": {"enable": true}})"),
      std::runtime_error);
  // Ladders must name their domain.
  EXPECT_THROW(
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1",
                        "ladders": [{"escalate_after": 2}]})"),
      std::runtime_error);
}

TEST(ResiliencePolicy, RejectsWrongTypesAndFractions) {
  for (const char* elastic : {R"({"enabled": "true"})",
                              R"({"enabled": true, "requeue": "yes"})",
                              R"({"enabled": true, "min_ranks": 1.5})"}) {
    EXPECT_THROW(
        Policy::parse(
            std::string(R"({"schema": "toastcase-resilience-policy-v1",
                            "elastic": )") +
            elastic + "}"),
        std::runtime_error)
        << elastic;
  }
  // Ladder domains are the closed set the code consults: a retired
  // domain, a typo or a non-string fails with its key path instead of
  // parsing into a ladder that never fires.
  for (const char* domain : {"\"executor\"", "\"solvercomm\"", "3"}) {
    try {
      Policy::parse(std::string(R"({"schema": "toastcase-resilience-policy-v1",
                                    "ladders": [{"domain": )") +
                    domain + "}]}");
      ADD_FAILURE() << domain << " parsed";
    } catch (const toast::obs::json::ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ladders[0]: 'domain'"), std::string::npos)
          << what;
    }
  }
}

// --- disarmed manager ------------------------------------------------------

TEST(ResilienceManager, DisarmedManagerIsPassThrough) {
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(Policy{}, &clock, &tracer, 7);
  EXPECT_FALSE(m.armed());
  EXPECT_EQ(m.site_for("anywhere"), nullptr);
  EXPECT_TRUE(m.admit("anywhere"));
  m.on_failure("anywhere");
  m.on_success("anywhere");
  m.report_fault(Domain::kSolverComm, "x");
  EXPECT_EQ(m.level(Domain::kSolverComm), 0);
  EXPECT_FALSE(m.elastic_enabled());
  EXPECT_FALSE(m.allow_shrink(64));
  EXPECT_EQ(m.breaker_state("anywhere"), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(m.counters().empty());
}

// --- circuit breaker -------------------------------------------------------

TEST(ResilienceBreaker, OpenHalfOpenClosedTransitions) {
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(breaker_policy(2, 0.5, 1), &clock, &tracer, 7);

  // Two consecutive failures trip the breaker open.
  EXPECT_TRUE(m.admit("site_a"));
  m.on_failure("site_a");
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kClosed);
  m.on_failure("site_a");
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_opens"), 1.0);

  // Open: ops fast-fail until the cool-down elapses.
  EXPECT_FALSE(m.admit("site_a"));
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_fast_fails"), 1.0);

  // Cool-down elapsed: the next attempt is a half-open probe.
  clock.advance(0.6);
  EXPECT_TRUE(m.admit("site_a"));
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kHalfOpen);
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_half_opens"), 1.0);

  // One half-open success closes it (close_after = 1).
  m.on_success("site_a");
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_closes"), 1.0);

  // A failed half-open probe goes straight back to open.
  m.on_failure("site_a");
  m.on_failure("site_a");
  clock.advance(0.6);
  EXPECT_TRUE(m.admit("site_a"));
  m.on_failure("site_a");
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_opens"), 3.0);
}

TEST(ResilienceBreaker, StateIsPerConcreteSite) {
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(breaker_policy(1, 1.0, 1), &clock, &tracer, 7);
  m.on_failure("site_a");
  EXPECT_EQ(m.breaker_state("site_a"), BreakerState::kOpen);
  EXPECT_EQ(m.breaker_state("site_b"), BreakerState::kClosed);
  EXPECT_TRUE(m.admit("site_b"));
}

TEST(ResilienceBreaker, FastFailThroughInjectorThrowsWithoutCharge) {
  // An open breaker makes attempt_sync throw persistent with zero
  // failures and zero clock charge — the op must not silently run.
  FaultPlan plan;
  plan.seed = 17;
  plan.rules = {FaultRule{FaultKind::kLaunch, "", 1.0, 2}};
  plan.retry.max_attempts = 2;

  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(breaker_policy(2, 0.5, 1), &clock, &tracer, plan.seed);
  FaultInjector inj(plan, &clock, &tracer);
  inj.set_resilience(&m);

  // First op: both attempts fail (p = 1), breaker trips, throw.
  EXPECT_THROW(inj.attempt_sync(FaultKind::kLaunch, "xla/launch", 1e-3),
               fault::PersistentFaultError);
  EXPECT_EQ(m.breaker_state("xla/launch"), BreakerState::kOpen);
  const double t_open = clock.now();

  // Second op: the rule is exhausted (max_fires = 2) so the op itself
  // would succeed — but the breaker is open, so it fast-fails free.
  try {
    inj.attempt_sync(FaultKind::kLaunch, "xla/launch", 1e-3);
    FAIL() << "expected PersistentFaultError";
  } catch (const fault::PersistentFaultError& e) {
    EXPECT_EQ(e.failures(), 0);
  }
  EXPECT_DOUBLE_EQ(clock.now(), t_open);
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_breaker_fast_fails"), 1.0);

  // Cool-down over: half-open probe succeeds and the breaker closes.
  clock.advance(0.6);
  EXPECT_EQ(inj.attempt_sync(FaultKind::kLaunch, "xla/launch", 1e-3), 0);
  EXPECT_EQ(m.breaker_state("xla/launch"), BreakerState::kClosed);
}

TEST(ResilienceBreaker, PinnedSeedRepeatsBitwise) {
  FaultPlan plan;
  plan.seed = 20260809;
  plan.rules = {FaultRule{FaultKind::kTransfer, "", 0.6}};
  plan.retry.max_attempts = 2;

  auto run = [&]() {
    VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    Policy policy = breaker_policy(2, 1e-3, 1);
    policy.sites[0].breaker.jitter = 0.5;  // exercise the jitter draw
    Manager m(std::move(policy), &clock, &tracer, plan.seed);
    FaultInjector inj(plan, &clock, &tracer);
    inj.set_resilience(&m);
    for (int i = 0; i < 40; ++i) {
      try {
        inj.attempt_sync(FaultKind::kTransfer, "accel_update", 1e-4);
      } catch (const fault::PersistentFaultError&) {
      }
      clock.advance(2e-4);
    }
    return std::make_pair(clock.now(), m.counters());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second.at("resilience_breaker_opens"), 0.0);
}

// --- retry overrides and deadlines ----------------------------------------

TEST(ResilienceRetry, PerSiteBudgetOverridesPlan) {
  FaultPlan plan;
  plan.seed = 5;
  plan.rules = {FaultRule{FaultKind::kLaunch, "", 1.0}};
  plan.retry.max_attempts = 3;

  Policy policy;
  resilience::SitePolicy sp;
  sp.site = "xla/";
  sp.has_retry = true;
  sp.retry.max_attempts = 6;
  policy.sites.push_back(sp);

  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(policy, &clock, &tracer, plan.seed);
  FaultInjector inj(plan, &clock, &tracer);
  inj.set_resilience(&m);

  // Matching site: the override's six attempts all fail.
  const fault::ProbeResult a = inj.probe(FaultKind::kLaunch, "xla/kernel", 0.0);
  EXPECT_TRUE(a.persistent);
  EXPECT_EQ(a.failures, 6);
  // Non-matching site: the plan's three attempts.
  const fault::ProbeResult b = inj.probe(FaultKind::kLaunch, "omp/kernel", 0.0);
  EXPECT_TRUE(b.persistent);
  EXPECT_EQ(b.failures, 3);
}

TEST(ResilienceDeadline, CapsRetryPenaltyUnderPinnedSeed) {
  FaultPlan plan;
  plan.seed = 13;
  plan.rules = {FaultRule{FaultKind::kTransfer, "", 1.0}};
  plan.retry.max_attempts = 5;
  plan.retry.backoff_seconds = 1e-3;
  plan.retry.backoff_multiplier = 1.0;
  plan.retry.failed_fraction = 0.0;

  Policy policy;
  resilience::SitePolicy sp;
  sp.deadline_seconds = 2.5e-3;  // hit after the third 1 ms backoff
  policy.sites.push_back(sp);

  auto run = [&]() {
    VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    Manager m(policy, &clock, &tracer, plan.seed);
    FaultInjector inj(plan, &clock, &tracer);
    inj.set_resilience(&m);
    const fault::ProbeResult r = inj.probe(FaultKind::kTransfer, "up", 1.0);
    return std::make_tuple(r.failures, r.persistent, r.penalty,
                           m.counters());
  };
  const auto a = run();
  EXPECT_TRUE(std::get<1>(a));
  EXPECT_EQ(std::get<0>(a), 3);  // not the plan's five
  EXPECT_DOUBLE_EQ(std::get<2>(a), 3e-3);
  EXPECT_DOUBLE_EQ(std::get<3>(a).at("resilience_deadline_exceeded"), 1.0);
  // Bitwise repeat.
  const auto b = run();
  EXPECT_EQ(a, b);
}

// --- degradation ladders ---------------------------------------------------

TEST(ResilienceLadder, EscalatesEveryNFaultsUpToMaxLevel) {
  Policy policy;
  policy.ladders.push_back(resilience::LadderSpec{Domain::kSolverComm, 2, 2});
  VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  Manager m(policy, &clock, &tracer, 1);

  EXPECT_EQ(m.level(Domain::kSolverComm), 0);
  m.report_fault(Domain::kSolverComm, "x");
  EXPECT_EQ(m.level(Domain::kSolverComm), 0);
  m.report_fault(Domain::kSolverComm, "x");
  EXPECT_EQ(m.level(Domain::kSolverComm), 1);
  m.report_fault(Domain::kSolverComm, "x");
  m.report_fault(Domain::kSolverComm, "x");
  EXPECT_EQ(m.level(Domain::kSolverComm), 2);
  for (int i = 0; i < 6; ++i) {
    m.report_fault(Domain::kSolverComm, "x");
  }
  EXPECT_EQ(m.level(Domain::kSolverComm), 2);  // capped
  EXPECT_DOUBLE_EQ(m.counters().at("resilience_degrades"), 2.0);
  // A domain with no configured ladder never escalates.
  m.report_fault(Domain::kCollectives, "x");
  EXPECT_EQ(m.level(Domain::kCollectives), 0);
}

// --- elastic recovery through the destriper CG -----------------------------

struct SolveOut {
  std::vector<double> amplitudes;
  std::vector<double> residuals;
  double clock_end = 0.0;
  std::map<std::string, double> fault_counters;
  std::map<std::string, double> resilience_counters;
};

SolveOut destriper_solve(const FaultPlan& plan, const Policy& policy,
                         toast::solver::AsyncComm comm_mode) {
  const auto fp = sim::hex_focalplane(3, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;

  core::ExecConfig ec;
  ec.fault_plan = plan;
  ec.resilience_policy = policy;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  core::Data data;
  data.observations.push_back(
      sim::simulate_satellite("elastic", fp, 4096, scan, 11));
  sim::make_scan_pipeline(wf).exec(data, ctx);

  toast::solver::DestriperConfig dc;
  dc.nside = 16;
  dc.step_length = 128;
  dc.max_iterations = 12;
  dc.tolerance = 0.0;
  dc.checkpoint_interval = 4;
  dc.comm_ranks = 4;
  dc.comm_ranks_per_node = 2;
  dc.async_comm = comm_mode;
  toast::solver::Destriper destriper(dc);
  const auto r = destriper.solve(data.observations[0], ctx,
                                 core::Backend::kCpu);
  SolveOut out;
  out.amplitudes = r.amplitudes;
  out.residuals = r.residuals;
  out.clock_end = ctx.clock().now();
  out.fault_counters = ctx.faults().counters();
  out.resilience_counters = ctx.resilience().counters();
  return out;
}

Policy elastic_policy(int min_ranks, bool requeue = true) {
  Policy p;
  p.elastic.enabled = true;
  p.elastic.min_ranks = min_ranks;
  p.elastic.rebuild_seconds = 1e-3;
  p.elastic.requeue = requeue;
  return p;
}

TEST(ResilienceElastic, DestriperWorldShrinkMatchesCleanSolve) {
  FaultPlan plan;
  plan.seed = 17;
  plan.retry.max_attempts = 1;
  plan.rules = {FaultRule{FaultKind::kRankFailure, "destriper_cg", 1.0, 3}};

  const SolveOut clean = destriper_solve(FaultPlan{}, Policy{},
                                         toast::solver::AsyncComm::kStaged);
  const SolveOut chaos = destriper_solve(plan, elastic_policy(2),
                                         toast::solver::AsyncComm::kStaged);

  // The exhausted restore budget dropped a rank instead of giving up.
  EXPECT_DOUBLE_EQ(
      chaos.resilience_counters.at("resilience_world_shrinks"), 1.0);
  EXPECT_GT(chaos.fault_counters.at("fault_checkpoint_restores"), 0.0);
  // The collectives are cost-only, so the checkpoint restart on the
  // shrunken world recomputes the same numbers: amplitudes match the
  // clean solve exactly.
  ASSERT_EQ(chaos.amplitudes.size(), clean.amplitudes.size());
  for (std::size_t i = 0; i < clean.amplitudes.size(); ++i) {
    EXPECT_EQ(chaos.amplitudes[i], clean.amplitudes[i]) << i;
  }
  // Recovery was charged: the chaos run is slower.
  EXPECT_GT(chaos.clock_end, clean.clock_end);
}

TEST(ResilienceElastic, ShrinkDecisionsRepeatBitwise) {
  FaultPlan plan;
  plan.seed = 2026;
  plan.retry.max_attempts = 1;
  plan.rules = {FaultRule{FaultKind::kRankFailure, "destriper_cg", 0.6, 5}};

  const SolveOut a = destriper_solve(plan, elastic_policy(2),
                                     toast::solver::AsyncComm::kOverlap);
  const SolveOut b = destriper_solve(plan, elastic_policy(2),
                                     toast::solver::AsyncComm::kOverlap);
  EXPECT_EQ(a.clock_end, b.clock_end);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
  EXPECT_EQ(a.resilience_counters, b.resilience_counters);
  EXPECT_EQ(a.amplitudes, b.amplitudes);
  EXPECT_EQ(a.residuals, b.residuals);
}

TEST(ResilienceElastic, EmptyPolicyIsBitForBitIdentical) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rules = {FaultRule{FaultKind::kRankFailure, "destriper_cg", 0.4}};

  const Policy parsed_empty =
      Policy::parse(R"({"schema": "toastcase-resilience-policy-v1"})");
  const SolveOut a = destriper_solve(plan, Policy{},
                                     toast::solver::AsyncComm::kOverlap);
  const SolveOut b = destriper_solve(plan, parsed_empty,
                                     toast::solver::AsyncComm::kOverlap);
  EXPECT_EQ(a.clock_end, b.clock_end);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
  EXPECT_EQ(a.amplitudes, b.amplitudes);
  EXPECT_TRUE(b.resilience_counters.empty());
}

// --- elastic recovery through the mpisim job -------------------------------

toast::bench_model::ProblemSize small_cluster() {
  // tiny_problem is a single rank, which can never shrink; give the job
  // a 2x2 world so dropping a rank is possible.
  auto p = toast::bench_model::tiny_problem();
  p.nodes = 2;
  p.procs_per_node = 2;
  return p;
}

toast::mpisim::JobResult elastic_job(const FaultPlan& plan,
                                     const Policy& policy) {
  toast::mpisim::JobConfig cfg;
  cfg.problem = small_cluster();
  cfg.schedule.set_backend(core::Backend::kCpu);
  cfg.fault_plan = plan;
  cfg.resilience_policy = policy;
  return toast::mpisim::run_benchmark_job(cfg);
}

TEST(ResilienceElastic, JobShrinksWorldWhenReplayBudgetExhausts) {
  FaultPlan plan;
  plan.seed = 31;
  plan.retry.max_attempts = 2;
  plan.rules = {FaultRule{FaultKind::kRankFailure, "mpisim_rank", 1.0}};

  const auto clean = elastic_job(FaultPlan{}, Policy{});
  const int total = small_cluster().total_procs();
  EXPECT_EQ(clean.world_ranks, total);

  const auto shrunk = elastic_job(plan, elastic_policy(1));
  EXPECT_LT(shrunk.world_ranks, total);
  EXPECT_GE(shrunk.world_ranks, 1);
  EXPECT_GT(shrunk.fault_counters.at("resilience_world_shrinks"), 0.0);
  EXPECT_GT(shrunk.fault_counters.at("resilience_redistributed_obs"), 0.0);
  EXPECT_GT(shrunk.runtime, clean.runtime);

  // Same seed twice: identical shrink decisions, runtime and counters.
  const auto repeat = elastic_job(plan, elastic_policy(1));
  EXPECT_EQ(shrunk.runtime, repeat.runtime);
  EXPECT_EQ(shrunk.world_ranks, repeat.world_ranks);
  EXPECT_EQ(shrunk.fault_counters, repeat.fault_counters);

  // Without the elastic policy the same plan replays in place forever:
  // full world at the end, no shrink counters.
  const auto inelastic = elastic_job(plan, Policy{});
  EXPECT_EQ(inelastic.world_ranks, total);
  EXPECT_EQ(inelastic.fault_counters.count("resilience_world_shrinks"), 0u);
}

}  // namespace
