// Resilience policy engine bench (schema toastcase-bench-resilience-v1).
//
// Five sections, every one an invariant the policy engine must hold:
//   - "identity": a pinned rank-failure chaos solve run with no policy
//     and again with a parsed-but-empty policy document.  The disarmed
//     manager must be pass-through: identical virtual runtime, science
//     products and fault counters, bit for bit.
//   - "breaker": a launch-fault site behind a circuit breaker.  Reports
//     the open/half-open/close/fast-fail counts and asserts a same-seed
//     repeat is bitwise identical (the breaker's jittered cool-down is
//     drawn from the deterministic fault RNG).
//   - "shrink": the destriper CG under a pinned rank-death plan with an
//     elastic policy (--faults/--policy override the built-in pair; CI
//     passes bench/faultplans/elastic_rank_death.json +
//     policy_elastic.json).  The exhausted restore budget drops a rank,
//     the CG restarts from checkpoint on the shrunken world, and the
//     amplitudes must match the no-fault solve exactly (the collectives
//     are cost-only).  Run twice: shrink decisions must repeat bitwise.
//   - "job_shrink": the mpisim benchmark job under unbounded rank death;
//     the world shrinks to the policy floor and the dead ranks'
//     observations are redistributed deterministically.
//   - "degraded": the same chaos solve with a solver_comm degradation
//     ladder that steps overlap -> staged; the products must stay equal
//     to the clean solve while the ladder escalates.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "mpisim/job.hpp"
#include "resilience/manager.hpp"
#include "resilience/policy.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace sim = toast::sim;
namespace fault = toast::fault;
namespace resilience = toast::resilience;
using core::Backend;
using toast::solver::AsyncComm;
using toast::solver::Destriper;
using toast::solver::DestriperConfig;

namespace {

// Same scenario as bench_async's solver section: pinned seed, fixed
// iteration count so the comm schedule (and any shrink point) is stable.
struct Scenario {
  core::Observation ob;
  DestriperConfig cfg;
};

Scenario make_scenario(std::uint64_t seed = 11) {
  DestriperConfig cfg;
  cfg.nside = 16;
  cfg.step_length = 128;
  cfg.max_iterations = 12;
  cfg.tolerance = 0.0;
  cfg.comm_ranks = 64;
  cfg.comm_ranks_per_node = 4;

  const auto fp = sim::hex_focalplane(4, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;
  Scenario s{sim::simulate_satellite("destripe", fp, 8192, scan, seed), cfg};

  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = cfg.nside;
  core::Data data;
  data.observations.push_back(std::move(s.ob));
  sim::make_scan_pipeline(wf).exec(data, ctx);
  s.ob = std::move(data.observations[0]);

  const std::int64_t n_det = s.ob.n_detectors();
  const std::int64_t n_samp = s.ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + cfg.step_length - 1) / cfg.step_length;
  std::mt19937 gen(static_cast<unsigned>(seed));
  std::normal_distribution<double> off(0.0, 1e-4);
  std::normal_distribution<double> white(0.0, 1e-7);
  std::vector<double> injected(static_cast<std::size_t>(n_det * n_amp_det));
  for (auto& v : injected) v = off(gen);
  auto signal = s.ob.field(core::fields::kSignal).f64();
  for (std::int64_t d = 0; d < n_det; ++d) {
    for (std::int64_t t = 0; t < n_samp; ++t) {
      signal[static_cast<std::size_t>(d * n_samp + t)] +=
          injected[static_cast<std::size_t>(d * n_amp_det +
                                            t / cfg.step_length)] +
          white(gen);
    }
  }
  return s;
}

struct SolveResult {
  double runtime = 0.0;
  std::vector<double> amplitudes;
  std::vector<double> residuals;
  std::map<std::string, double> fault_counters;
  std::map<std::string, double> resilience_counters;
  std::vector<toast::obs::Span> spans;
};

SolveResult run_solve(AsyncComm mode, const fault::FaultPlan& fplan,
                      const resilience::Policy& policy) {
  auto sc = make_scenario();
  sc.cfg.async_comm = mode;
  core::ExecConfig ec;
  ec.fault_plan = fplan;
  ec.resilience_policy = policy;
  core::ExecContext ctx(ec);
  const double t0 = ctx.clock().now();
  Destriper destriper(sc.cfg);
  const auto r = destriper.solve(sc.ob, ctx, Backend::kCpu);
  SolveResult out;
  out.runtime = ctx.clock().now() - t0;
  out.amplitudes = r.amplitudes;
  out.residuals = r.residuals;
  out.fault_counters = ctx.faults().counters();
  out.resilience_counters = ctx.resilience().counters();
  out.spans = ctx.tracer().spans();
  return out;
}

bool solves_equal(const SolveResult& a, const SolveResult& b) {
  return a.runtime == b.runtime && a.amplitudes == b.amplitudes &&
         a.residuals == b.residuals;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

double counter(const std::map<std::string, double>& c,
               const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

fault::FaultPlan builtin_elastic_plan() {
  fault::FaultPlan p;
  p.seed = 2027;
  p.retry.max_attempts = 1;
  fault::FaultRule r;
  r.kind = fault::FaultKind::kRankFailure;
  r.site = "destriper_cg";
  r.probability = 1.0;
  r.max_fires = 3;
  p.rules.push_back(r);
  return p;
}

resilience::Policy builtin_elastic_policy() {
  resilience::Policy p;
  resilience::SitePolicy sp;
  sp.site = "destriper_cg";
  sp.has_retry = true;
  sp.retry.max_attempts = 1;
  p.sites.push_back(sp);
  p.elastic.enabled = true;
  p.elastic.min_ranks = 2;
  p.elastic.rebuild_seconds = 1e-3;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = toast::bench::parse_options(argc, argv);
  toast::bench::print_header(
      "Resilience policy engine: identity, breakers, elastic recovery");

  fault::FaultPlan elastic_plan = builtin_elastic_plan();
  if (!opt.faults_path.empty()) {
    elastic_plan = fault::FaultPlan::load_file(opt.faults_path);
  }
  resilience::Policy elastic_policy = builtin_elastic_policy();
  if (!opt.policy_path.empty()) {
    elastic_policy = resilience::Policy::load_file(opt.policy_path);
  }

  // --- identity: a disarmed manager is pass-through -------------------------
  fault::FaultPlan chaos;
  chaos.seed = 17;
  {
    fault::FaultRule r;
    r.kind = fault::FaultKind::kRankFailure;
    r.site = "destriper_cg";
    r.probability = 0.25;
    r.max_fires = 2;
    chaos.rules.push_back(r);
  }
  const resilience::Policy empty_policy = resilience::Policy::parse(
      R"({"schema": "toastcase-resilience-policy-v1"})");
  const auto id_none = run_solve(AsyncComm::kStaged, chaos, {});
  const auto id_empty = run_solve(AsyncComm::kStaged, chaos, empty_policy);
  const bool identity_ok = solves_equal(id_none, id_empty) &&
                           id_none.fault_counters == id_empty.fault_counters &&
                           id_empty.resilience_counters.empty();
  std::printf("identity: no-policy %.7e  empty-policy %.7e  %s\n",
              id_none.runtime, id_empty.runtime,
              identity_ok ? "[bitwise]" : "[IDENTITY MISMATCH]");

  // --- breaker: deterministic state machine ---------------------------------
  auto run_breaker = [&]() {
    fault::FaultPlan plan;
    plan.seed = 20270809;
    fault::FaultRule r;
    r.kind = fault::FaultKind::kTransfer;
    r.probability = 0.6;
    plan.rules.push_back(r);
    plan.retry.max_attempts = 2;

    resilience::Policy policy;
    resilience::SitePolicy sp;
    sp.breaker.open_after = 2;
    sp.breaker.open_seconds = 1e-3;
    sp.breaker.close_after = 1;
    sp.breaker.jitter = 0.5;
    policy.sites.push_back(sp);

    toast::accel::VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    resilience::Manager m(policy, &clock, &tracer, plan.seed);
    fault::FaultInjector inj(plan, &clock, &tracer);
    inj.set_resilience(&m);
    for (int i = 0; i < 200; ++i) {
      try {
        inj.attempt_sync(fault::FaultKind::kTransfer, "accel_update", 1e-4);
      } catch (const fault::PersistentFaultError&) {
      }
      clock.advance(2e-4);
    }
    return std::make_pair(clock.now(), m.counters());
  };
  const auto breaker_a = run_breaker();
  const auto breaker_b = run_breaker();
  const bool breaker_ok = breaker_a == breaker_b &&
                          counter(breaker_a.second,
                                  "resilience_breaker_opens") > 0.0;
  std::printf("breaker:  opens %.0f  half-opens %.0f  closes %.0f  "
              "fast-fails %.0f  %s\n",
              counter(breaker_a.second, "resilience_breaker_opens"),
              counter(breaker_a.second, "resilience_breaker_half_opens"),
              counter(breaker_a.second, "resilience_breaker_closes"),
              counter(breaker_a.second, "resilience_breaker_fast_fails"),
              breaker_ok ? "[bitwise]" : "[BREAKER MISMATCH]");

  // --- shrink: elastic destriper recovery -----------------------------------
  const auto clean = run_solve(AsyncComm::kStaged, {}, {});
  const auto shrink_a =
      run_solve(AsyncComm::kStaged, elastic_plan, elastic_policy);
  const auto shrink_b =
      run_solve(AsyncComm::kStaged, elastic_plan, elastic_policy);
  const double shrinks =
      counter(shrink_a.resilience_counters, "resilience_world_shrinks");
  const double amp_diff = max_abs_diff(clean.amplitudes, shrink_a.amplitudes);
  const bool shrink_deterministic =
      solves_equal(shrink_a, shrink_b) &&
      shrink_a.fault_counters == shrink_b.fault_counters &&
      shrink_a.resilience_counters == shrink_b.resilience_counters;
  const bool shrink_ok =
      shrink_deterministic && shrinks > 0.0 && amp_diff == 0.0 &&
      shrink_a.runtime > clean.runtime;
  std::printf("shrink:   world shrinks %.0f  restores %.0f  amp |d| %.1e  "
              "runtime %.7e (clean %.7e)  %s\n",
              shrinks,
              counter(shrink_a.fault_counters, "fault_checkpoint_restores"),
              amp_diff, shrink_a.runtime, clean.runtime,
              shrink_ok ? "[ok]" : "[SHRINK MISMATCH]");

  // --- job_shrink: elastic mpisim job ---------------------------------------
  auto run_job = [&](const fault::FaultPlan& plan,
                     const resilience::Policy& policy) {
    toast::mpisim::JobConfig cfg;
    cfg.problem = toast::bench_model::tiny_problem();
    cfg.problem.nodes = 2;
    cfg.problem.procs_per_node = 2;
    cfg.schedule.set_backend(Backend::kCpu);
    cfg.fault_plan = plan;
    cfg.resilience_policy = policy;
    return toast::mpisim::run_benchmark_job(cfg);
  };
  fault::FaultPlan job_plan;
  job_plan.seed = 31;
  job_plan.retry.max_attempts = 2;
  {
    fault::FaultRule r;
    r.kind = fault::FaultKind::kRankFailure;
    r.site = "mpisim_rank";
    r.probability = 1.0;
    job_plan.rules.push_back(r);
  }
  resilience::Policy job_policy;
  job_policy.elastic.enabled = true;
  job_policy.elastic.min_ranks = 1;
  const auto job_clean = run_job({}, {});
  const auto job_a = run_job(job_plan, job_policy);
  const auto job_b = run_job(job_plan, job_policy);
  const bool job_ok =
      job_a.world_ranks < job_clean.world_ranks && job_a.world_ranks >= 1 &&
      counter(job_a.fault_counters, "resilience_world_shrinks") > 0.0 &&
      job_a.runtime == job_b.runtime &&
      job_a.world_ranks == job_b.world_ranks &&
      job_a.fault_counters == job_b.fault_counters;
  std::printf("job:      world %d -> %d  redistributed obs %.0f  "
              "runtime %.7e  %s\n",
              job_clean.world_ranks, job_a.world_ranks,
              counter(job_a.fault_counters, "resilience_redistributed_obs"),
              job_a.runtime, job_ok ? "[ok]" : "[JOB MISMATCH]");

  // --- degraded: solver_comm ladder under chaos -----------------------------
  fault::FaultPlan ladder_plan;
  ladder_plan.seed = 53;
  ladder_plan.retry.max_attempts = 3;
  {
    fault::FaultRule r;
    r.kind = fault::FaultKind::kRankFailure;
    r.site = "destriper_cg";
    r.probability = 0.6;
    r.max_fires = 4;
    ladder_plan.rules.push_back(r);
  }
  resilience::Policy ladder_policy;
  ladder_policy.ladders.push_back(
      resilience::LadderSpec{resilience::Domain::kSolverComm, 1, 1});
  const auto degraded =
      run_solve(AsyncComm::kOverlap, ladder_plan, ladder_policy);
  const auto clean_overlap = run_solve(AsyncComm::kOverlap, {}, {});
  const double escalations =
      counter(degraded.resilience_counters, "resilience_degrades");
  const double deg_diff =
      max_abs_diff(clean_overlap.amplitudes, degraded.amplitudes);
  const bool degraded_ok = escalations > 0.0 && deg_diff == 0.0;
  std::printf("degraded: ladder escalations %.0f  amp |d| %.1e  "
              "runtime %.7e  %s\n",
              escalations, deg_diff, degraded.runtime,
              degraded_ok ? "[ok]" : "[DEGRADED MISMATCH]");

  if (!opt.trace_path.empty()) {
    // Metrics view of the elastic shrink run: `toast-trace faults`
    // prints its fault_* and resilience_* rows plus the recovery
    // summary (requeues, breakers, ladder escalations, world shrinks).
    toast::obs::write_metrics_json_file(shrink_a.spans, opt.trace_path,
                                        {{"benchmark", "resilience"},
                                         {"section", "shrink"}});
    std::printf("wrote %s\n", opt.trace_path.c_str());
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + opt.json_path);
    }
    toast::bench::JsonWriter w(out);
    w.obj_open();
    w.kv("schema", "toastcase-bench-resilience-v1");
    w.kv("benchmark", "resilience");
    w.obj_open("identity");
    w.kv("no_policy_runtime_s", id_none.runtime);
    w.kv("empty_policy_runtime_s", id_empty.runtime);
    w.kv("bitwise_equal", identity_ok);
    w.obj_close();
    w.obj_open("breaker");
    w.kv("opens", counter(breaker_a.second, "resilience_breaker_opens"));
    w.kv("half_opens",
         counter(breaker_a.second, "resilience_breaker_half_opens"));
    w.kv("closes", counter(breaker_a.second, "resilience_breaker_closes"));
    w.kv("fast_fails",
         counter(breaker_a.second, "resilience_breaker_fast_fails"));
    w.kv("deterministic", breaker_ok);
    w.obj_close();
    w.obj_open("shrink");
    w.kv("clean_runtime_s", clean.runtime);
    w.kv("chaos_runtime_s", shrink_a.runtime);
    w.kv("world_shrinks", shrinks);
    w.kv("checkpoint_restores",
         counter(shrink_a.fault_counters, "fault_checkpoint_restores"));
    w.kv("task_requeues",
         counter(shrink_a.resilience_counters, "resilience_task_requeues"));
    w.kv("amplitude_max_abs_diff", amp_diff);
    w.kv("amplitudes_match", amp_diff == 0.0);
    w.kv("deterministic", shrink_deterministic);
    w.obj_close();
    w.obj_open("job_shrink");
    w.kv("total_ranks", job_clean.world_ranks);
    w.kv("final_ranks", job_a.world_ranks);
    w.kv("world_shrinks",
         counter(job_a.fault_counters, "resilience_world_shrinks"));
    w.kv("redistributed_obs",
         counter(job_a.fault_counters, "resilience_redistributed_obs"));
    w.kv("clean_runtime_s", job_clean.runtime);
    w.kv("chaos_runtime_s", job_a.runtime);
    w.kv("deterministic", job_a.runtime == job_b.runtime &&
                              job_a.fault_counters == job_b.fault_counters);
    w.obj_close();
    w.obj_open("degraded");
    w.kv("escalations", escalations);
    w.kv("amplitude_max_abs_diff", deg_diff);
    w.kv("amplitudes_match", deg_diff == 0.0);
    w.kv("runtime_s", degraded.runtime);
    w.obj_close();
    w.obj_close();
    out << "\n";
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  if (!(identity_ok && breaker_ok && shrink_ok && job_ok && degraded_ok)) {
    std::fprintf(stderr, "resilience invariant violated (see above)\n");
    return 1;
  }
  return 0;
}
