// Tests of the async runtime (docs/MODEL.md §11): the step log that the
// one plan driver (core::execute_plan) records — dependency derivation
// from declared resource uses, the report, LaneSchedule placement with
// patch barriers, bitwise equivalence with staged replay including under
// a pinned launch-chaos plan — and the engine's submit face (serial
// bitwise oracle, overlap placement with explicit wait charges).

#include "async/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "async/overlap.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace accel = toast::accel;
namespace async = toast::async;
namespace core = toast::core;
namespace fault = toast::fault;
namespace obs = toast::obs;
namespace sim = toast::sim;
using core::Backend;

namespace {

core::Data make_data(int n_obs = 2) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  core::Data data;
  for (int ob = 0; ob < n_obs; ++ob) {
    sim::ScanParams scan;
    scan.spin_period = 1024.0 / 37.0 / 4.0;
    data.observations.push_back(sim::simulate_satellite(
        "obs" + std::to_string(ob), fp, 1024, scan,
        7 + static_cast<std::uint64_t>(ob)));
  }
  return data;
}

enum class Drive { kStaged, kLogged, kOverlap };

struct RunResult {
  double runtime = 0.0;
  toast::accel::TimeLog log;
  core::Data data;
  async::GraphReport report;  // logged and overlap runs only
  std::vector<core::StepLog> steps;  // logged runs only
};

RunResult run(Backend b, Drive drive, const fault::FaultPlan& fplan = {}) {
  RunResult r;
  r.data = make_data();
  core::ExecConfig cfg;
  cfg.backend = b;
  cfg.fault_plan = fplan;
  core::ExecContext ctx(cfg);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  for (auto& ob : r.data.observations) {
    if (drive == Drive::kStaged) {
      pipeline.exec(ob, ctx);
    } else if (drive == Drive::kLogged) {
      pipeline.exec(ob, ctx, &r.steps.emplace_back());
      r.report.merge(async::report(r.steps.back()));
    } else {
      r.report.merge(async::run_overlap(pipeline, ob, ctx));
    }
  }
  r.runtime = ctx.clock().now();
  r.log = ctx.log();
  return r;
}

fault::FaultPlan launch_chaos() {
  // Exhausts scan_map's retry budget: forces a mid-run CPU degrade.
  fault::FaultPlan fplan;
  fplan.seed = 7;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLaunch;
  rule.site = "scan_map";
  rule.probability = 1.0;
  fplan.rules.push_back(rule);
  return fplan;
}

void expect_logs_equal(const toast::accel::TimeLog& a,
                       const toast::accel::TimeLog& b) {
  ASSERT_EQ(a.categories(), b.categories());
  for (const auto& c : a.categories()) {
    EXPECT_EQ(a.seconds(c), b.seconds(c)) << c;
    EXPECT_EQ(a.calls(c), b.calls(c)) << c;
  }
}

void expect_fields_equal(const core::Data& a, const core::Data& b,
                         const char* field) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t o = 0; o < a.observations.size(); ++o) {
    const auto sa = a.observations[o].field(field).f64();
    const auto sb = b.observations[o].field(field).f64();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << field << " obs " << o << " index " << i;
    }
  }
}

/// Charges 1 s wherever it runs; on the device it then fails past its
/// retry budget, so its group re-routes to the host patch.
class FaultingBody : public core::Operator {
 public:
  std::string name() const override { return "faulting_body"; }
  bool supports_accel() const override { return true; }
  void exec(core::Observation&, core::ExecContext& ctx,
            core::AccelStore* accel, Backend) override {
    ctx.charge_serial("faulting_body", 1.0);
    if (accel != nullptr) {
      throw fault::PersistentFaultError(fault::FaultKind::kLaunch,
                                        "faulting_body", 4);
    }
  }
};

core::ResourceUse reads(const char* name) { return {name, false}; }
core::ResourceUse writes(const char* name) { return {name, true}; }

core::StepRecord step(int id, int lane, double seconds,
                      std::vector<int> deps = {}) {
  core::StepRecord r;
  r.id = id;
  r.lane = lane;
  r.seconds = seconds;
  r.deps = std::move(deps);
  return r;
}

core::StepRecord patch_step(int id, double seconds) {
  core::StepRecord r = step(id, core::kLaneHost, seconds);
  r.alt = true;
  return r;
}

core::StepRecord barrier() {
  core::StepRecord r;
  r.barrier = true;
  return r;
}

}  // namespace

// --- dependency derivation --------------------------------------------------

TEST(StepLog, DerivesRawWawWarDeps) {
  const auto deps = core::derive_deps({{writes("x")},
                                       {reads("x")},
                                       {reads("x")},
                                       {writes("x")},
                                       {reads("x")}});
  ASSERT_EQ(deps.size(), 5u);
  EXPECT_TRUE(deps[0].empty());
  // RAW: readers depend on the last writer.
  EXPECT_EQ(deps[1], std::vector<int>{0});
  EXPECT_EQ(deps[2], std::vector<int>{0});
  // WAW on step 0 plus WAR on both readers, sorted.
  EXPECT_EQ(deps[3], (std::vector<int>{0, 1, 2}));
  // The second write retired the readers: only RAW on step 3.
  EXPECT_EQ(deps[4], std::vector<int>{3});
}

TEST(StepLog, DisjointResourcesStayIndependent) {
  const auto deps = core::derive_deps(
      {{writes("x")}, {writes("y")}, {reads("x"), writes("y")}});
  EXPECT_TRUE(deps[1].empty());
  // Mixed-use step: RAW on x's writer + WAW on y's writer.
  EXPECT_EQ(deps[2], (std::vector<int>{0, 1}));
}

TEST(StepLog, PatchStepsCarryNoDepsAndSitBetweenBarriers) {
  // Under launch chaos scan_map's body faults and its group re-routes to
  // the patch: every patch range is bracketed by barriers, runs on the
  // host lane and carries no deps (it replaces a body that never
  // committed), while main steps keep their plan-derived deps.
  const auto r = run(Backend::kOmpTarget, Drive::kLogged, launch_chaos());
  int patch_ranges = 0;
  for (const core::StepLog& log : r.steps) {
    const auto& recs = log.records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].barrier || !recs[i].alt) {
        continue;
      }
      EXPECT_TRUE(recs[i].deps.empty());
      EXPECT_EQ(recs[i].lane, core::kLaneHost);
      if (i > 0 && recs[i - 1].barrier) {
        ++patch_ranges;
      } else {
        ASSERT_GT(i, 0u);
        EXPECT_TRUE(recs[i - 1].alt) << "patch step outside a barrier";
      }
      ASSERT_LT(i + 1, recs.size());
      EXPECT_TRUE(recs[i + 1].barrier || recs[i + 1].alt);
    }
  }
  EXPECT_GT(patch_ranges, 0);
  EXPECT_GT(r.report.patched, 0);
}

// --- placement ---------------------------------------------------------------

TEST(StepLog, PatchBarrierPlacementMatchesLaneArithmetic) {
  // A hand-built log with a patch range between barriers, placed on a
  // LaneSchedule, against the lane/dependency arithmetic written out:
  // a step starts at max(epoch, lane end, deps' ends); a barrier lifts
  // every lane to the latest end so far; patch steps ignore deps.
  core::StepLog log;
  log.begin = 0.75;
  log.records = {step(0, core::kLaneHost, 0.1),
                 step(1, core::kLaneCompute, 0.3, {0}),
                 step(2, core::kLaneCopy, 0.7),
                 step(3, core::kLaneCopy, 0.2, {1, 2}),
                 barrier(),
                 patch_step(0, 0.05),
                 patch_step(1, 0.15),
                 barrier(),
                 step(5, core::kLaneCompute, 0.3, {3, 4}),
                 step(6, core::kLaneHost, 0.1, {0})};

  std::vector<double> lane_end(core::kNumStepLanes, log.begin);
  std::vector<double> step_end(7, log.begin);
  std::vector<double> want_start;
  double global_end = log.begin;
  for (const core::StepRecord& r : log.records) {
    if (r.barrier) {
      std::fill(lane_end.begin(), lane_end.end(), global_end);
      continue;
    }
    double start =
        std::max(log.begin, lane_end[static_cast<std::size_t>(r.lane)]);
    if (!r.alt) {
      for (int d : r.deps) {
        start = std::max(start, step_end[static_cast<std::size_t>(d)]);
      }
    }
    const double end = start + r.seconds;
    lane_end[static_cast<std::size_t>(r.lane)] = end;
    if (!r.alt) {
      step_end[static_cast<std::size_t>(r.id)] = end;
    }
    global_end = std::max(global_end, end);
    want_start.push_back(start);
  }

  const double placed = async::place(log, nullptr);
  EXPECT_EQ(placed, global_end - log.begin);
  std::size_t k = 0;
  for (const core::StepRecord& r : log.records) {
    if (!r.barrier) {
      EXPECT_EQ(r.start, want_start[k]) << "record " << k;
      ++k;
    }
  }
  // The patch waited for the copy chain; step 6 only for the barrier.
  EXPECT_EQ(log.records[5].start, log.records[3].start + 0.2);
  EXPECT_EQ(log.records[9].start, log.records[6].start + 0.15);
}

// --- serial face: the bitwise oracle ----------------------------------------

TEST(Engine, SerialSubmitChargesLikeTheBlockingCall) {
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  async::Engine eng(clock, &tracer);  // Mode::kSerial
  const int lane = eng.lane("comm");
  const auto f =
      eng.submit(lane, "allreduce", "comm", [](double) { return 0.25; });
  // Serial submit charges immediately: the future is already resolved.
  EXPECT_EQ(clock.now(), 0.25);
  EXPECT_EQ(f.ready, 0.25);
  EXPECT_EQ(eng.pending_count(), 0);
  EXPECT_EQ(eng.await(f, "allreduce_wait"), 0.0);
  EXPECT_EQ(eng.drain("drain"), 0.0);
  EXPECT_EQ(clock.now(), 0.25);  // the no-op await charged nothing

  // Bit-for-bit what the blocking code would have logged.
  accel::VirtualClock manual_clock;
  obs::Tracer manual(&manual_clock);
  manual_clock.advance(0.25);
  manual.record("allreduce", "comm", 0.25);
  EXPECT_EQ(clock.now(), manual_clock.now());
  expect_logs_equal(tracer.timelog(), manual.timelog());
}

TEST(Engine, OverlapGraphRunPlacesAgainstDeps) {
  // Hand-built log: two independent 1s steps on different lanes plus a
  // step depending on both.  The serial sum is 3s; the placed makespan
  // overlaps the independent pair and lands on 2s.
  core::StepLog log;
  log.end = 3.0;
  log.n_groups = 1;
  log.records = {step(0, core::kLaneHost, 1.0),
                 step(1, core::kLaneCompute, 1.0),
                 step(2, core::kLaneHost, 1.0, {0, 1})};
  const auto rep = async::report(log);
  EXPECT_EQ(rep.makespan_s, 3.0);
  EXPECT_EQ(rep.total_busy_s, 3.0);
  EXPECT_EQ(rep.critical_path_s, 2.0);

  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  clock.advance(3.0);  // what the functional pass charged
  const double placed = async::place(log, &tracer);
  EXPECT_EQ(placed, 2.0);
  // Placed times: t1 starts at 0 on its own lane, t2 at max(dep ends).
  EXPECT_EQ(log.records[0].start, 0.0);
  EXPECT_EQ(log.records[1].start, 0.0);
  EXPECT_EQ(log.records[2].start, 1.0);
  // One structural span per step, on its lane, outside the TimeLog.
  int task_spans = 0;
  for (const obs::Span& sp : tracer.spans()) {
    if (sp.category == "task") {
      ++task_spans;
      EXPECT_FALSE(sp.logged);
      EXPECT_GE(sp.stream, async::kLaneStreamBase);
    }
  }
  EXPECT_EQ(task_spans, 3);
  EXPECT_TRUE(tracer.timelog().categories().empty());
}

// --- overlap face: placement and wait charges --------------------------------

TEST(Engine, OverlapPlacesAtMaxOfNowLaneAndDeps) {
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  async::Options opt;
  opt.mode = async::Mode::kOverlap;
  async::Engine eng(clock, &tracer, opt);
  const int a = eng.lane("a");
  const int b = eng.lane("b");

  const auto f1 = eng.submit(a, "one", "comm", [](double) { return 1.0; });
  EXPECT_EQ(clock.now(), 0.0);  // submit never advances the clock
  EXPECT_EQ(f1.ready, 1.0);
  const auto f2 = eng.submit(a, "two", "comm", [](double) { return 1.0; });
  EXPECT_EQ(f2.ready, 2.0);  // same lane serializes
  const auto f3 =
      eng.submit(b, "three", "comm", [](double) { return 0.5; }, {f2});
  EXPECT_EQ(f3.ready, 2.5);  // dep-bound, not lane-bound
  EXPECT_EQ(eng.pending_count(), 3);

  // Awaiting charges the remaining slack as an explicit wait span.
  EXPECT_EQ(eng.await(f3, "three_wait"), 2.5);
  EXPECT_EQ(clock.now(), 2.5);
  EXPECT_EQ(tracer.seconds("three_wait"), 2.5);
  EXPECT_EQ(eng.pending_count(), 0);
  EXPECT_EQ(eng.await(f3, "again"), 0.0);  // already resolved: no-op
}

TEST(Engine, OverlapCostIsAFunctionOfPlacedStartTime) {
  // The cost callback sees the *placed* start, not submission time: a
  // task queued behind its lane must price itself at the later epoch.
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  async::Options opt;
  opt.mode = async::Mode::kOverlap;
  async::Engine eng(clock, &tracer, opt);
  const int lane = eng.lane("comm");
  std::vector<double> starts;
  const auto cost = [&starts](double start) {
    starts.push_back(start);
    return 1.0;
  };
  eng.submit(lane, "one", "comm", cost);
  eng.submit(lane, "two", "comm", cost);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0.0);
  EXPECT_EQ(starts[1], 1.0);
  EXPECT_EQ(eng.drain("drain"), 2.0);
  EXPECT_EQ(clock.now(), 2.0);
}

TEST(Engine, OverlapReplayIsBitwiseDeterministic) {
  const auto episode = [] {
    accel::VirtualClock clock;
    obs::Tracer tracer(&clock);
    async::Options opt;
    opt.mode = async::Mode::kOverlap;
    async::Engine eng(clock, &tracer, opt);
    const int a = eng.lane("a");
    const int b = eng.lane("b");
    async::Future last{};
    for (int i = 0; i < 8; ++i) {
      last = eng.submit(i % 2 == 0 ? a : b, "tick", "comm",
                        [i](double) { return 0.125 * (i + 1); },
                        last.valid() ? std::vector<async::Future>{last}
                                     : std::vector<async::Future>{});
    }
    eng.drain("drain");
    return clock.now();
  };
  EXPECT_EQ(episode(), episode());
}

TEST(StepLog, FailedBodyKeepsTheTimeItCharged) {
  // The accel body charges 1 s and faults; its host patch charges 1 s.
  // The failed attempt is logged on the compute lane ahead of the patch
  // barrier, so the placed makespan keeps both seconds (the overhead
  // step overlaps the body).
  core::Pipeline pipeline({std::make_shared<FaultingBody>()});
  pipeline.set_outputs({});
  core::ExecConfig cfg;
  cfg.backend = Backend::kOmpTarget;
  core::ExecContext ctx(cfg);
  core::Observation ob("hand", sim::hex_focalplane(1, 37.0), 8);
  const auto rep = async::run_overlap(pipeline, ob, ctx);
  EXPECT_EQ(rep.patched, 1);
  EXPECT_DOUBLE_EQ(rep.makespan_s, 2.0);  // 1.00005 without the body
  // The body's second plus the patch's, added as a serial block.
  EXPECT_DOUBLE_EQ(rep.critical_path_s, 2.0);
  EXPECT_DOUBLE_EQ(ctx.clock().now(), 2.0);
  EXPECT_EQ(ctx.log().seconds("faulting_body"), 2.0);
}

TEST(StepLog, BusyTimeUnderLaunchChaosIsTheClockDelta) {
  // Every second the walk charges belongs to a logged step, including
  // the retries of the launch attempts that failed before the degrade.
  const auto r = run(Backend::kOmpTarget, Drive::kLogged, launch_chaos());
  ASSERT_EQ(r.steps.size(), 2u);
  for (const core::StepLog& log : r.steps) {
    const auto rep = async::report(log);
    EXPECT_NEAR(rep.total_busy_s, log.end - log.begin,
                1e-12 * (log.end - log.begin));
  }
  EXPECT_GT(r.report.patched, 0);
}

// --- logged and overlapped runs vs staged replay ---------------------------

TEST(StepLog, LoggedRunMatchesStagedReplayBitwise) {
  const auto staged = run(Backend::kOmpTarget, Drive::kStaged);
  const auto logged = run(Backend::kOmpTarget, Drive::kLogged);
  EXPECT_EQ(logged.runtime, staged.runtime);
  expect_logs_equal(logged.log, staged.log);
  expect_fields_equal(logged.data, staged.data, "signal");
  expect_fields_equal(logged.data, staged.data, "zmap");

  // And the report sees real dependency structure.
  EXPECT_GT(logged.report.n_tasks, 0);
  EXPECT_GT(logged.report.n_groups, 0);
  EXPECT_EQ(logged.report.patched, 0);
  EXPECT_GT(logged.report.critical_path_s, 0.0);
  EXPECT_LE(logged.report.critical_path_s, logged.report.total_busy_s);
  EXPECT_GE(logged.report.overlap_fraction, 0.0);
  EXPECT_LT(logged.report.overlap_fraction, 1.0);
}

TEST(StepLog, LoggedRunMatchesStagedReplayUnderLaunchChaos) {
  // The pinned launch-fault plan forces scan_map to degrade mid-run: the
  // logged run takes the same decide/attempt/patch route and stays
  // bitwise identical to staged replay.
  const auto staged = run(Backend::kOmpTarget, Drive::kStaged, launch_chaos());
  const auto logged = run(Backend::kOmpTarget, Drive::kLogged, launch_chaos());
  EXPECT_EQ(logged.runtime, staged.runtime);
  expect_logs_equal(logged.log, staged.log);
  expect_fields_equal(logged.data, staged.data, "signal");
  expect_fields_equal(logged.data, staged.data, "zmap");
  EXPECT_GT(logged.report.patched, 0);  // the degrade re-routed to patches
}

TEST(StepLog, OverlapUnderLaunchChaosKeepsStagedProductsAndTimeLog) {
  // Overlap only re-times: under the same degrade its products and
  // TimeLog are bitwise those of staged replay, and it is never slower.
  const auto staged = run(Backend::kOmpTarget, Drive::kStaged, launch_chaos());
  const auto overlap =
      run(Backend::kOmpTarget, Drive::kOverlap, launch_chaos());
  expect_logs_equal(overlap.log, staged.log);
  expect_fields_equal(overlap.data, staged.data, "signal");
  expect_fields_equal(overlap.data, staged.data, "zmap");
  EXPECT_GT(overlap.report.patched, 0);
  EXPECT_LE(overlap.runtime, staged.runtime);
}
