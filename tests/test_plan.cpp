// Tests of the pipeline compilation layer (docs/MODEL.md "Pipeline
// compilation"): plan-cache behaviour, the runtime guards that make
// static plans safe, fault degradation as plan patching, prefetch
// hoisting and liveness eviction.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace core = toast::core;
namespace sim = toast::sim;
namespace fault = toast::fault;
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

core::ExecContext make_ctx(Backend b,
                           const fault::FaultPlan& fplan = {}) {
  core::ExecConfig cfg;
  cfg.backend = b;
  cfg.fault_plan = fplan;
  return core::ExecContext(cfg);
}

core::Pipeline make_pipeline(
    core::Pipeline::Staging staging = core::Pipeline::Staging::kPipelined) {
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  return sim::make_benchmark_pipeline(wf, staging);
}

struct RunResult {
  double runtime = 0.0;
  toast::accel::TimeLog log;
  core::Data data;
};

RunResult run(Backend b, core::Pipeline::Staging staging,
              const fault::FaultPlan& fplan = {}) {
  RunResult r;
  r.data = make_data();
  auto ctx = make_ctx(b, fplan);
  toast::kernels::jax::clear_jit_caches();
  make_pipeline(staging).exec(r.data, ctx);
  r.runtime = ctx.clock().now();
  r.log = ctx.log();
  return r;
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

/// Turn on the plan's prefetch (and optionally liveness eviction) in the
/// pipeline's staging axis.
void set_prefetch(core::Pipeline& pipeline, bool evict = false) {
  auto schedule = pipeline.schedule();
  schedule.staging.prefetch = true;
  schedule.staging.evict = evict;
  pipeline.set_schedule(schedule);
}

/// An accelerated operator that declares a provides field it never
/// creates: the planner emits Map/Upload/Download steps for it and the
/// runtime guards must skip them all.
class GhostProvidesOp final : public core::Operator {
 public:
  std::string name() const override { return "ghost_provides"; }
  bool supports_accel() const override { return true; }
  std::vector<std::string> requires_fields() const override {
    return {std::string(core::fields::kSignal)};
  }
  std::vector<std::string> provides_fields() const override {
    return {"ghost"};
  }
  void exec(core::Observation& ob, core::ExecContext& ctx,
            core::AccelStore* accel, Backend backend) override {
    (void)ob;
    (void)accel;
    (void)backend;
    ctx.charge_serial("ghost_provides", 1.0e-6);
  }
};

}  // namespace

// --- fault handling --------------------------------------------------------

TEST(PlanFaults, NaiveStagingSurvivesTransferFaults) {
  // Injected transfer faults under naive staging: the cleanup downloads
  // swallow persistent failures (the op already ran; re-running in-place
  // ops would double-apply) and the run must complete with correct
  // science products.
  fault::FaultPlan fplan;
  fplan.seed = 11;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kTransfer;
  rule.site = "accel_data_update";
  rule.probability = 1.0;
  rule.max_fires = 4;
  fplan.rules.push_back(rule);

  const auto chaotic =
      run(Backend::kOmpTarget, core::Pipeline::Staging::kNaive, fplan);
  const auto clean = run(Backend::kOmpTarget, core::Pipeline::Staging::kNaive);
  expect_fields_equal(chaotic.data, clean.data, "signal");
  expect_fields_equal(chaotic.data, clean.data, "zmap");
  EXPECT_GT(chaotic.runtime, clean.runtime);  // retries cost virtual time
}

TEST(PlanFaults, BackendOverrideRespectsDegradedKernels) {
  // A kernel degraded by a persistent fault stays on its CPU
  // implementation even through a pipeline-level accel override — the
  // plan key and the baked on_accel bit must both see degraded().
  auto data = make_data(1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  ctx.faults().mark_degraded("scan_map");
  auto pipeline = make_pipeline();
  pipeline.set_backend_override(Backend::kOmpTarget);
  const auto plan = pipeline.plan_for(data.observations.front(), ctx);
  bool saw_scan_map = false;
  bool saw_accel = false;
  for (std::size_t k = 0; k < plan->op_names.size(); ++k) {
    if (plan->op_names[k] == "scan_map") {
      saw_scan_map = true;
      EXPECT_EQ(plan->op_on_accel[k], 0) << "degraded kernel planned on GPU";
    }
    saw_accel = saw_accel || plan->op_on_accel[k] != 0;
  }
  EXPECT_TRUE(saw_scan_map);
  EXPECT_TRUE(saw_accel);  // the rest of the pipeline still uses the GPU

  pipeline.exec(data, ctx);  // and execution completes
  EXPECT_GT(ctx.log().seconds("scan_map"), 0.0);
}

TEST(PlanFaults, MidRunDegradeCountsReplans) {
  // Persistent launch faults on scan_map degrade it mid-run: the executor
  // patches the group to the host fallback and counts a replan; later
  // observations re-key the cache (miss) with scan_map on the host.
  fault::FaultPlan fplan;
  fplan.seed = 7;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLaunch;
  rule.site = "scan_map";
  rule.probability = 1.0;
  fplan.rules.push_back(rule);

  auto data = make_data();
  auto ctx = make_ctx(Backend::kOmpTarget, fplan);
  auto pipeline = make_pipeline();
  pipeline.exec(data, ctx);
  EXPECT_GE(pipeline.plan_stats().replans, 1.0);
  EXPECT_GE(pipeline.plan_stats().cache_misses, 2.0);  // re-keyed after degrade
  EXPECT_TRUE(ctx.faults().degraded("scan_map"));
  const auto counters = ctx.faults().counters();
  EXPECT_GT(counters.at("fault_plan_replans"), 0.0);

  const auto clean =
      run(Backend::kOmpTarget, core::Pipeline::Staging::kPipelined);
  expect_fields_equal(data, clean.data, "zmap");
}

// --- runtime guards --------------------------------------------------------

TEST(PlanGuards, ProvidesFieldNeverMaterializedIsSkipped) {
  // ensure_fields never creates "ghost", so every planned step for it
  // must be skipped by the has_field guard — no crash, no mapping.
  auto data = make_data(1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  core::Pipeline pipeline({std::make_shared<GhostProvidesOp>()});
  pipeline.set_outputs({"ghost"});  // even the epilogue download is guarded
  pipeline.exec(data, ctx);
  EXPECT_FALSE(data.observations.front().has_field("ghost"));
  EXPECT_GT(ctx.log().seconds("ghost_provides"), 0.0);
}

// --- plan cache ------------------------------------------------------------

TEST(PlanCache, HitOnSecondObservationMissAfterOptionsChange) {
  auto data = make_data(2);
  auto ctx = make_ctx(Backend::kOmpTarget);
  auto pipeline = make_pipeline();
  pipeline.exec(data, ctx);
  EXPECT_EQ(pipeline.plan_stats().cache_misses, 1.0);
  EXPECT_EQ(pipeline.plan_stats().cache_hits, 1.0);  // same field layout

  set_prefetch(pipeline);  // a new schedule clears the cache
  auto data2 = make_data(2);
  pipeline.exec(data2, ctx);
  EXPECT_EQ(pipeline.plan_stats().cache_misses, 2.0);
  EXPECT_EQ(pipeline.plan_stats().cache_hits, 2.0);
}

TEST(PlanCache, SameSeedTwiceIsBitwiseDeterministic) {
  const auto a = run(Backend::kOmpTarget, core::Pipeline::Staging::kPipelined);
  const auto b = run(Backend::kOmpTarget, core::Pipeline::Staging::kPipelined);
  EXPECT_EQ(a.runtime, b.runtime);
  expect_logs_equal(a.log, b.log);
  expect_fields_equal(a.data, b.data, "signal");
  expect_fields_equal(a.data, b.data, "zmap");
}

// --- plan structure --------------------------------------------------------

TEST(PlanStructure, PipelinedAvoidsTransfersNaiveDoesNot) {
  auto data = make_data(1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  auto pipelined = make_pipeline(core::Pipeline::Staging::kPipelined);
  auto naive = make_pipeline(core::Pipeline::Staging::kNaive);
  const auto p = pipelined.plan_for(data.observations.front(), ctx);
  const auto n = naive.plan_for(data.observations.front(), ctx);
  EXPECT_GT(p->transfers_avoided, 0);
  EXPECT_EQ(n->transfers_avoided, 0);
  EXPECT_LT(p->planned_transfers, n->planned_transfers);
}

TEST(PlanStructure, PrefetchHoistsOnlyFieldsTheCurrentOpDoesNotTouch) {
  // The distance-1 hoist rule: an async upload placed during group k must
  // belong to op k+1 and name a field op k does not touch (uploading a
  // field k writes would stage stale host data).
  auto data = make_data(1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  auto pipeline = make_pipeline();
  set_prefetch(pipeline);
  const auto plan = pipeline.plan_for(data.observations.front(), ctx);
  const auto& meta = pipeline.metadata();
  EXPECT_GT(plan->prefetch_uploads, 0);
  int seen = 0;
  for (const auto& g : plan->groups) {
    if (g.op < 0) {
      continue;
    }
    for (int i = g.try_begin; i < g.post_begin; ++i) {
      const auto& s = plan->steps[static_cast<std::size_t>(i)];
      if (s.kind != core::StepKind::kUpload || !s.async) {
        continue;
      }
      ++seen;
      EXPECT_EQ(s.op, g.op + 1);
      const auto& cur = meta[static_cast<std::size_t>(g.op)].touched;
      const std::string& name =
          plan->field_names[static_cast<std::size_t>(s.field)];
      EXPECT_EQ(std::find(cur.begin(), cur.end(), name), cur.end())
          << "hoisted " << name << " which op " << g.op << " touches";
    }
  }
  EXPECT_EQ(seen, plan->prefetch_uploads);
}

TEST(PlanStructure, PrefetchAndEvictPreserveProductsAndLowerFootprint) {
  auto base_data = make_data();
  auto base_ctx = make_ctx(Backend::kOmpTarget);
  auto base_pipeline = make_pipeline();
  base_pipeline.exec(base_data, base_ctx);

  auto opt_data = make_data();
  auto opt_ctx = make_ctx(Backend::kOmpTarget);
  auto opt_pipeline = make_pipeline();
  set_prefetch(opt_pipeline, /*evict=*/true);
  opt_pipeline.exec(opt_data, opt_ctx);

  expect_fields_equal(base_data, opt_data, "signal");
  expect_fields_equal(base_data, opt_data, "zmap");
  // Prefetch hides transfer time behind compute...
  EXPECT_LT(opt_ctx.clock().now(), base_ctx.clock().now());
  // ...and eviction lowers the peak device footprint.
  EXPECT_GT(opt_pipeline.plan_stats().evictions, 0.0);
  EXPECT_GT(base_pipeline.plan_stats().peak_mapped_bytes, 0.0);
  EXPECT_LT(opt_pipeline.plan_stats().peak_mapped_bytes,
            base_pipeline.plan_stats().peak_mapped_bytes);
}

TEST(PlanStructure, MetadataIsHoistedOnce) {
  auto pipeline = make_pipeline();
  const auto& meta = pipeline.metadata();
  ASSERT_EQ(meta.size(), pipeline.operators().size());
  for (std::size_t k = 0; k < meta.size(); ++k) {
    EXPECT_EQ(meta[k].name, pipeline.operators()[k]->name());
    EXPECT_EQ(meta[k].reads, pipeline.operators()[k]->requires_fields());
    EXPECT_EQ(meta[k].writes, pipeline.operators()[k]->provides_fields());
    for (std::size_t i = 1; i < meta[k].touched.size(); ++i) {
      EXPECT_LT(meta[k].touched[i - 1], meta[k].touched[i]);  // sorted set
    }
  }
}
