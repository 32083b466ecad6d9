// Plan replay across staging modes, backends and fault plans, plus the
// prefetch benefit.
//
// Two sections (schema toastcase-bench-plan-v2):
//   - "direct": the benchmark workflow on one rank through the cached
//     ExecutionPlan, for both staging modes, both backends and two
//     deterministic fault plans.  Every row's science products (signal
//     and zmap sums) must be bitwise those of the fault-free omp
//     pipelined row, and each chaos row (naming its `fault_free` row)
//     must cost more virtual time than that row.
//   - "jobs": the fig5 large-problem job per backend, sync plan vs
//     prefetch+evict plan with its plan counters; prefetch is expected
//     to be strictly faster (scripts/check_bench.py --plan asserts all
//     of it).
//
// --dump-plan <path> additionally writes the omp-target plan of the first
// observation as toastcase-plan-v1 JSON (`toast-trace plan` reads it).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "mpisim/job.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace core = toast::core;
namespace sim = toast::sim;
using core::Backend;
using toast::bench_model::large_problem;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

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

double field_sum(const core::Data& data, const char* name) {
  double sum = 0.0;
  for (const auto& ob : data.observations) {
    const auto span = ob.field(name).f64();
    for (const double v : span) {
      sum += v;
    }
  }
  return sum;
}

struct DirectResult {
  double runtime = 0.0;
  double signal_sum = 0.0;
  double zmap_sum = 0.0;
};

DirectResult run_direct(Backend backend, core::Pipeline::Staging staging,
                        const toast::fault::FaultPlan& fplan) {
  auto data = make_data();
  core::ExecConfig cfg;
  cfg.backend = backend;
  cfg.fault_plan = fplan;
  core::ExecContext ctx(cfg);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  sim::make_benchmark_pipeline(wf, staging).exec(data, ctx);
  DirectResult r;
  r.runtime = ctx.clock().now();
  r.signal_sum = field_sum(data, "signal");
  r.zmap_sum = field_sum(data, "zmap");
  return r;
}

toast::fault::FaultPlan launch_chaos_plan() {
  toast::fault::FaultPlan p;
  p.seed = 7;
  toast::fault::FaultRule r;
  r.kind = toast::fault::FaultKind::kLaunch;
  r.site = "scan_map";
  r.probability = 1.0;  // exhaust the retry budget: forces CPU degrade
  p.rules.push_back(r);
  return p;
}

toast::fault::FaultPlan transfer_chaos_plan() {
  toast::fault::FaultPlan p;
  p.seed = 11;
  toast::fault::FaultRule r;
  r.kind = toast::fault::FaultKind::kTransfer;
  r.site = "accel_data_update";  // both directions
  r.probability = 0.2;
  r.max_fires = 6;
  p.rules.push_back(r);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_plan_path;
  const auto opt = toast::bench::parse_options(
      argc, argv, {{"--dump-plan", &dump_plan_path}});
  const std::string& json_path = opt.json_path;

  toast::bench::print_header(
      "Pipeline compilation: plan replay under faults + prefetch");

  // --- direct rank-level runs ----------------------------------------------
  struct DirectRow {
    std::string name;
    std::string fault_free;  ///< chaos rows: the matching fault-free row
    DirectResult r;
    bool products_equal = false;
    bool slower_than_fault_free = true;
  };
  const toast::fault::FaultPlan no_faults;
  const struct {
    const char* name;
    const char* fault_free;
    Backend backend;
    core::Pipeline::Staging staging;
    toast::fault::FaultPlan faults;
  } direct_cases[] = {
      {"omp_pipelined", "", Backend::kOmpTarget,
       core::Pipeline::Staging::kPipelined, no_faults},
      {"omp_naive", "", Backend::kOmpTarget, core::Pipeline::Staging::kNaive,
       no_faults},
      {"jax_pipelined", "", Backend::kJax, core::Pipeline::Staging::kPipelined,
       no_faults},
      {"omp_launch_chaos", "omp_pipelined", Backend::kOmpTarget,
       core::Pipeline::Staging::kPipelined, launch_chaos_plan()},
      {"omp_naive_transfer_chaos", "omp_naive", Backend::kOmpTarget,
       core::Pipeline::Staging::kNaive, transfer_chaos_plan()},
  };

  std::vector<DirectRow> direct;
  std::printf("%-26s %16s %24s %8s\n", "direct case", "runtime", "zmap sum",
              "equal");
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
  for (const auto& c : direct_cases) {
    DirectRow row;
    row.name = c.name;
    row.fault_free = c.fault_free;
    row.r = run_direct(c.backend, c.staging, c.faults);
    // The first row is the fault-free omp pipelined reference.
    const DirectResult& ref = direct.empty() ? row.r : direct.front().r;
    row.products_equal = row.r.signal_sum == ref.signal_sum &&
                         row.r.zmap_sum == ref.zmap_sum;
    for (const auto& clean : direct) {
      if (clean.name == row.fault_free) {
        row.slower_than_fault_free = row.r.runtime > clean.r.runtime;
      }
    }
    std::printf("%-26s %16.9e %24.17g %8s%s\n", c.name, row.r.runtime,
                row.r.zmap_sum, row.products_equal ? "yes" : "NO",
                row.slower_than_fault_free ? "" : "  [NOT SLOWER]");
    direct.push_back(std::move(row));
  }

  // --- fig5 job-level: sync plan vs prefetch benefit -----------------------
  struct JobRow {
    std::string name;
    JobResult sync;
    JobResult prefetch;
  };
  std::vector<JobRow> jobs;
  std::printf("\n%-6s %14s %14s %10s\n", "job", "plan", "prefetch",
              "speedup");
  std::printf(
      "--------------------------------------------------------------------\n");
  for (const auto& [name, backend] :
       {std::pair{"omp", Backend::kOmpTarget}, std::pair{"jax", Backend::kJax}}) {
    JobRow row;
    row.name = name;
    JobConfig cfg;
    cfg.problem = large_problem();
    cfg.schedule.set_backend(backend);
    row.sync = run_benchmark_job(cfg);
    cfg.schedule.staging.prefetch = true;
    cfg.schedule.staging.evict = true;
    row.prefetch = run_benchmark_job(cfg);
    std::printf("%-6s %14s %14s %9.3fx\n", name,
                toast::bench::fmt_seconds(row.sync.runtime).c_str(),
                toast::bench::fmt_seconds(row.prefetch.runtime).c_str(),
                row.sync.runtime / row.prefetch.runtime);
    jobs.push_back(std::move(row));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + json_path);
    }
    toast::bench::JsonWriter w(out);
    w.obj_open();
    w.kv("schema", "toastcase-bench-plan-v2");
    w.kv("benchmark", "plan");
    w.arr_open("direct");
    for (const auto& row : direct) {
      w.obj_open();
      w.kv("name", row.name);
      if (!row.fault_free.empty()) {
        w.kv("fault_free", row.fault_free);
      }
      w.kv("plan_runtime_s", row.r.runtime);
      w.kv("signal_sum", row.r.signal_sum);
      w.kv("zmap_sum", row.r.zmap_sum);
      w.obj_close();
    }
    w.arr_close();
    w.arr_open("jobs");
    for (const auto& row : jobs) {
      w.obj_open();
      w.kv("name", row.name);
      w.kv("sync_runtime_s", row.sync.runtime);
      w.kv("prefetch_runtime_s", row.prefetch.runtime);
      w.kv("prefetch_speedup", row.sync.runtime / row.prefetch.runtime);
      w.obj_open("plan_counters");
      for (const auto& [key, value] : row.prefetch.plan_counters) {
        w.kv(key, value);
      }
      w.obj_close();
      w.obj_close();
    }
    w.arr_close();
    w.obj_close();
    out << "\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!dump_plan_path.empty()) {
    auto data = make_data(1);
    core::ExecConfig cfg;
    cfg.backend = Backend::kOmpTarget;
    core::ExecContext ctx(cfg);
    sim::WorkflowConfig wf;
    wf.nside = 32;
    wf.map_iterations = 2;
    auto pipeline = sim::make_benchmark_pipeline(wf);
    auto schedule = pipeline.schedule();
    schedule.staging.prefetch = true;
    schedule.staging.evict = true;
    pipeline.set_schedule(schedule);
    const auto plan = pipeline.plan_for(data.observations.front(), ctx);
    std::ofstream out(dump_plan_path);
    if (!out) {
      throw std::runtime_error("cannot open " + dump_plan_path);
    }
    plan->write_json(out);
    std::printf("wrote %s\n", dump_plan_path.c_str());
  }

  bool ok = true;
  for (const auto& row : direct) {
    ok = ok && row.products_equal && row.slower_than_fault_free;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "products differ or a chaos run was not slower (see table "
                 "above)\n");
    return 1;
  }
  return 0;
}
