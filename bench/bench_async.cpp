// Async runtime bench (schema toastcase-bench-async-v1).
//
// Four sections:
//   - "plan": the benchmark workflow run twice per case — once through
//     staged plan replay (Pipeline::exec) and once with a step log
//     (Pipeline::exec with a core::StepLog) — including under a
//     deterministic launch-chaos plan that forces a mid-run degrade.
//     Recording the log must not move a bit: identical virtual runtime,
//     TimeLog and science products.  Each row also reports the log's
//     structure (step counts, critical path over the data deps,
//     achievable overlap fraction).
//   - "pipeline_overlap": the same pipeline with its step log placed on
//     a LaneSchedule (async::run_overlap) — products and TimeLog must
//     stay bitwise equal to staged replay while the placed makespan may
//     only shrink.
//   - "solver": the distributed destriper CG in its three comm modes.
//     kSync (serial engine) must be bitwise equal to kStaged; kOverlap
//     must keep the products bitwise and beat kStaged by the pipelining
//     floor (scripts/check_bench.py --async asserts >= 1.1x), hiding the
//     collectives behind the next matvec.
//   - "chaos": staged-vs-sync parity again under a pinned rank-failure
//     plan that exercises checkpoint restore + in-flight task re-enqueue.
//
// --dump-tasks <path> writes the step log of one observation as
// toastcase-tasks-v1 JSON (`toast-trace tasks` reads it).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/overlap.hpp"
#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace sim = toast::sim;
namespace async = toast::async;
using core::Backend;
using toast::solver::AsyncComm;
using toast::solver::Destriper;
using toast::solver::DestriperConfig;

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

bool logs_equal(const toast::accel::TimeLog& a,
                const toast::accel::TimeLog& b) {
  const auto ca = a.categories();
  if (ca != b.categories()) {
    return false;
  }
  for (const auto& c : ca) {
    if (a.seconds(c) != b.seconds(c) || a.calls(c) != b.calls(c)) {
      return false;
    }
  }
  return true;
}

// --- staged replay vs logged replay ----------------------------------------

struct DirectResult {
  double runtime = 0.0;
  toast::accel::TimeLog log;
  double signal_sum = 0.0;
  double zmap_sum = 0.0;
  async::GraphReport report;  // logged runs only
};

enum class Drive { kStaged, kLogged, kOverlap };

DirectResult run_direct(Backend backend, core::Pipeline::Staging staging,
                        const toast::fault::FaultPlan& fplan, Drive drive) {
  auto data = make_data();
  core::ExecConfig cfg;
  cfg.backend = backend;
  cfg.fault_plan = fplan;
  core::ExecContext ctx(cfg);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf, staging);
  DirectResult r;
  for (auto& ob : data.observations) {
    if (drive == Drive::kStaged) {
      pipeline.exec(ob, ctx);
    } else if (drive == Drive::kLogged) {
      core::StepLog log;
      pipeline.exec(ob, ctx, &log);
      r.report.merge(async::report(log));
    } else {
      r.report.merge(async::run_overlap(pipeline, ob, ctx));
    }
  }
  r.runtime = ctx.clock().now();
  r.log = ctx.log();
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

// --- destriper scenario -----------------------------------------------------

struct Scenario {
  core::Observation ob;
  DestriperConfig cfg;
};

Scenario make_scenario(std::uint64_t seed = 11) {
  DestriperConfig cfg;
  cfg.nside = 16;
  cfg.step_length = 128;
  cfg.max_iterations = 12;
  cfg.tolerance = 0.0;  // fixed iteration count: stable comm schedule
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

  // Inject step offsets + white noise so the CG has real work to do.
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
  toast::accel::TimeLog log;
  std::vector<double> amplitudes;
  std::vector<double> residuals;
  double wait_s = 0.0;
  double restores = 0.0;
};

SolveResult run_solve(AsyncComm mode, std::uint64_t seed,
                      const toast::fault::FaultPlan& fplan) {
  auto sc = make_scenario(seed);
  sc.cfg.async_comm = mode;
  core::ExecConfig ec;
  ec.fault_plan = fplan;
  core::ExecContext ctx(ec);
  const double t0 = ctx.clock().now();
  Destriper destriper(sc.cfg);
  const auto r = destriper.solve(sc.ob, ctx, Backend::kCpu);
  SolveResult out;
  out.runtime = ctx.clock().now() - t0;
  out.log = ctx.log();
  out.amplitudes = r.amplitudes;
  out.residuals = r.residuals;
  for (const auto& c : out.log.categories()) {
    if (c.size() > 5 && c.compare(c.size() - 5, 5, "_wait") == 0) {
      out.wait_s += out.log.seconds(c);
    }
  }
  const auto& counters = ctx.faults().counters();
  const auto it = counters.find("fault_checkpoint_restores");
  out.restores = it == counters.end() ? 0.0 : it->second;
  return out;
}

bool solves_equal(const SolveResult& a, const SolveResult& b) {
  return a.amplitudes == b.amplitudes && a.residuals == b.residuals;
}

toast::fault::FaultPlan rank_chaos_plan() {
  toast::fault::FaultPlan p;
  p.seed = 17;
  toast::fault::FaultRule r;
  r.kind = toast::fault::FaultKind::kRankFailure;
  r.site = "destriper_cg";
  r.probability = 0.25;
  r.max_fires = 2;
  p.rules.push_back(r);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_tasks_path;
  const auto opt = toast::bench::parse_options(
      argc, argv, {{"--dump-tasks", &dump_tasks_path}});
  const std::string& json_path = opt.json_path;

  toast::bench::print_header(
      "Async runtime: step-log parity + comm/compute overlap");

  // --- staged replay vs logged replay --------------------------------------
  struct DirectRow {
    std::string name;
    DirectResult staged;
    DirectResult graph;
    bool runtime_equal = false;
    bool log_equal = false;
    bool products_equal = false;
  };
  const toast::fault::FaultPlan no_faults;
  const struct {
    const char* name;
    Backend backend;
    core::Pipeline::Staging staging;
    toast::fault::FaultPlan faults;
  } direct_cases[] = {
      {"omp_pipelined", Backend::kOmpTarget,
       core::Pipeline::Staging::kPipelined, no_faults},
      {"omp_naive", Backend::kOmpTarget, core::Pipeline::Staging::kNaive,
       no_faults},
      {"jax_pipelined", Backend::kJax, core::Pipeline::Staging::kPipelined,
       no_faults},
      {"omp_launch_chaos", Backend::kOmpTarget,
       core::Pipeline::Staging::kPipelined, launch_chaos_plan()},
  };

  std::vector<DirectRow> direct;
  std::printf("%-20s %14s %14s %7s %6s %9s %8s\n", "plan case", "staged",
              "logged", "equal", "steps", "critical", "overlap");
  std::printf(
      "---------------------------------------------------------------------"
      "-----\n");
  for (const auto& c : direct_cases) {
    DirectRow row;
    row.name = c.name;
    row.staged = run_direct(c.backend, c.staging, c.faults, Drive::kStaged);
    row.graph = run_direct(c.backend, c.staging, c.faults, Drive::kLogged);
    row.runtime_equal = row.staged.runtime == row.graph.runtime;
    row.log_equal = logs_equal(row.staged.log, row.graph.log);
    row.products_equal =
        row.staged.signal_sum == row.graph.signal_sum &&
        row.staged.zmap_sum == row.graph.zmap_sum;
    std::printf("%-20s %14.7e %14.7e %7s %6d %8.1fms %7.1f%%\n", c.name,
                row.staged.runtime, row.graph.runtime,
                row.runtime_equal && row.log_equal && row.products_equal
                    ? "yes"
                    : "NO",
                row.graph.report.n_tasks,
                row.graph.report.critical_path_s * 1e3,
                row.graph.report.overlap_fraction * 100.0);
    direct.push_back(std::move(row));
  }

  // --- pipeline overlap ----------------------------------------------------
  // Overlap re-times the logged steps against their data dependencies:
  // products and TimeLog must stay bitwise equal to staged replay, while
  // the placed makespan may only shrink.
  struct OverlapRow {
    std::string name;
    DirectResult serial;
    DirectResult overlap;
    bool products_equal = false;
    bool log_equal = false;
    bool no_slower = false;
  };
  const struct {
    const char* name;
    Backend backend;
  } overlap_cases[] = {
      {"omp_pipelined", Backend::kOmpTarget},
      {"jax_pipelined", Backend::kJax},
  };
  std::vector<OverlapRow> overlap_rows;
  std::printf("\n%-20s %14s %14s %8s %7s\n", "overlap case", "staged",
              "overlap", "speedup", "parity");
  std::printf(
      "----------------------------------------------------------------\n");
  for (const auto& c : overlap_cases) {
    OverlapRow row;
    row.name = c.name;
    row.serial = run_direct(c.backend, core::Pipeline::Staging::kPipelined,
                            no_faults, Drive::kStaged);
    row.overlap = run_direct(c.backend, core::Pipeline::Staging::kPipelined,
                             no_faults, Drive::kOverlap);
    row.products_equal =
        row.serial.signal_sum == row.overlap.signal_sum &&
        row.serial.zmap_sum == row.overlap.zmap_sum;
    row.log_equal = logs_equal(row.serial.log, row.overlap.log);
    row.no_slower = row.overlap.runtime <= row.serial.runtime;
    std::printf("%-20s %14.7e %14.7e %7.3fx %7s\n", c.name,
                row.serial.runtime, row.overlap.runtime,
                row.serial.runtime / row.overlap.runtime,
                row.products_equal && row.log_equal && row.no_slower
                    ? "yes"
                    : "NO");
    overlap_rows.push_back(std::move(row));
  }

  // --- destriper comm modes -------------------------------------------------
  const auto staged = run_solve(AsyncComm::kStaged, 11, no_faults);
  const auto sync = run_solve(AsyncComm::kSync, 11, no_faults);
  const auto overlap = run_solve(AsyncComm::kOverlap, 11, no_faults);
  const bool sync_equal = staged.runtime == sync.runtime &&
                          logs_equal(staged.log, sync.log) &&
                          solves_equal(staged, sync);
  const bool overlap_products_equal = solves_equal(staged, overlap);
  const double overlap_speedup = staged.runtime / overlap.runtime;

  std::printf("\n%-10s %14s %10s\n", "solver", "runtime", "wait");
  std::printf("--------------------------------------\n");
  std::printf("%-10s %14.7e %10s\n", "staged", staged.runtime, "-");
  std::printf("%-10s %14.7e %10s%s\n", "sync", sync.runtime, "-",
              sync_equal ? "  [bitwise]" : "  [SYNC MISMATCH]");
  std::printf("%-10s %14.7e %8.2fms  %.3fx%s\n", "overlap", overlap.runtime,
              overlap.wait_s * 1e3, overlap_speedup,
              overlap_products_equal ? "" : "  [PRODUCT MISMATCH]");

  // --- chaos: staged vs sync under a pinned rank-failure plan ---------------
  const auto chaos_plan = rank_chaos_plan();
  const auto chaos_staged = run_solve(AsyncComm::kStaged, 11, chaos_plan);
  const auto chaos_sync = run_solve(AsyncComm::kSync, 11, chaos_plan);
  const bool chaos_equal = chaos_staged.runtime == chaos_sync.runtime &&
                           logs_equal(chaos_staged.log, chaos_sync.log) &&
                           solves_equal(chaos_staged, chaos_sync);
  std::printf("\nchaos (rank failures): staged %14.7e  sync %14.7e  "
              "restores %.0f  %s\n",
              chaos_staged.runtime, chaos_sync.runtime, chaos_sync.restores,
              chaos_equal ? "[bitwise]" : "[SYNC MISMATCH]");

  if (!dump_tasks_path.empty()) {
    // Dump one observation's step log.
    auto data = make_data(1);
    core::ExecConfig cfg;
    cfg.backend = Backend::kOmpTarget;
    core::ExecContext ctx(cfg);
    sim::WorkflowConfig wf;
    wf.nside = 32;
    wf.map_iterations = 2;
    auto pipeline = sim::make_benchmark_pipeline(wf);
    core::StepLog log;
    pipeline.exec(data.observations.front(), ctx, &log);
    std::ofstream out(dump_tasks_path);
    if (!out) {
      throw std::runtime_error("cannot open " + dump_tasks_path);
    }
    async::write_tasks_json(out, log, async::report(log));
    std::printf("wrote %s\n", dump_tasks_path.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + json_path);
    }
    toast::bench::JsonWriter w(out);
    w.obj_open();
    w.kv("schema", "toastcase-bench-async-v1");
    w.kv("benchmark", "async");
    w.arr_open("plan");
    for (const auto& row : direct) {
      w.obj_open();
      w.kv("name", row.name);
      w.kv("staged_runtime_s", row.staged.runtime);
      w.kv("graph_runtime_s", row.graph.runtime);
      w.kv("runtime_equal", row.runtime_equal);
      w.kv("timelog_equal", row.log_equal);
      w.kv("products_equal", row.products_equal);
      w.kv("n_tasks", row.graph.report.n_tasks);
      w.kv("patched", row.graph.report.patched);
      w.kv("total_busy_s", row.graph.report.total_busy_s);
      w.kv("critical_path_s", row.graph.report.critical_path_s);
      w.kv("overlap_fraction", row.graph.report.overlap_fraction);
      w.obj_close();
    }
    w.arr_close();
    w.arr_open("pipeline_overlap");
    for (const auto& row : overlap_rows) {
      w.obj_open();
      w.kv("name", row.name);
      w.kv("serial_runtime_s", row.serial.runtime);
      w.kv("overlap_runtime_s", row.overlap.runtime);
      w.kv("speedup", row.serial.runtime / row.overlap.runtime);
      w.kv("products_equal", row.products_equal);
      w.kv("timelog_equal", row.log_equal);
      w.kv("no_slower", row.no_slower);
      w.obj_close();
    }
    w.arr_close();
    w.obj_open("solver");
    w.kv("comm_ranks", 64);
    w.kv("staged_runtime_s", staged.runtime);
    w.kv("sync_runtime_s", sync.runtime);
    w.kv("overlap_runtime_s", overlap.runtime);
    w.kv("sync_equal", sync_equal);
    w.kv("overlap_products_equal", overlap_products_equal);
    w.kv("overlap_speedup", overlap_speedup);
    w.kv("overlap_wait_s", overlap.wait_s);
    w.obj_close();
    w.obj_open("chaos");
    w.kv("staged_runtime_s", chaos_staged.runtime);
    w.kv("sync_runtime_s", chaos_sync.runtime);
    w.kv("sync_equal", chaos_equal);
    w.kv("checkpoint_restores", chaos_sync.restores);
    w.obj_close();
    w.obj_close();
    out << "\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  bool ok = sync_equal && overlap_products_equal && chaos_equal;
  for (const auto& row : direct) {
    ok = ok && row.runtime_equal && row.log_equal && row.products_equal;
  }
  for (const auto& row : overlap_rows) {
    ok = ok && row.products_equal && row.log_equal && row.no_slower;
  }
  if (!ok) {
    std::fprintf(stderr, "async runtime parity mismatch (see above)\n");
    return 1;
  }
  return 0;
}
