// Schedule-space autotuner benchmark (docs/MODEL.md §12).
//
// Four sections, one JSON artifact (schema toastcase-bench-tune-v1,
// gated by scripts/check_bench.py --tune):
//
//   rows        tuned-vs-hand-picked schedules for the paper's shapes
//               (fig4 medium @ 8 procs, fig5 large) per GPU backend.
//               The tuner starts from the default schedule and must end
//               never worse than the best of a hand-picked preset list
//               (each preset is inside the search space, and the search
//               multi-starts from any preset that beats the greedy
//               winner, so the invariant holds by construction).
//   crossover   the comm micro-tuner's argmin over allreduce algorithms
//               across message sizes on the fig5 cluster topology —
//               rediscovering the PR 5 crossover (binomial tree for
//               latency-bound small messages, the ring reduce-scatter +
//               all-gather decomposition for bandwidth-bound large
//               ones) from the cost model alone.
//   determinism the same tune run twice must produce byte-identical
//               winners (config JSON, runtime bits, evaluation count).
//   chaos       the tuned winner run twice under a pinned fault plan
//               must produce byte-identical results.
//
// --json <path> also writes each row's winning schedule as a reusable
// toastcase-schedule-v1 artifact next to the JSON (suffixed per row);
// feed one back with `bench_fig4/bench_fig5 --schedule <file>`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_model/problem.hpp"
#include "bench_util.hpp"
#include "comm/engine.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"
#include "tune/tuner.hpp"

using toast::core::Backend;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

namespace {

namespace config = toast::config;
namespace tune = toast::tune;

struct HandResult {
  std::string name;
  bool oom = false;
  double runtime = std::numeric_limits<double>::infinity();
};

struct RowResult {
  std::string name;
  std::string problem;
  int procs_per_node = 0;
  std::string backend;
  std::vector<HandResult> hand;
  std::string best_hand_name;
  double best_hand_runtime = std::numeric_limits<double>::infinity();
  double tuned_runtime = std::numeric_limits<double>::infinity();
  bool tuned_not_worse = false;
  std::string tuned_hash;
  int tuned_evaluations = 0;
  config::ScheduleConfig tuned_config;
};

/// The hand-picked presets every tuned row competes against.  Each one
/// is reachable inside SearchSpace::full(), so the tuner's winner can
/// always match it.
std::vector<std::pair<std::string, config::ScheduleConfig>> hand_presets(
    const config::ScheduleConfig& base) {
  std::vector<std::pair<std::string, config::ScheduleConfig>> presets;
  presets.emplace_back("default", base);
  {
    auto c = base;
    c.staging.prefetch = true;
    presets.emplace_back("prefetch", c);
  }
  {
    auto c = base;
    c.staging.prefetch = true;
    c.staging.evict = true;
    presets.emplace_back("prefetch_evict", c);
  }
  {
    auto c = base;
    c.staging.mode = config::Staging::kNaive;
    presets.emplace_back("naive", c);
  }
  {
    auto c = base;
    c.comm.mode = config::CommMode::kEngine;
    presets.emplace_back("engine_ring", c);
  }
  {
    auto c = base;
    c.comm.mode = config::CommMode::kEngine;
    c.comm.algorithm = config::CommAlgorithm::kTree;
    presets.emplace_back("engine_tree", c);
  }
  return presets;
}

RowResult tune_row(const std::string& name, const std::string& problem_name,
                   const toast::bench_model::ProblemSize& problem,
                   Backend backend) {
  RowResult row;
  row.name = name;
  row.problem = problem_name;
  row.procs_per_node = problem.procs_per_node;

  JobConfig base{problem, backend};
  row.backend = base.schedule.backend;

  // Hand-picked presets: each evaluated exactly as a user would run it.
  for (const auto& [preset_name, schedule] : hand_presets(base.schedule)) {
    JobConfig cfg = base;
    cfg.schedule = schedule;
    const JobResult r = run_benchmark_job(cfg);
    HandResult h;
    h.name = preset_name;
    h.oom = r.oom;
    if (!r.oom) {
      h.runtime = r.runtime;
      if (r.runtime < row.best_hand_runtime) {
        row.best_hand_runtime = r.runtime;
        row.best_hand_name = preset_name;
      }
    }
    row.hand.push_back(std::move(h));
  }

  // The tuner, greedy from the default schedule; multi-start from any
  // preset the greedy winner failed to dominate.
  const tune::SearchSpace space = tune::SearchSpace::full();
  tune::TuneReport report = tune::tune_job(base, space);
  int evaluations = report.evaluations;
  for (const auto& [preset_name, schedule] : hand_presets(base.schedule)) {
    JobConfig seeded = base;
    seeded.schedule = schedule;
    const auto it =
        std::find_if(row.hand.begin(), row.hand.end(),
                     [&](const HandResult& h) {
                       return h.name == preset_name;
                     });
    if (it != row.hand.end() && !it->oom &&
        it->runtime < report.best_runtime) {
      tune::TuneReport restart = tune::tune_job(seeded, space);
      evaluations += restart.evaluations;
      if (restart.best_runtime < report.best_runtime) {
        report = std::move(restart);
      }
    }
  }
  row.tuned_runtime = report.best_runtime;
  row.tuned_not_worse = report.best_runtime <= row.best_hand_runtime;
  row.tuned_hash = report.best.hash_hex();
  row.tuned_evaluations = evaluations;
  row.tuned_config = report.best;
  return row;
}

struct CrossoverPoint {
  double bytes = 0.0;
  std::string chosen;
  std::map<std::string, double> seconds;
};

/// Fingerprint of a tuned chaos run: every virtual-clock number plus the
/// fault counters at full double precision.  Two runs are "byte
/// identical" when these strings match.
std::string result_fingerprint(const JobResult& r) {
  char buf[64];
  std::string fp;
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g;", v);
    fp += buf;
  };
  num(r.runtime);
  num(r.host_seconds);
  num(r.device_seconds);
  num(r.transfer_seconds);
  num(r.comm_seconds);
  num(static_cast<double>(r.world_ranks));
  for (const auto& [key, value] : r.fault_counters) {
    fp += key;
    fp += "=";
    num(value);
  }
  for (const auto& kernel : r.degraded_kernels) {
    fp += kernel;
    fp += ";";
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = toast::bench::parse_options(argc, argv);
  toast::bench::print_header(
      "Schedule autotuner: tuned vs hand-picked configs + comm crossover");

  // --- tuned rows ----------------------------------------------------------
  auto medium8 = toast::bench_model::medium_problem();
  medium8.procs_per_node = 8;
  const auto large = toast::bench_model::large_problem();

  std::vector<RowResult> rows;
  rows.push_back(
      tune_row("medium_8procs_jax", "medium", medium8, Backend::kJax));
  rows.push_back(
      tune_row("medium_8procs_omp", "medium", medium8, Backend::kOmpTarget));
  rows.push_back(tune_row("large_jax", "large", large, Backend::kJax));
  rows.push_back(
      tune_row("large_omp", "large", large, Backend::kOmpTarget));

  std::printf("%-20s %14s %-16s %14s %6s %6s\n", "row", "best hand",
              "(preset)", "tuned", "ok", "evals");
  std::printf("--------------------------------------------------------------"
              "-----------------\n");
  for (const auto& row : rows) {
    std::printf("%-20s %14s %-16s %14s %6s %6d\n", row.name.c_str(),
                toast::bench::fmt_seconds(row.best_hand_runtime).c_str(),
                ("(" + row.best_hand_name + ")").c_str(),
                toast::bench::fmt_seconds(row.tuned_runtime).c_str(),
                row.tuned_not_worse ? "yes" : "NO", row.tuned_evaluations);
  }

  // --- comm crossover ------------------------------------------------------
  // The fig5 cluster topology (8 nodes x 16 procs, slingshot NICs): the
  // micro-tuner's argmin across message sizes must rediscover the
  // crossover without being told where it is.
  const int ranks = large.total_procs();
  const toast::comm::Engine engine(
      toast::comm::Topology::cluster(ranks, large.procs_per_node));
  std::vector<CrossoverPoint> crossover;
  std::printf("\ncomm crossover (cluster %d ranks, %d per node):\n", ranks,
              large.procs_per_node);
  for (const double bytes :
       {8.0, 1024.0, 65536.0, 1.0e6, 8.0e6, 75497472.0}) {
    const auto choice = tune::best_allreduce_algorithm(engine, bytes);
    CrossoverPoint pt;
    pt.bytes = bytes;
    pt.chosen = config::to_string(choice.algorithm);
    pt.seconds = choice.per_algorithm;
    std::printf("  %10.0f B -> %-9s", bytes, pt.chosen.c_str());
    for (const auto& [alg, s] : pt.seconds) {
      std::printf("  %s=%.3gs", alg.c_str(), s);
    }
    std::printf("\n");
    crossover.push_back(std::move(pt));
  }
  const bool crossover_ok = crossover.front().chosen == "tree" &&
                            crossover.back().chosen == "ring";
  std::printf("  small -> %s, large -> %s %s\n",
              crossover.front().chosen.c_str(),
              crossover.back().chosen.c_str(),
              crossover_ok ? "[crossover rediscovered]" : "[UNEXPECTED]");

  // --- tuner determinism ---------------------------------------------------
  JobConfig det_base{medium8, Backend::kOmpTarget};
  const auto det_a = tune::tune_job(det_base, tune::SearchSpace::full());
  const auto det_b = tune::tune_job(det_base, tune::SearchSpace::full());
  const bool det_ok = det_a.best.json() == det_b.best.json() &&
                      det_a.best_runtime == det_b.best_runtime &&
                      det_a.evaluations == det_b.evaluations;
  std::printf("\ntuner determinism: %s (%d evaluations, winner %s)\n",
              det_ok ? "byte-identical" : "MISMATCH", det_a.evaluations,
              det_a.best.hash_hex().c_str());

  // --- chaos parity under the tuned schedule -------------------------------
  // A pinned fault plan under the tuned winner, run twice: recovery must
  // not break schedule determinism.
  toast::fault::FaultPlan chaos_plan;
  chaos_plan.seed = 11;
  chaos_plan.rules = {
      toast::fault::FaultRule{toast::fault::FaultKind::kLaunch, "", 0.5}};
  JobConfig chaos_cfg = det_base;
  chaos_cfg.schedule = det_a.best;
  chaos_cfg.fault_plan = chaos_plan;
  const JobResult chaos_a = run_benchmark_job(chaos_cfg);
  const JobResult chaos_b = run_benchmark_job(chaos_cfg);
  const bool chaos_ok =
      result_fingerprint(chaos_a) == result_fingerprint(chaos_b);
  std::printf("chaos parity (pinned plan, tuned schedule, 2 runs): %s\n",
              chaos_ok ? "byte-identical" : "MISMATCH");

  // --- JSON ----------------------------------------------------------------
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + opt.json_path);
    }
    toast::bench::JsonWriter w(out);
    w.obj_open();
    w.kv("schema", "toastcase-bench-tune-v1");
    w.kv("benchmark", "tune");
    w.arr_open("rows");
    for (const auto& row : rows) {
      w.obj_open();
      w.kv("name", row.name);
      w.kv("problem", row.problem);
      w.kv("procs_per_node", row.procs_per_node);
      w.kv("backend", row.backend);
      w.arr_open("hand");
      for (const auto& h : row.hand) {
        w.obj_open();
        w.kv("name", h.name);
        w.kv("oom", h.oom);
        if (!h.oom) {
          w.kv("runtime_s", h.runtime);
        }
        w.obj_close();
      }
      w.arr_close();
      w.kv("best_hand_name", row.best_hand_name);
      w.kv("best_hand_runtime_s", row.best_hand_runtime);
      w.kv("tuned_runtime_s", row.tuned_runtime);
      w.kv("tuned_not_worse", row.tuned_not_worse);
      w.kv("tuned_config_hash", row.tuned_hash);
      w.kv("tuned_evaluations", row.tuned_evaluations);
      // The winning schedule, re-usable via --schedule.  It lands next
      // to the JSON, which names it relative to itself so the output
      // does not depend on where the bench ran.
      const std::string schedule_path =
          toast::bench::suffixed_path(opt.json_path, row.name + ".schedule");
      row.tuned_config.save_file(schedule_path);
      w.kv("tuned_schedule_file",
           std::filesystem::path(schedule_path).filename().string());
      w.obj_close();
    }
    w.arr_close();
    w.obj_open("crossover");
    w.kv("ranks", ranks);
    w.kv("procs_per_node", large.procs_per_node);
    w.arr_open("points");
    for (const auto& pt : crossover) {
      w.obj_open();
      w.kv("bytes", pt.bytes);
      w.kv("chosen", pt.chosen);
      w.obj_open("seconds");
      for (const auto& [alg, s] : pt.seconds) {
        w.kv(alg, s);
      }
      w.obj_close();
      w.obj_close();
    }
    w.arr_close();
    w.obj_close();
    w.obj_open("determinism");
    w.kv("repeat_identical", det_ok);
    w.kv("evaluations", det_a.evaluations);
    w.kv("winner_hash", det_a.best.hash_hex());
    w.obj_close();
    w.obj_open("chaos");
    w.kv("bitwise_identical", chaos_ok);
    w.kv("tuned_config_hash", chaos_cfg.schedule.hash_hex());
    w.obj_close();
    w.obj_close();
    out << "\n";
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  return crossover_ok && det_ok && chaos_ok ? 0 : 1;
}
