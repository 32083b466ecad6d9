#include "driver.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bench_model/calibration.hpp"
#include "bench_model/problem.hpp"
#include "comm/engine.hpp"
#include "config/schedule.hpp"
#include "core/context.hpp"
#include "kernels/jax.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "tune/library.hpp"
#include "tune/tuner.hpp"

namespace perfbench {

namespace {

namespace core = toast::core;
namespace mpisim = toast::mpisim;
namespace solver = toast::solver;
namespace tune = toast::tune;
using Clock = std::chrono::steady_clock;

/// Set-up is timed in batches of back-to-back repetitions lasting at least
/// kSetupBatchSeconds (one repetition at least): one batch before the loop
/// and one after every op that ends kSampleEverySeconds or more after the
/// last batch, untimed by the op clock.  setup_s is the fastest repetition
/// of the run.  On a shared VM the host slows a 60 us set-up by up to half
/// for phases of a few seconds, even its fastest repetition; a median, or
/// batches at the start of the run alone, read whichever phase dominated,
/// while a run of tens of seconds almost always has a fast phase to find.
/// Each batch is followed by one run of reference_seconds(), so the
/// reference starts, like the ops, with the last op's data in the caches.
constexpr double kSetupBatchSeconds = 0.01;
constexpr double kSampleEverySeconds = 0.5;
/// Destripe workload: observations per pass (each solved staged and
/// overlapped) and the simulated communicator.
constexpr std::size_t kSolveObservations = 2;
constexpr int kSolveRanks = 16;
constexpr int kSolveRanksPerNode = 4;
/// CG iterations per solve, and the residual reduction they must reach
/// (reached within 44-56 iterations on 40 sampled observations; 75
/// iterations end between 2e-10 and 1.4e-8).
constexpr int kSolveIterations = 75;
constexpr double kSolveReduction = 1e-6;
/// The jax tune row's evaluation cap (a cap of 6 still finds the uncapped
/// winner on fig5-large).
constexpr int kJaxTuneCap = 6;
/// Trace/compile probe: cold/warm exec pairs, on an observation of this
/// many detectors and 1/16 of the fig5 jax rank's samples (about 40 ms per
/// exec).
constexpr int kJitPairs = 20;
constexpr std::int64_t kJitProbeDetectors = 2;
/// Paper-scale map of the fig5 end-of-run allreduce (mirrors mpisim).
constexpr double kFig5MapBytes = 12.0 * 512.0 * 512.0 * 3.0 * 8.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fixed work of the benchmark's own that shows how fast the host is at the
/// moment: 2^19 reads at pseudo-random places of a 4 MiB table (more than a
/// core's L2, well inside the shared L3) feeding a multiply-add chain,
/// about 3 ms.  On a shared VM the ops slow by up to 50%, for seconds to
/// minutes at a time, while other tenants load the host; this loop slows
/// with them, and no change to the program can move it.  Returns its
/// seconds.
double reference_seconds() {
  static const std::vector<double> table(std::size_t{1} << 19, 1.0);
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (int i = 0; i < (1 << 19); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc = acc * 0.999999 + table[x >> 45];
  }
  const double s = seconds_since(t0);
  if (!(acc > 0.0)) {  // never true; makes the loop's result observable
    throw std::logic_error("reference loop");
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Each op's host time in reference units: its seconds over the fastest of
/// the reference samples taken from kReferenceWindowSeconds before the op
/// began to as long after it ended, and of the last one taken before it.
/// The fastest nearby sample follows the host's slow phases and ignores a
/// sample that one hiccup slowed.  Times are seconds from one origin;
/// `ref_at` is ascending and its first sample precedes every op.
constexpr double kReferenceWindowSeconds = 5.0;
std::vector<double> in_reference_units(const std::vector<double>& op_s,
                                       const std::vector<double>& op_at,
                                       const std::vector<double>& ref_s,
                                       const std::vector<double>& ref_at) {
  // Index of the first sample taken after time t.
  const auto after = [&](double t) {
    return static_cast<std::size_t>(
        std::upper_bound(ref_at.begin(), ref_at.end(), t) - ref_at.begin());
  };
  std::vector<double> out;
  for (std::size_t k = 0; k < op_s.size(); ++k) {
    const std::size_t lo = std::min(after(op_at[k]) - 1,
                                    after(op_at[k] - kReferenceWindowSeconds));
    const std::size_t hi = after(op_at[k] + op_s[k] + kReferenceWindowSeconds);
    out.push_back(op_s[k] /
                  *std::min_element(ref_s.begin() + static_cast<long>(lo),
                                    ref_s.begin() + static_cast<long>(hi)));
  }
  return out;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// --- host-time spans ----------------------------------------------------------

struct HostSpan {
  std::string name;
  int op = -1;
  int parent = -1;
  double start = 0.0;  // seconds since the trace origin
  double end = 0.0;
};

/// In-memory host-time span recorder.  A null HostTrace* disables tracing:
/// Scope then records nothing.
class HostTrace {
 public:
  HostTrace() : origin_(Clock::now()) {}

  int begin(std::string name, int op) {
    HostSpan s;
    s.name = std::move(name);
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = seconds_since(origin_);
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Close the innermost open span (Scope nests them strictly).
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
    open_.pop_back();
  }

  const std::vector<HostSpan>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover.
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    return self;
  }

  /// Self times of every span called `name`.
  std::vector<double> self_of(const std::string& name) const {
    const auto self = self_seconds();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        out.push_back(self[i]);
      }
    }
    return out;
  }

  void write_chrome(const std::string& path, const std::string& process) const {
    const auto self = self_seconds();
    std::vector<toast::obs::Span> out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& h = spans_[i];
      toast::obs::Span s;
      s.name = h.name;
      s.category = h.name.substr(0, h.name.find('.'));
      s.start = h.start;
      s.duration = h.end - h.start;
      s.parent = h.parent;
      for (int p = h.parent; p >= 0;
           p = spans_[static_cast<std::size_t>(p)].parent) {
        ++s.depth;
      }
      s.counters["op"] = h.op;
      s.counters["self_s"] = self[i];
      out.push_back(std::move(s));
    }
    toast::obs::write_chrome_trace_file(out, path, process);
  }

 private:
  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(HostTrace* trace, std::string name, int op)
      : trace_(trace),
        id_(trace != nullptr ? trace->begin(std::move(name), op) : -1) {}
  ~Scope() {
    if (trace_ != nullptr) {
      trace_->end(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  HostTrace* trace_;
  int id_;
};

// --- workloads ----------------------------------------------------------------

mpisim::JobConfig job_on(const toast::bench_model::ProblemSize& problem,
                         const std::string& slot, std::uint64_t seed) {
  mpisim::JobConfig cfg;
  cfg.problem = problem;
  cfg.schedule.backend = slot;
  cfg.seed = seed;
  return cfg;
}

toast::bench_model::ProblemSize fig4_problem(int procs) {
  auto p = toast::bench_model::medium_problem();
  p.procs_per_node = procs;
  return p;
}

constexpr int kFig4Procs[] = {1, 2, 4, 8, 16, 32, 64};

struct Loaded {
  toast::config::ScheduleConfig tuned_large_omp;
  tune::ScheduleLibrary library;
};

Loaded load_config(const std::string& root, HostTrace* trace) {
  Scope s(trace, "config.load", -1);
  Loaded l;
  l.tuned_large_omp = toast::config::ScheduleConfig::load_file(
      root + "/bench/schedules/tuned_large_omp.json");
  l.library =
      tune::ScheduleLibrary::load_file(root + "/bench/schedules/index.json");
  return l;
}

/// Destripe input: one simulated, sky-scanned observation with injected
/// step offsets and white noise, so the CG has real work to do.
core::Observation destripe_observation(const solver::DestriperConfig& cfg,
                                       std::uint64_t seed, std::size_t index) {
  const auto fp = toast::sim::hex_focalplane(8, 37.0, 10.0, 50e-6);
  toast::sim::ScanParams scan;
  scan.spin_period = 90.0;
  core::Data data;
  data.observations.push_back(toast::sim::simulate_satellite(
      "destripe" + std::to_string(index), fp, 16384, scan, seed));
  core::ExecContext ctx(core::ExecConfig{});
  toast::sim::WorkflowConfig wf;
  wf.nside = cfg.nside;
  toast::sim::make_scan_pipeline(wf).exec(data, ctx);
  core::Observation ob = std::move(data.observations[0]);

  const std::int64_t n_det = ob.n_detectors();
  const std::int64_t n_samp = ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + cfg.step_length - 1) / cfg.step_length;
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> step(0.0, 3e-5);
  std::normal_distribution<double> white(0.0, 1e-7);
  auto signal = ob.field(core::fields::kSignal).f64();
  for (std::int64_t d = 0; d < n_det; ++d) {
    double level = 0.0;
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      level += step(gen);
      const std::int64_t end = std::min(n_samp, (a + 1) * cfg.step_length);
      for (std::int64_t t = a * cfg.step_length; t < end; ++t) {
        signal[static_cast<std::size_t>(d * n_samp + t)] += level + white(gen);
      }
    }
  }
  return ob;
}

solver::DestriperConfig destriper_config() {
  solver::DestriperConfig cfg;
  cfg.nside = 32;
  cfg.step_length = 256;
  // A fixed iteration count keeps the comm schedule, and so the virtual
  // time, independent of the seed; convergence is checked on the residual.
  cfg.max_iterations = kSolveIterations;
  cfg.tolerance = 0.0;
  cfg.comm_ranks = kSolveRanks;
  cfg.comm_ranks_per_node = kSolveRanksPerNode;
  return cfg;
}

void add_solve_ops(Workload& w, std::size_t observations) {
  for (std::size_t j = 0; j < observations; ++j) {
    w.observations.push_back(
        destripe_observation(w.destriper, op_seed(w.seed, j), j));
    for (const auto mode :
         {solver::AsyncComm::kStaged, solver::AsyncComm::kOverlap}) {
      Op op;
      op.kind = OpKind::kSolve;
      op.mode = mode;
      op.observation = j;
      op.name = "destripe.o" + std::to_string(j) + "." +
                toast::config::to_string(mode);
      w.ops.push_back(std::move(op));
    }
  }
}

void add_job(Workload& w, std::string name, mpisim::JobConfig cfg) {
  cfg.seed = op_seed(w.seed, w.ops.size());
  Op op;
  op.name = std::move(name);
  op.job = std::move(cfg);
  w.ops.push_back(std::move(op));
}

void add_tune(Workload& w, const std::string& slot, int cap) {
  Op op;
  op.kind = OpKind::kTune;
  op.name = "tune.large." + slot;
  op.job = job_on(toast::bench_model::large_problem(), slot,
                  op_seed(w.seed, w.ops.size()));
  op.max_evaluations = cap;
  w.ops.push_back(std::move(op));
}

/// Golden digests of `w` (none when the file does not exist: every op then
/// fails its golden check).
void load_goldens(Workload& w, const std::string& root) {
  if (!std::ifstream(goldens_path(root))) {
    return;
  }
  const auto doc = toast::obs::json::load_file(goldens_path(root));
  const auto* ws = doc.at("workloads").find(w.name);
  if (ws == nullptr) {
    return;
  }
  for (const auto& [op, entry] : ws->object) {
    w.goldens[op] = entry.at("digest").string;
  }
}

Workload build_workload(const std::string& name, std::uint64_t seed,
                        const std::string& root, HostTrace* trace) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.seed = seed;
  w.destriper = destriper_config();
  const Loaded cfg = load_config(root, trace);
  load_goldens(w, root);
  const auto large = toast::bench_model::large_problem();

  if (name == "figjobs_jax") {
    for (const int procs : kFig4Procs) {
      add_job(w, "fig4.p" + std::to_string(procs) + ".jax",
              job_on(fig4_problem(procs), "jax", 0));
    }
    add_job(w, "fig5.jax", job_on(large, "jax", 0));
    add_job(w, "fig5.jax-cpu", job_on(large, "jax-cpu", 0));
  } else if (name == "figjobs_host") {
    for (const int procs : kFig4Procs) {
      for (const char* slot : {"cpu", "omp-target"}) {
        add_job(w, "fig4.p" + std::to_string(procs) + "." + slot,
                job_on(fig4_problem(procs), slot, 0));
      }
    }
    add_job(w, "fig5.cpu", job_on(large, "cpu", 0));
    add_job(w, "fig5.omp-target", job_on(large, "omp-target", 0));
    auto overlap = job_on(large, "omp-target", 0);
    overlap.pipeline_run = mpisim::PipelineRun::kGraphOverlap;
    add_job(w, "fig5.omp-target.graph-overlap", overlap);
    // The library's entry for this job must be the checked-in artifact.
    const auto* entry = tune::library_lookup(
        cfg.library, {large.name, large.nodes, large.procs_per_node,
                      "omp-target"});
    if (entry == nullptr || !(*entry == cfg.tuned_large_omp)) {
      throw std::runtime_error(
          "schedule library does not map large/omp-target to "
          "tuned_large_omp.json");
    }
    auto tuned = job_on(large, "omp-target", 0);
    tuned.schedule = cfg.tuned_large_omp;
    add_job(w, "fig5.omp-target.tuned-schedule", tuned);
  } else if (name == "tune_rows") {
    add_tune(w, "omp-target", 0);
    add_tune(w, "cpu", 0);
    add_tune(w, "jax", kJaxTuneCap);
  } else {  // destripe
    add_solve_ops(w, kSolveObservations);
  }
  return w;
}

// --- op execution -------------------------------------------------------------

bool is_replay_slot(const std::string& slot) {
  return slot == "cpu" || slot == "omp-target" || slot == "jax";
}

/// What one op produced: its digest and the figures the checks and the
/// per-layer metrics read.
struct Outcome {
  bool threw = false;
  std::string error;
  std::string digest;
  double virtual_s = 0.0;
  /// Host seconds of the op's timed public calls.
  double host_s = 0.0;
  // kJob
  bool oom = false;
  double spans = 0.0;
  double launches = 0.0;
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  double plan_hits = 0.0;
  double plan_misses = 0.0;
  // kTune
  toast::config::ScheduleConfig best;
  double base_runtime = 0.0;
  int evaluations = 0;
  int cache_hits = 0;
  // kSolve
  std::vector<double> amplitudes;
  std::vector<double> residuals;
  bool converged = false;
  int iterations = 0;
};

/// The ExecConfig of the representative rank of `cfg` (mirrors mpisim's).
core::ExecConfig rank_exec_config(const mpisim::JobConfig& cfg) {
  const auto p = cfg.effective_problem();
  core::ExecConfig ec;
  ec.schedule = cfg.schedule;
  ec.backend = cfg.backend_id();
  ec.threads = p.threads_per_proc();
  ec.socket_active_threads = p.cores_per_node;
  ec.work_scale = p.sample_scale();
  ec.map_scale = (512.0 / static_cast<double>(p.nside)) *
                 (512.0 / static_cast<double>(p.nside));
  ec.device_spec = cfg.device_spec;
  ec.omp_dispatch_overhead = cfg.omp_dispatch_overhead;
  return ec;
}

/// The benchmark pipeline of the representative rank of `cfg`.
core::Pipeline rank_pipeline(const mpisim::JobConfig& cfg) {
  toast::sim::WorkflowConfig wf;
  wf.nside = cfg.effective_problem().nside;
  wf.map_iterations = toast::bench_model::framework_model().map_iterations;
  auto pipeline =
      toast::sim::make_benchmark_pipeline(wf, cfg.schedule.staging.mode);
  pipeline.set_schedule(cfg.schedule);
  return pipeline;
}

/// One simulated observation of `n_det` detectors and `n_samples` samples,
/// scanned as mpisim scans a rank's observations.
core::Observation rank_observation(std::int64_t n_det, std::int64_t n_samples,
                                   std::uint64_t seed) {
  const auto fp = toast::sim::hex_focalplane(n_det, 37.0);
  toast::sim::ScanParams scan;
  scan.spin_period = static_cast<double>(n_samples) / 37.0 / 6.0;
  return toast::sim::simulate_satellite("obs0", fp, n_samples, scan, seed);
}

/// The representative rank of `cfg` driven through the layers' own entry
/// points (sim::simulate_satellite, Pipeline::plan_for, Pipeline::exec),
/// so each gets its own span.  The cold exec (first after
/// clear_jit_caches) runs on a copy of the observation and the warm exec
/// on the observation itself, so only the state of the JIT caches differs
/// between the two.
void replay_rank(const mpisim::JobConfig& cfg, HostTrace& trace, int op) {
  Scope root(&trace, "replay", op);
  const auto p = cfg.effective_problem();
  const std::string& slot = cfg.schedule.backend;
  core::ExecContext ctx(rank_exec_config(cfg));
  toast::kernels::jax::clear_jit_caches();
  core::Observation ob = [&] {
    Scope s(&trace, "sim.simulate_satellite", op);
    return rank_observation(p.actual_n_detectors, p.actual_n_samples,
                            cfg.seed);
  }();
  auto pipeline = rank_pipeline(cfg);
  {
    Scope s(&trace, "core.plan_for", op);
    pipeline.plan_for(ob, ctx);
  }
  core::Observation cold = ob;
  {
    Scope s(&trace, "core.exec.cold." + slot, op);
    pipeline.exec(cold, ctx);
  }
  {
    Scope s(&trace, "core.exec.warm." + slot, op);
    pipeline.exec(ob, ctx);
  }
}

std::string tune_digest(const tune::TuneReport& r) {
  std::string t = "best=" + r.best.hash_hex() + " rt=" +
                  hexfloat(r.best_runtime) +
                  " evals=" + std::to_string(r.evaluations) +
                  " hits=" + std::to_string(r.cache_hits) +
                  " sweeps=" + std::to_string(r.sweeps) + "\n";
  for (const auto& e : r.trials) {
    t += e.config.hash_hex() + " " + hexfloat(e.runtime) + "\n";
  }
  return fnv1a_hex(t);
}

std::string solve_digest(const Outcome& o, const toast::accel::TimeLog& log) {
  std::string t = "iters=" + std::to_string(o.iterations) +
                  " converged=" + std::to_string(o.converged) +
                  " elapsed=" + hexfloat(o.virtual_s) + "\namplitudes";
  for (const double a : o.amplitudes) {
    t += " " + hexfloat(a);
  }
  t += "\nresiduals";
  for (const double r : o.residuals) {
    t += " " + hexfloat(r);
  }
  return fnv1a_hex(t + "\n" + timelog_text(log));
}

/// Run one op.  Only the public calls are timed; `trace` (may be null)
/// receives their spans, plus a rank replay for job ops.
Outcome execute(const Op& op, const Workload& w, HostTrace* trace, int id) {
  Outcome o;
  Scope root(trace, op.name, id);
  try {
    if (op.kind == OpKind::kJob) {
      const auto t0 = Clock::now();
      mpisim::JobResult r;
      {
        Scope s(trace, "mpisim.run_benchmark_job", id);
        r = mpisim::run_benchmark_job(op.job);
      }
      if (!r.oom) {
        Scope s(trace, "obs.write_metrics_json", id);
        std::ostringstream out;
        toast::obs::write_metrics_json(
            r.rank_spans, out, {{"benchmark", w.name}, {"op", op.name}});
      }
      o.host_s = seconds_since(t0);
      o.digest = job_digest(r);
      o.oom = r.oom;
      o.virtual_s = r.oom ? 0.0 : r.runtime;
      o.spans = static_cast<double>(r.rank_spans.size());
      for (const auto& [name, row] : toast::obs::aggregate_metrics(r.rank_spans)) {
        o.launches += row.launches;
        const auto h2d = row.counters.find("bytes_h2d");
        const auto d2h = row.counters.find("bytes_d2h");
        o.h2d_bytes += h2d == row.counters.end() ? 0.0 : h2d->second;
        o.d2h_bytes += d2h == row.counters.end() ? 0.0 : d2h->second;
      }
      const auto hits = r.plan_counters.find("plan_cache_hits");
      const auto misses = r.plan_counters.find("plan_cache_misses");
      o.plan_hits = hits == r.plan_counters.end() ? 0.0 : hits->second;
      o.plan_misses = misses == r.plan_counters.end() ? 0.0 : misses->second;
      if (trace != nullptr && !r.oom && is_replay_slot(op.job.schedule.backend) &&
          op.job.pipeline_run == mpisim::PipelineRun::kStaged) {
        replay_rank(op.job, *trace, id);
      }
    } else if (op.kind == OpKind::kTune) {
      tune::TuneOptions topt;
      topt.max_evaluations = op.max_evaluations;
      const auto t0 = Clock::now();
      tune::TuneReport r;
      {
        Scope s(trace, "tune.tune_job", id);
        r = tune::tune_job(op.job, tune::SearchSpace::full(), topt);
      }
      o.host_s = seconds_since(t0);
      o.digest = tune_digest(r);
      o.virtual_s = r.best_runtime;
      o.best = r.best;
      o.base_runtime = r.trials.empty()
                           ? std::numeric_limits<double>::infinity()
                           : r.trials.front().runtime;
      o.evaluations = r.evaluations;
      o.cache_hits = r.cache_hits;
    } else {
      core::Observation ob = w.observations.at(op.observation);
      solver::DestriperConfig cfg = w.destriper;
      cfg.async_comm = op.mode;
      core::ExecConfig ec;
      ec.backend = core::Backend::kOmpTarget;
      ec.schedule.set_backend(core::Backend::kOmpTarget);
      core::ExecContext ctx(ec);
      solver::Destriper destriper(cfg);
      const auto t0 = Clock::now();
      solver::DestriperResult r;
      {
        Scope s(trace,
                std::string("solver.solve.") + toast::config::to_string(op.mode),
                id);
        r = destriper.solve(ob, ctx, core::Backend::kOmpTarget);
      }
      o.host_s = seconds_since(t0);
      o.virtual_s = ctx.elapsed();
      o.amplitudes = std::move(r.amplitudes);
      o.residuals = std::move(r.residuals);
      o.converged = r.converged;
      o.iterations = r.iterations;
      o.digest = solve_digest(o, ctx.log());
    }
  } catch (const std::exception& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

// --- checks -------------------------------------------------------------------

/// Failure bookkeeping of one pass: a flag per op plus the reasons.
struct PassChecks {
  std::vector<bool> failed;
  std::vector<std::string> reasons;

  void fail(std::size_t i, const std::string& why) {
    failed[i] = true;
    reasons.push_back(why);
  }
};

std::size_t index_of(const Workload& w, const std::string& name) {
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].name == name) {
      return i;
    }
  }
  throw std::logic_error("no op " + name);
}

/// Seed-independent orderings of the paper's figures 4 and 5.
void check_figure_invariants(const Workload& w,
                             const std::vector<Outcome>& out,
                             PassChecks& checks) {
  // An op that threw has already failed; orderings involving it are moot.
  const auto expect = [&](bool cond, const std::string& what,
                          std::initializer_list<std::string> ops) {
    for (const auto& n : ops) {
      if (out[index_of(w, n)].threw) {
        return;
      }
    }
    if (cond) {
      return;
    }
    for (const auto& n : ops) {
      checks.fail(index_of(w, n), w.name + ": " + what);
    }
  };
  const auto oom = [&](const std::string& n) {
    return out[index_of(w, n)].oom;
  };
  const auto rt = [&](const std::string& n) {
    return out[index_of(w, n)].virtual_s;
  };
  const auto fig4 = [](int procs, const char* slot) {
    return "fig4.p" + std::to_string(procs) + "." + slot;
  };

  if (w.name == "figjobs_jax") {
    expect(oom(fig4(1, "jax")) && oom(fig4(64, "jax")),
           "jax OOM at 1 and 64 processes", {fig4(1, "jax"), fig4(64, "jax")});
    for (const int procs : {2, 4, 8, 16, 32}) {
      expect(!oom(fig4(procs, "jax")), "jax fits at " + std::to_string(procs),
             {fig4(procs, "jax")});
    }
    expect(rt(fig4(2, "jax")) > rt(fig4(4, "jax")) &&
               rt(fig4(4, "jax")) > rt(fig4(8, "jax")),
           "jax runtime falls from 2 to 8 processes",
           {fig4(2, "jax"), fig4(4, "jax"), fig4(8, "jax")});
    expect(!oom("fig5.jax") && !oom("fig5.jax-cpu") &&
               rt("fig5.jax-cpu") > rt("fig5.jax"),
           "fig5: jax on its CPU backend slower than jax",
           {"fig5.jax", "fig5.jax-cpu"});
  }
  if (w.name == "figjobs_host") {
    expect(!oom(fig4(1, "omp-target")) && oom(fig4(64, "omp-target")),
           "omp-target fits at 1 process, OOM at 64",
           {fig4(1, "omp-target"), fig4(64, "omp-target")});
    for (std::size_t k = 0; k < std::size(kFig4Procs); ++k) {
      const int procs = kFig4Procs[k];
      expect(!oom(fig4(procs, "cpu")), "cpu never OOMs", {fig4(procs, "cpu")});
      if (k > 0) {
        const int prev = kFig4Procs[k - 1];
        expect(rt(fig4(prev, "cpu")) > rt(fig4(procs, "cpu")),
               "cpu runtime falls with process count",
               {fig4(prev, "cpu"), fig4(procs, "cpu")});
      }
      if (!oom(fig4(procs, "omp-target"))) {
        expect(rt(fig4(procs, "omp-target")) < rt(fig4(procs, "cpu")),
               "omp-target faster than cpu at " + std::to_string(procs),
               {fig4(procs, "omp-target"), fig4(procs, "cpu")});
      }
    }
    expect(rt("fig5.omp-target") < rt("fig5.cpu"),
           "fig5: omp-target faster than cpu", {"fig5.omp-target", "fig5.cpu"});
    expect(rt("fig5.omp-target.graph-overlap") <= rt("fig5.omp-target"),
           "fig5: graph overlap never slower than staged replay",
           {"fig5.omp-target.graph-overlap", "fig5.omp-target"});
    expect(rt("fig5.omp-target.tuned-schedule") < rt("fig5.omp-target"),
           "fig5: tuned schedule faster than the default schedule",
           {"fig5.omp-target.tuned-schedule", "fig5.omp-target"});
  }
}

/// Per-op checks of the first pass: golden digest (default seed), tuner
/// winner and replay, CG convergence and overlap == staged.
void check_first_pass(const Workload& w, const std::vector<Outcome>& out,
                      PassChecks& checks) {
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const Outcome& o = out[i];
    if (o.threw) {
      checks.fail(i, op.name + " threw: " + o.error);
      continue;
    }
    if (w.seed == kDefaultSeed) {
      const auto g = w.goldens.find(op.name);
      if (g == w.goldens.end() || g->second != o.digest) {
        checks.fail(i, op.name + ": digest " + o.digest + " != golden " +
                           (g == w.goldens.end() ? "(none)" : g->second));
      }
    }
    if (op.kind == OpKind::kTune) {
      if (!(o.virtual_s <= o.base_runtime) || !std::isfinite(o.virtual_s)) {
        checks.fail(i, op.name + ": winner worse than its base");
        continue;
      }
      mpisim::JobConfig replay = op.job;
      replay.schedule = o.best;
      const double rt = mpisim::run_benchmark_job(replay).runtime;
      if (std::memcmp(&rt, &o.virtual_s, sizeof rt) != 0) {
        checks.fail(i, op.name + ": replaying the winner gives " +
                           hexfloat(rt) + ", tuner said " +
                           hexfloat(o.virtual_s));
      }
    } else if (op.kind == OpKind::kSolve) {
      if (o.iterations != kSolveIterations ||
          !(o.residuals.back() <= kSolveReduction * o.residuals.front())) {
        checks.fail(i, op.name + ": CG did not converge");
      }
      if (op.mode == solver::AsyncComm::kOverlap) {
        // The staged solve of the same observation precedes it.
        const Outcome& staged = out.at(i - 1);
        if (o.amplitudes != staged.amplitudes ||
            o.residuals != staged.residuals) {
          checks.fail(i, op.name + ": overlap amplitudes differ from staged");
        }
      }
    }
  }
  check_figure_invariants(w, out, checks);
}

// --- per-layer metrics ----------------------------------------------------------

/// Counts of the first pass (computed, so they repeat exactly).
struct LayerCounts {
  double jobs = 0.0;  // non-OOM jobs
  double spans = 0.0;
  double accel_jobs = 0.0;
  double launches = 0.0;
  double h2d = 0.0;
  double d2h = 0.0;
  double plan_hits = 0.0;
  double plan_misses = 0.0;
  double tune_rows = 0.0;
  double evaluations = 0.0;
  double cache_hits = 0.0;
  double solves = 0.0;
  double iterations = 0.0;
  double virtual_staged = 0.0;
  double virtual_overlap = 0.0;
};

void count(const Op& op, const Outcome& o, LayerCounts& c) {
  if (o.threw) {
    return;
  }
  if (op.kind == OpKind::kJob && !o.oom) {
    c.jobs += 1.0;
    c.spans += o.spans;
    c.plan_hits += o.plan_hits;
    c.plan_misses += o.plan_misses;
    if (toast::core::is_accel(op.job.backend_id())) {
      c.accel_jobs += 1.0;
      c.launches += o.launches;
      c.h2d += o.h2d_bytes;
      c.d2h += o.d2h_bytes;
    }
  } else if (op.kind == OpKind::kTune) {
    c.tune_rows += 1.0;
    c.evaluations += o.evaluations;
    c.cache_hits += o.cache_hits;
  } else if (op.kind == OpKind::kSolve) {
    c.solves += 1.0;
    c.iterations += o.iterations;
    (op.mode == solver::AsyncComm::kOverlap ? c.virtual_overlap
                                            : c.virtual_staged) += o.virtual_s;
  }
}

/// Per-layer metrics that the spans and counts support (a metric with no
/// data is left out, so the caller can fill it from a probe).  Span op ids
/// index `ops`.
std::map<std::string, double> layer_metrics(const HostTrace& t,
                                            const LayerCounts& c,
                                            const std::vector<Op>& ops) {
  std::map<std::string, double> m;
  const auto put_median = [&](const std::string& metric,
                              const std::string& span) {
    const auto v = t.self_of(span);
    if (!v.empty()) {
      m[metric] = median(v);
    }
  };
  put_median("mpisim.job_s", "mpisim.run_benchmark_job");
  put_median("obs.export_s", "obs.write_metrics_json");
  put_median("sim.simulate_s", "sim.simulate_satellite");
  put_median("core.plan_build_s", "core.plan_for");
  for (const char* slot : {"cpu", "omp-target", "jax"}) {
    put_median(std::string("core.exec_cold_s.") + slot,
               std::string("core.exec.cold.") + slot);
    put_median(std::string("core.exec_warm_s.") + slot,
               std::string("core.exec.warm.") + slot);
  }
  put_median("comm.allreduce_s", "comm.allreduce_seconds");
  put_median("solver.solve_s.staged", "solver.solve.staged");
  put_median("solver.solve_s.overlap", "solver.solve.overlap");
  put_median("tune.row_s", "tune.tune_job");
  put_median("config.load_s", "config.load");

  if (c.jobs > 0.0) {
    m["obs.spans_per_job"] = c.spans / c.jobs;
    if (c.plan_hits + c.plan_misses > 0.0) {
      m["core.plan_hit_ratio"] = c.plan_hits / (c.plan_hits + c.plan_misses);
    }
  }
  if (c.accel_jobs > 0.0) {
    m["accel.launches"] = c.launches / c.accel_jobs;
    m["accel.h2d_bytes"] = c.h2d / c.accel_jobs;
    m["accel.d2h_bytes"] = c.d2h / c.accel_jobs;
  }
  const auto cold = t.self_of("xla.probe.cold");
  const auto warm = t.self_of("xla.probe.warm");
  if (!cold.empty() && cold.size() == warm.size()) {
    std::vector<double> pairs;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      pairs.push_back(cold[i] - warm[i]);
    }
    m["xla.trace_compile_s"] = median(pairs);
  }
  if (m.count("core.exec_warm_s.jax") != 0) {
    // Warm execution of one observation over a jax job's host time.
    const auto self = t.self_seconds();
    std::vector<double> jax_jobs;
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
      const HostSpan& s = t.spans()[i];
      if (s.name == "mpisim.run_benchmark_job" && s.op >= 0 &&
          ops[static_cast<std::size_t>(s.op)].job.schedule.backend == "jax") {
        jax_jobs.push_back(self[i]);
      }
    }
    if (!jax_jobs.empty()) {
      m["xla.execute_share"] = m["core.exec_warm_s.jax"] / median(jax_jobs);
    }
  }
  if (c.tune_rows > 0.0) {
    m["tune.evaluations"] = c.evaluations;
    m["tune.cache_hits"] = c.cache_hits;
    m["tune.hit_ratio"] = c.cache_hits / (c.cache_hits + c.evaluations);
    const auto rows = t.self_of("tune.tune_job");
    double total = 0.0;
    for (const double s : rows) {
      total += s;
    }
    m["tune.s_per_evaluation"] = total / static_cast<double>(rows.size()) /
                                 (c.evaluations / c.tune_rows);
  }
  if (c.solves > 0.0) {
    m["solver.iterations"] = c.iterations / c.solves;
    if (m.count("solver.solve_s.staged") != 0 &&
        m.count("solver.solve_s.overlap") != 0) {
      const double per_solve =
          0.5 * (m["solver.solve_s.staged"] + m["solver.solve_s.overlap"]);
      m["solver.s_per_iteration"] = per_solve / m["solver.iterations"];
      m["async.overhead_s"] =
          m["solver.solve_s.overlap"] - m["solver.solve_s.staged"];
      m["async.overlap_speedup"] = c.virtual_staged / c.virtual_overlap;
    }
  }
  return m;
}

/// comm::Engine::allreduce_seconds on the destriper's message sizes (a CG
/// dot product and the binned signal+hit map, on its 16-rank communicator)
/// and on the fig5 map allreduce (128 ranks, 16 per node), every algorithm.
void comm_probe(HostTrace& t, const solver::DestriperConfig& d) {
  namespace comm = toast::comm;
  const comm::Engine solve_engine(comm::Topology::cluster(
      d.comm_ranks, d.comm_ranks_per_node, d.network));
  const comm::Engine fig5_engine(comm::Topology::cluster(128, 16));
  const double map_bytes =
      2.0 * 12.0 * static_cast<double>(d.nside * d.nside) * 8.0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto alg : {comm::Algorithm::kRing, comm::Algorithm::kRecursive,
                           comm::Algorithm::kTree}) {
      for (const auto& [engine, bytes] :
           {std::pair{&solve_engine, 8.0}, std::pair{&solve_engine, map_bytes},
            std::pair{&fig5_engine, kFig5MapBytes}}) {
        Scope s(&t, "comm.allreduce_seconds", -1);
        engine->allreduce_seconds(bytes, alg);
      }
    }
  }
}

/// The jax trace/compile step: kJitPairs pairs of a cold exec (first after
/// clear_jit_caches) and a warm exec of the fig5 jax rank's pipeline, on
/// copies of one small observation.  On a job-sized observation the step
/// (a few milliseconds) is lost in the noise of a 0.5 s exec.
void jit_probe(HostTrace& t, std::uint64_t seed) {
  const auto cfg = job_on(toast::bench_model::large_problem(), "jax", seed);
  const auto p = cfg.effective_problem();
  core::ExecContext ctx(rank_exec_config(cfg));
  const core::Observation ob =
      rank_observation(kJitProbeDetectors, p.actual_n_samples / 16, seed);
  auto pipeline = rank_pipeline(cfg);
  pipeline.plan_for(ob, ctx);
  for (int pair = 0; pair < kJitPairs; ++pair) {
    toast::kernels::jax::clear_jit_caches();
    for (const char* span : {"xla.probe.cold", "xla.probe.warm"}) {
      core::Observation in = ob;
      Scope s(&t, span, -1);
      pipeline.exec(in, ctx);
    }
  }
}

/// Per-layer metrics the workload's own ops do not exercise come from a
/// small traced probe: fig5-large jobs on the missing slots, a capped
/// omp-target tune row, one staged/overlap destripe pair.
void fill_from_probe(std::map<std::string, double>& m, std::uint64_t seed,
                     RunResult& res) {
  Workload probe;
  probe.name = "probe";
  probe.seed = seed;
  probe.destriper = destriper_config();
  const auto large = toast::bench_model::large_problem();
  for (const char* slot : {"cpu", "omp-target", "jax"}) {
    if (m.count(std::string("core.exec_warm_s.") + slot) == 0 ||
        m.count("mpisim.job_s") == 0 ||
        (m.count("xla.execute_share") == 0 && std::string(slot) == "jax")) {
      add_job(probe, std::string("probe.fig5.") + slot,
              job_on(large, slot, 0));
    }
  }
  if (m.count("tune.row_s") == 0) {
    add_tune(probe, "omp-target", 8);
  }
  if (m.count("solver.solve_s.staged") == 0) {
    add_solve_ops(probe, 1);
  }
  HostTrace t;
  LayerCounts c;
  for (std::size_t i = 0; i < probe.ops.size(); ++i) {
    const Outcome o = execute(probe.ops[i], probe, &t, static_cast<int>(i));
    ++res.attempted;
    if (o.threw) {
      ++res.failed;
      res.failures.push_back(probe.ops[i].name + " threw: " + o.error);
    }
    count(probe.ops[i], o, c);
  }
  for (const auto& [name, value] : layer_metrics(t, c, probe.ops)) {
    m.emplace(name, value);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

// --- public API -------------------------------------------------------------------

std::uint64_t op_seed(std::uint64_t workload_seed, std::size_t index) {
  // splitmix64 of the seed advanced by index + 1 golden-ratio steps.
  std::uint64_t z = workload_seed +
                    0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"figjobs_jax", "figjobs_host",
                                                 "tune_rows", "destripe"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root) {
  return build_workload(name, seed, root, nullptr);
}

std::string goldens_path(const std::string& root) {
  return root + "/perfbench/goldens.json";
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string timelog_text(const toast::accel::TimeLog& log) {
  std::string t;
  for (const auto& c : log.categories()) {
    t += c + " " + std::to_string(log.calls(c)) + " " +
         hexfloat(log.seconds(c)) + "\n";
  }
  return t;
}

std::string job_digest(const toast::mpisim::JobResult& r) {
  std::string t = "oom=" + std::to_string(r.oom) + " " + r.oom_reason + "\n";
  t += "runtime=" + hexfloat(r.runtime) + " host=" + hexfloat(r.host_seconds) +
       " device=" + hexfloat(r.device_seconds) +
       " transfer=" + hexfloat(r.transfer_seconds) +
       " comm=" + hexfloat(r.comm_seconds) + "\n";
  t += timelog_text(r.rank_log);
  for (const auto& [key, value] : r.plan_counters) {
    t += key + "=" + hexfloat(value) + "\n";
  }
  return fnv1a_hex(t);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall_ref", "ref"},   {"op_p50_ref", "ref"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"}, {"ok_ratio", "ratio"}, {"virtual_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"traced.wall_s", "s"},
      {"mpisim.job_s", "s"},
      {"sim.simulate_s", "s"},
      {"core.plan_build_s", "s"},
      {"core.exec_cold_s.cpu", "s"},
      {"core.exec_cold_s.omp-target", "s"},
      {"core.exec_cold_s.jax", "s"},
      {"core.exec_warm_s.cpu", "s"},
      {"core.exec_warm_s.omp-target", "s"},
      {"core.exec_warm_s.jax", "s"},
      {"core.plan_hit_ratio", "ratio"},
      {"xla.trace_compile_s", "s"},
      {"xla.execute_share", "ratio"},
      {"accel.launches", "count"},
      {"accel.h2d_bytes", "bytes"},
      {"accel.d2h_bytes", "bytes"},
      {"comm.allreduce_s", "s"},
      {"solver.solve_s.staged", "s"},
      {"solver.solve_s.overlap", "s"},
      {"solver.iterations", "count"},
      {"solver.s_per_iteration", "s"},
      {"async.overhead_s", "s"},
      {"async.overlap_speedup", "ratio"},
      {"tune.row_s", "s"},
      {"tune.evaluations", "count"},
      {"tune.cache_hits", "count"},
      {"tune.hit_ratio", "ratio"},
      {"tune.s_per_evaluation", "s"},
      {"obs.spans_per_job", "count"},
      {"obs.export_s", "s"},
      {"config.load_s", "s"},
  };
  return specs;
}

RunResult run(const RunOptions& opt) {
  RunResult res;
  HostTrace trace;
  HostTrace* tp = opt.trace ? &trace : nullptr;

  // `w` keeps the last workload built.
  double setup_s = std::numeric_limits<double>::infinity();
  const auto start = Clock::now();
  std::vector<double> reference_s;
  std::vector<double> reference_at;  // seconds from `start`
  const auto sample = [&](Workload& into) {
    for (const auto b0 = Clock::now(); seconds_since(b0) < kSetupBatchSeconds;) {
      const auto t0 = Clock::now();
      into = build_workload(opt.workload, opt.seed, opt.root, tp);
      setup_s = std::min(setup_s, seconds_since(t0));
    }
    reference_s.push_back(reference_seconds());
    reference_at.push_back(seconds_since(start));
  };
  Workload w;
  sample(w);
  auto last_sample = Clock::now();

  // Closed loop: whole passes over the op list while the next pass is
  // expected to end inside the time budget (always at least one pass).
  // The next pass is expected to take as long as the ops of the last one;
  // the first pass's extra checks do not repeat.
  std::vector<double> pass_s;
  std::vector<double> op_s;
  std::vector<double> op_at;  // seconds from `start`
  std::vector<Outcome> first;
  LayerCounts counts;
  const auto loop0 = Clock::now();
  for (int pass = 0;; ++pass) {
    std::vector<Outcome> out;
    double timed = 0.0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      op_at.push_back(seconds_since(start));
      out.push_back(execute(w.ops[i], w, tp, static_cast<int>(i)));
      timed += out.back().host_s;
      op_s.push_back(out.back().host_s);
      if (seconds_since(last_sample) >= kSampleEverySeconds) {
        Workload again;
        sample(again);
        last_sample = Clock::now();
      }
    }
    pass_s.push_back(timed);

    PassChecks checks{std::vector<bool>(w.ops.size(), false), {}};
    if (pass == 0) {
      check_first_pass(w, out, checks);
      for (std::size_t i = 0; i < w.ops.size(); ++i) {
        count(w.ops[i], out[i], counts);
      }
    } else {
      for (std::size_t i = 0; i < w.ops.size(); ++i) {
        if (out[i].threw) {
          checks.fail(i, w.ops[i].name + " threw: " + out[i].error);
        } else if (out[i].digest != first[i].digest) {
          checks.fail(i, w.ops[i].name + ": pass " + std::to_string(pass) +
                             " digest differs from pass 0");
        }
      }
    }
    res.attempted += static_cast<long>(w.ops.size());
    res.failed += std::count(checks.failed.begin(), checks.failed.end(), true);
    res.failures.insert(res.failures.end(), checks.reasons.begin(),
                        checks.reasons.end());
    if (pass == 0) {
      first = std::move(out);
    }
    if (seconds_since(loop0) + timed > opt.seconds) {
      break;
    }
  }

  double virtual_s = 0.0;
  for (const auto& o : first) {
    virtual_s += o.virtual_s;
  }

  // Host seconds for the log; the metrics are in reference units.
  res.log["wall_s"] = median(pass_s);
  res.log["op_p50_s"] = median(op_s);
  res.log["reference_s"] = median(reference_s);
  if (!opt.trace) {
    const std::vector<double> op_ref =
        in_reference_units(op_s, op_at, reference_s, reference_at);
    std::vector<double> pass_ref;
    for (std::size_t k = 0; k < op_ref.size(); k += w.ops.size()) {
      pass_ref.push_back(std::accumulate(op_ref.begin() + k,
                                         op_ref.begin() + k + w.ops.size(),
                                         0.0));
    }
    res.metrics["wall_ref"] = median(pass_ref);
    res.metrics["op_p50_ref"] = median(op_ref);
    res.metrics["setup_s"] = setup_s;
    res.metrics["peak_rss_mb"] = peak_rss_mb();
    res.metrics["ok_ratio"] = 1.0 - static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted);
    res.metrics["virtual_s"] = virtual_s;
    return res;
  }

  comm_probe(trace, w.destriper);
  jit_probe(trace, opt.seed);
  res.metrics = layer_metrics(trace, counts, w.ops);
  res.metrics["traced.wall_s"] = median(pass_s);
  fill_from_probe(res.metrics, opt.seed, res);

  // Tracing must not change results: rerun the cheapest op that ran a job
  // untraced and compare its digest with the traced first pass.
  std::size_t twin = 0;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const bool usable = !first[i].oom && !first[i].threw;
    const bool twin_usable = !first[twin].oom && !first[twin].threw;
    if (usable && (!twin_usable || first[i].host_s < first[twin].host_s)) {
      twin = i;
    }
  }
  ++res.attempted;
  const Outcome untraced = execute(w.ops[twin], w, nullptr, -1);
  if (untraced.threw || untraced.digest != first[twin].digest) {
    ++res.failed;
    res.failures.push_back(w.ops[twin].name +
                           ": traced result differs from untraced");
  }
  if (!opt.trace_out.empty()) {
    trace.write_chrome(opt.trace_out, "perfbench-" + w.name);
  }
  return res;
}

int regenerate_goldens(const std::string& workload, const std::string& root) {
  const Workload w = make_workload(workload, kDefaultSeed, root);

  // file: workload -> op -> (digest, virtual_s)
  std::map<std::string, std::map<std::string, std::pair<std::string, double>>>
      file;
  if (std::ifstream(goldens_path(root))) {
    const auto doc = toast::obs::json::load_file(goldens_path(root));
    for (const auto& [wname, ops] : doc.at("workloads").object) {
      for (const auto& [oname, e] : ops.object) {
        file[wname][oname] = {e.at("digest").string, e.at("virtual_s").number};
      }
    }
  }
  auto& entries = file[workload];
  int changed = 0;
  std::map<std::string, std::pair<std::string, double>> fresh;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Outcome o = execute(w.ops[i], w, nullptr, static_cast<int>(i));
    if (o.threw) {
      throw std::runtime_error(w.ops[i].name + " threw: " + o.error);
    }
    const auto old = entries.find(w.ops[i].name);
    if (old == entries.end() || old->second.first != o.digest) {
      ++changed;
      std::printf("%-36s %s -> %s  virtual %.17g -> %.17g s\n",
                  w.ops[i].name.c_str(),
                  old == entries.end() ? "(none)          "
                                       : old->second.first.c_str(),
                  o.digest.c_str(),
                  old == entries.end() ? 0.0 : old->second.second,
                  o.virtual_s);
    }
    fresh[w.ops[i].name] = {o.digest, o.virtual_s};
  }
  for (const auto& [name, e] : entries) {
    if (fresh.count(name) == 0) {
      ++changed;
      std::printf("%-36s removed\n", name.c_str());
    }
  }
  entries = fresh;

  std::ofstream out(goldens_path(root));
  if (!out) {
    throw std::runtime_error("cannot write " + goldens_path(root));
  }
  out << "{\n  \"schema\": \"perfbench-goldens-v1\",\n  \"seed\": "
      << kDefaultSeed << ",\n  \"workloads\": {";
  const char* wsep = "\n";
  for (const auto& [wname, ops] : file) {
    out << wsep << "    \"" << wname << "\": {";
    const char* osep = "\n";
    for (const auto& [oname, e] : ops) {
      char num[40];
      std::snprintf(num, sizeof(num), "%.17g", e.second);
      out << osep << "      \"" << oname << "\": {\"digest\": \"" << e.first
          << "\", \"virtual_s\": " << num << "}";
      osep = ",\n";
    }
    out << "\n    }";
    wsep = ",\n";
  }
  out << "\n  }\n}\n";
  return changed;
}

}  // namespace perfbench
