#pragma once

// Host-clock benchmark driver for toastcase.
//
// Each workload is a fixed list of ops run as a closed loop from one
// process and one thread: an op starts only after the previous one has
// finished.  An op is one call of a layer's public entry point
// (mpisim::run_benchmark_job, tune::tune_job or solver::Destriper::solve);
// its host time is measured with steady_clock, its virtual (modelled)
// result is reduced to a digest that is checked against a golden at the
// default seed and against seed-independent invariants at any seed.
//
// A traced run wraps every public call in a host-time span (name, start,
// end, parent, op id), keeps the spans in memory and derives the
// per-layer metrics from them at exit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/timelog.hpp"
#include "core/observation.hpp"
#include "mpisim/job.hpp"
#include "solver/destriper.hpp"

namespace perfbench {

/// The seed the goldens are recorded at.
inline constexpr std::uint64_t kDefaultSeed = 2023;

/// Seed of the index-th job (or observation) of a workload: distinct per
/// index, a pure function of the workload seed.
std::uint64_t op_seed(std::uint64_t workload_seed, std::size_t index);

enum class OpKind { kJob, kTune, kSolve };

struct Op {
  /// Stable name, the golden key ("fig4.p8.jax", "tune.large.cpu", ...).
  std::string name;
  OpKind kind = OpKind::kJob;
  /// kJob: the job; kTune: the tuner's base job.
  toast::mpisim::JobConfig job;
  /// kTune: TuneOptions::max_evaluations (0 = uncapped).
  int max_evaluations = 0;
  /// kSolve: scheduling mode and the prepared observation it solves.
  toast::solver::AsyncComm mode = toast::solver::AsyncComm::kStaged;
  std::size_t observation = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  std::vector<Op> ops;
  /// kSolve inputs: simulated, scanned observations with injected offsets.
  std::vector<toast::core::Observation> observations;
  toast::solver::DestriperConfig destriper;
  /// Golden digest per op name (checked only at the default seed).
  std::map<std::string, std::string> goldens;
};

/// The workload names, in the order the README documents them.
const std::vector<std::string>& workload_names();

/// Build a workload: load the schedule artifact, the schedule library and
/// the goldens from `root` (the repository checkout), derive every job
/// seed from `seed`, and prepare the solver's observations.  Throws
/// std::runtime_error on an unknown workload or unreadable input.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root);

/// Path of the golden file under `root`.
std::string goldens_path(const std::string& root);

// --- digests ----------------------------------------------------------------

/// FNV-1a 64 of `text` as 16 hex digits.
std::string fnv1a_hex(const std::string& text);

/// Canonical text of a TimeLog: every category with its call count and
/// its seconds as an exact hex float.
std::string timelog_text(const toast::accel::TimeLog& log);

/// Virtual digest of a job: runtime, host/device/transfer/comm seconds,
/// the rank TimeLog and the plan counters.
std::string job_digest(const toast::mpisim::JobResult& r);

// --- metrics ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric a --trace 0 run prints, in print order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric a --trace 1 run prints, in print order.
const std::vector<MetricSpec>& per_layer_metrics();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Repository checkout (schedules and goldens are read from here).
  std::string root = ".";
  /// Traced runs write their host spans here as a Chrome trace (empty:
  /// keep them in memory only).
  std::string trace_out;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> metrics;
  /// Figures printed for the log only: the raw host seconds behind the
  /// reference-scaled metrics, and the reference loop's median seconds.
  std::map<std::string, double> log;
  /// One line per failed check, for the log.
  std::vector<std::string> failures;
};

/// One benchmark run (setup, closed loop for opt.seconds, checks).
RunResult run(const RunOptions& opt);

/// Recompute every op's digest of `workload` at the default seed (one
/// untraced pass) and rewrite its entries in the golden file, printing
/// the ops whose digest changed.  Returns the number of changed ops.
int regenerate_goldens(const std::string& workload, const std::string& root);

}  // namespace perfbench
