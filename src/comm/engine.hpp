#pragma once

// Step-scheduled collective-communication engine (docs/MODEL.md §9).
//
// Collectives are decomposed into chunked point-to-point *steps* — a step
// moves one contiguous chunk from a source rank to a destination rank and
// optionally reduces (sum) into the destination's buffer.  The step DAG
// is scheduled on per-rank virtual NIC engines through
// sched::schedule_lanes: a step holds the sender's TX lane and the
// receiver's RX lane for its wire time, ranks sharing a node's NICs
// contend for the same lanes, and intra-node steps bypass the NICs on a
// faster shared-memory link.  Payload execution is functional: replaying
// the steps in construction order actually moves and reduces the data,
// generalizing mpisim::LocalComm from "sum everything" to the exact chunk
// choreography of each algorithm.
//
// Equivalence guarantee (the test oracle, mirroring the sched-vs-seed
// discipline of earlier layers): on a
// Topology::uniform() layout the ring-allreduce, binomial-broadcast and
// linear-gather schedules collapse to left-associative folds of identical
// per-round steps, which is exactly how mpisim::CommModel now computes
// its closed forms — bit for bit, not within tolerance.
//
// Fault hooks: with an armed injector, each step draws a "link"
// degradation factor (multiplicative slowdown of the wire time) and a
// "chunk" loss probe (retry penalty placed ahead of the step on its
// lanes; an exhausted retry budget throws PersistentFaultError).  A
// disarmed injector leaves every schedule bit-for-bit unchanged.

#include <cstddef>
#include <string>
#include <vector>

#include "comm/topology.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace toast::comm {

/// The collective decomposition algorithm is a schedule-space axis; the
/// canonical enum lives in the unified config layer (kRing, kRecursive,
/// kTree) and comm re-exports it under its historical name.
using Algorithm = config::CommAlgorithm;
using config::to_string;

/// One point-to-point chunk transfer.  `bytes` is the modelled wire
/// volume; the element span [*_offset, *_offset + count) is the payload
/// the functional executor moves (count == 0 on cost-only DAGs).
struct Step {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  std::size_t src_offset = 0;
  std::size_t dst_offset = 0;
  std::size_t count = 0;
  /// Destination accumulates (+=) instead of overwriting.
  bool reduce = false;
  int round = 0;
  std::vector<int> deps;  ///< indices of earlier steps in the DAG
};

struct StepDag {
  const char* collective = "";  ///< "allreduce" | "bcast" | ...
  Algorithm algorithm = Algorithm::kRing;
  int ranks = 1;
  std::vector<Step> steps;
};

// --- step-DAG builders (pure functions of the parameters) ------------------

/// Ring allreduce: n-1 reduce-scatter rounds + n-1 all-gather rounds,
/// every rank forwarding a 1/n chunk to its right neighbour per round.
StepDag ring_allreduce(int ranks, double bytes, std::size_t count = 0);
/// Reduce-scatter + all-gather by recursive halving/doubling (pairwise
/// exchanges at distance n/2, n/4, ...).  Requires a power-of-two rank
/// count; anything else falls back to the ring decomposition.
StepDag rs_ag_allreduce(int ranks, double bytes, std::size_t count = 0);
/// Binomial-tree reduce to rank 0 followed by binomial-tree broadcast.
StepDag tree_allreduce(int ranks, double bytes, std::size_t count = 0);
/// Binomial-tree broadcast from rank 0: ceil(log2 n) doubling rounds.
StepDag tree_bcast(int ranks, double bytes, std::size_t count = 0);
/// Binomial-tree reduce (sum) to rank 0.
StepDag tree_reduce(int ranks, double bytes, std::size_t count = 0);
/// Linear gather to rank 0: ranks 1..n-1 send their block to the root,
/// serializing on the root's RX lane.  `count` is elements *per rank*;
/// block r lands at offset r*count of the root's buffer.
StepDag linear_gather(int ranks, double bytes_per_rank,
                      std::size_t count = 0);

/// Allreduce DAG for the chosen algorithm.
StepDag allreduce_dag(Algorithm alg, int ranks, double bytes,
                      std::size_t count = 0);

/// Re-chunked copy of a DAG: every step whose wire volume exceeds
/// `max_chunk_bytes` is cut into ceil(bytes / max_chunk_bytes) sequential
/// sub-steps (even byte split, element spans via the same near-equal
/// chunk bounds the builders use).  Sub-step 0 inherits the original
/// dependencies (remapped to the *last* sub-step of each dependency), so
/// the split schedule is conservative: payload replay order and reduction
/// results are unchanged, only the lane granularity differs.
/// max_chunk_bytes <= 0 returns the DAG untouched.
StepDag split_chunks(const StepDag& dag, double max_chunk_bytes);

// --- scheduling and execution ----------------------------------------------

struct RunOptions {
  /// Schedule origin on the virtual timeline (the caller's clock.now()).
  double epoch = 0.0;
  /// When set, every NIC step emits an unlogged span on its sender's NIC
  /// lane (Tracer stream id = lane_base + nic index) so Chrome traces
  /// render per-rank NIC lanes; the caller picks lane_base clear of its
  /// compute/copy stream ids.
  obs::Tracer* tracer = nullptr;
  int lane_base = 0;
  /// Also emit spans for intra-node (non-NIC) steps, on lanes after the
  /// NIC block.
  bool trace_intra = false;
  /// Fault-site prefix for the link/chunk hooks.
  std::string site = "comm";
  /// Armed injector: link degradation + lost-chunk retries (drawn from
  /// the per-(kind, site) counter RNG streams).  Null or disarmed: the
  /// schedule is bit-for-bit the fault-free one.
  fault::FaultInjector* faults = nullptr;
  /// Schedule-space chunk-size knob: the collective cost entry points
  /// (`*_seconds`) run their DAG through split_chunks with this bound
  /// before scheduling.  0 (the default) keeps each algorithm's natural
  /// chunk size — bit-for-bit the pre-knob schedule.
  double max_chunk_bytes = 0.0;
};

struct ScheduleResult {
  std::vector<double> start;  ///< absolute (>= epoch), one per step
  std::vector<double> end;
  double makespan = 0.0;  ///< relative to epoch
};

class Engine {
 public:
  explicit Engine(Topology topo) : topo_(topo) {}

  const Topology& topology() const { return topo_; }

  /// Place a step DAG on the topology's NIC/memory lanes.  Cost only: no
  /// payload moves.  Emits lane spans and draws fault hooks per RunOptions.
  /// Implemented as a StepScheduler loop, so one-shot and step-at-a-time
  /// scheduling are bit-for-bit the same placement.
  ScheduleResult schedule(const StepDag& dag, const RunOptions& opt = {}) const;

  // --- collective costs (makespan seconds, relative to opt.epoch) --------

  double allreduce_seconds(double bytes, Algorithm alg = Algorithm::kRing,
                           const RunOptions& opt = {}) const;
  double bcast_seconds(double bytes, const RunOptions& opt = {}) const;
  double reduce_seconds(double bytes, const RunOptions& opt = {}) const;
  double gather_seconds(double bytes_per_rank,
                        const RunOptions& opt = {}) const;

  // --- functional payload execution ---------------------------------------

  /// Replay a DAG's payload moves in construction order over per-rank
  /// buffers (bufs[r] is rank r's data).  Throws std::invalid_argument
  /// when a step's span does not fit its buffers.
  static void execute_payload(const StepDag& dag,
                              std::vector<std::vector<double>>& bufs);

  /// Functional allreduce: every rank contributes one equal-length buffer;
  /// all ranks end with the identical reduced vector (the reduction order
  /// is the algorithm's — deterministic, but not LocalComm's rank order).
  /// Also schedules the DAG; `sched_out` receives the placement.
  std::vector<std::vector<double>> allreduce(
      const std::vector<std::vector<double>>& bufs,
      Algorithm alg = Algorithm::kRing, ScheduleResult* sched_out = nullptr,
      const RunOptions& opt = {}) const;

  /// Functional broadcast of rank 0's buffer to every rank.
  std::vector<std::vector<double>> bcast(
      const std::vector<std::vector<double>>& bufs,
      ScheduleResult* sched_out = nullptr, const RunOptions& opt = {}) const;

  /// Functional gather: rank r's block lands at offset r*m of the result
  /// (m = per-rank length).
  std::vector<double> gather(const std::vector<std::vector<double>>& bufs,
                             ScheduleResult* sched_out = nullptr,
                             const RunOptions& opt = {}) const;

 private:
  std::size_t check_world(const std::vector<std::vector<double>>& bufs) const;

  Topology topo_;
};

/// Step-at-a-time scheduling of one DAG: place_next() places exactly one
/// step (drawing that step's link/chunk fault hooks as it goes) with the
/// same arithmetic as Engine::schedule — which is itself a place_next()
/// loop, so incremental and one-shot execution are bit-for-bit identical.
/// The async task runtime drives this cursor to treat individual
/// collective steps as tasks.  finish() emits the trace spans and fault
/// notes (and throws PersistentFaultError when a chunk retry budget was
/// exhausted), then returns the placement; call it once, after every step
/// is placed.  The engine, DAG and option pointers must outlive the
/// scheduler.
class StepScheduler {
 public:
  StepScheduler(const Engine& engine, const StepDag& dag,
                const RunOptions& opt);

  std::size_t placed() const { return lanes_.size(); }
  bool done() const { return placed() >= dag_.steps.size(); }
  /// Place the next step; returns its absolute end time on the timeline.
  double place_next();
  ScheduleResult finish();

 private:
  struct FaultNote {
    std::size_t step = 0;
    std::string site;
    double extra = 0.0;  // link-degrade stretch of the wire time
    fault::ProbeResult probe;
  };

  const Engine& engine_;
  const StepDag& dag_;
  RunOptions opt_;
  bool faulty_ = false;
  sched::LaneSchedule lanes_;
  std::vector<double> seconds_;  ///< placed wire time, per step
  std::vector<FaultNote> notes_;
};

}  // namespace toast::comm
