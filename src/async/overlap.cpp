#include "async/overlap.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "async/engine.hpp"
#include "obs/json.hpp"
#include "sched/scheduler.hpp"

namespace toast::async {

namespace {

/// Numbers are written with enough digits to round-trip a double.
struct Num {
  double v;
};

std::ostream& operator<<(std::ostream& out, Num n) {
  const auto flags = out.flags();
  const auto prec = out.precision();
  out << std::setprecision(17) << n.v;
  out.flags(flags);
  out.precision(prec);
  return out;
}

/// The short kind names of the task dump and the structural spans.
const char* kind_name(core::StepKind k) {
  switch (k) {
    case core::StepKind::kChargeOverhead:
      return "overhead";
    case core::StepKind::kEnsureFields:
      return "ensure";
    case core::StepKind::kMapField:
      return "map";
    case core::StepKind::kUpload:
      return "upload";
    case core::StepKind::kLaunch:
      return "launch";
    case core::StepKind::kDownload:
      return "download";
    case core::StepKind::kEvict:
      return "evict";
    case core::StepKind::kSyncTransfers:
      return "sync_transfers";
  }
  return "unknown";
}

}  // namespace

void GraphReport::merge(const GraphReport& other) {
  n_tasks += other.n_tasks;
  n_groups += other.n_groups;
  patched += other.patched;
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    by_kind[k] += other.by_kind[k];
  }
  total_busy_s += other.total_busy_s;
  makespan_s += other.makespan_s;
  critical_path_s += other.critical_path_s;
  overlap_fraction =
      total_busy_s > 0.0 ? 1.0 - critical_path_s / total_busy_s : 0.0;
  for (const LaneStat& l : other.lanes) {
    auto it = std::find_if(lanes.begin(), lanes.end(), [&](const LaneStat& m) {
      return m.name == l.name;
    });
    if (it == lanes.end()) {
      lanes.push_back(l);
    } else {
      it->tasks += l.tasks;
      it->busy_s += l.busy_s;
    }
  }
}

GraphReport report(const core::StepLog& log) {
  GraphReport rep;
  rep.n_groups = log.n_groups;
  rep.patched = log.patched;
  rep.makespan_s = log.end - log.begin;
  rep.lanes.resize(core::kNumStepLanes);
  for (int l = 0; l < core::kNumStepLanes; ++l) {
    rep.lanes[static_cast<std::size_t>(l)].name = core::kStepLaneNames[l];
  }
  auto count = [&](const core::StepRecord& r) {
    ++rep.n_tasks;
    ++rep.by_kind[static_cast<std::size_t>(r.kind)];
    rep.total_busy_s += r.seconds;
    LaneStat& lane = rep.lanes[static_cast<std::size_t>(r.lane)];
    ++lane.tasks;
    lane.busy_s += r.seconds;
  };
  // Main steps first, in id order (the order they ran), then patch
  // steps: the summation order of every total below.
  std::vector<double> path;  // by step id; 0 for steps that never ran
  for (const core::StepRecord& r : log.records) {
    if (r.barrier || r.alt) {
      continue;
    }
    count(r);
    double at = 0.0;
    for (int d : r.deps) {
      if (static_cast<std::size_t>(d) < path.size()) {
        at = std::max(at, path[static_cast<std::size_t>(d)]);
      }
    }
    path.resize(std::max(path.size(), static_cast<std::size_t>(r.id) + 1),
                0.0);
    path[static_cast<std::size_t>(r.id)] = at + r.seconds;
    rep.critical_path_s = std::max(rep.critical_path_s, at + r.seconds);
  }
  double alt_busy = 0.0;
  for (const core::StepRecord& r : log.records) {
    if (!r.barrier && r.alt) {
      count(r);
      alt_busy += r.seconds;
    }
  }
  rep.critical_path_s += alt_busy;
  rep.overlap_fraction =
      rep.total_busy_s > 0.0 ? 1.0 - rep.critical_path_s / rep.total_busy_s
                             : 0.0;
  return rep;
}

double place(core::StepLog& log, obs::Tracer* tracer) {
  if (tracer != nullptr) {
    for (int l = 0; l < core::kNumStepLanes; ++l) {
      tracer->set_stream_name(kLaneStreamBase + l,
                              std::string("async:") + core::kStepLaneNames[l]);
    }
  }
  sched::LaneSchedule lanes(log.begin);
  sched::LaneOp barrier;
  for (int l = 0; l < core::kNumStepLanes; ++l) {
    barrier.lanes.push_back(l);
  }
  std::vector<int> op_of;  // step id -> LaneSchedule op; -1: never ran
  for (core::StepRecord& r : log.records) {
    if (r.barrier) {
      lanes.push(barrier);
      continue;
    }
    sched::LaneOp op;
    op.seconds = r.seconds;
    op.lanes = {r.lane};
    if (!r.alt) {
      for (int d : r.deps) {
        if (static_cast<std::size_t>(d) < op_of.size() &&
            op_of[static_cast<std::size_t>(d)] >= 0) {
          op.deps.push_back(op_of[static_cast<std::size_t>(d)]);
        }
      }
    }
    const int at = lanes.push(op);
    if (!r.alt) {
      op_of.resize(std::max(op_of.size(), static_cast<std::size_t>(r.id) + 1),
                   -1);
      op_of[static_cast<std::size_t>(r.id)] = at;
    }
    r.start = lanes.start(at);
    if (tracer != nullptr && r.seconds > 0.0) {
      const obs::SpanId span =
          tracer->record_at(kind_name(r.kind) + (":" + r.name), "task",
                            r.start, r.seconds, {}, nullptr,
                            /*logged=*/false);
      tracer->set_stream(span, kLaneStreamBase + r.lane);
    }
  }
  return lanes.makespan() - log.begin;
}

GraphReport run_overlap(core::Pipeline& pipeline, core::Observation& ob,
                        core::ExecContext& ctx) {
  core::StepLog log;
  pipeline.exec(ob, ctx, &log);
  GraphReport rep = report(log);
  const double placed_s = place(log, &ctx.tracer());
  ctx.clock().advance(placed_s - (log.end - log.begin));
  rep.makespan_s = placed_s;
  return rep;
}

void write_tasks_json(std::ostream& out, const core::StepLog& log,
                      const GraphReport& report) {
  out << "{\"schema\":\"toastcase-tasks-v1\"";
  out << ",\"n_tasks\":" << report.n_tasks
      << ",\"n_groups\":" << report.n_groups
      << ",\"patched\":" << report.patched
      << ",\"total_busy_s\":" << Num{report.total_busy_s}
      << ",\"makespan_s\":" << Num{report.makespan_s}
      << ",\"critical_path_s\":" << Num{report.critical_path_s}
      << ",\"overlap_fraction\":" << Num{report.overlap_fraction};
  out << ",\"by_kind\":{";
  bool first = true;
  for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
    if (report.by_kind[k] == 0) {
      continue;
    }
    out << (first ? "" : ",") << "\""
        << kind_name(static_cast<core::StepKind>(k))
        << "\":" << report.by_kind[k];
    first = false;
  }
  out << "},\"lanes\":[";
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneStat& l = report.lanes[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\""
        << obs::json::escape(l.name) << "\",\"tasks\":" << l.tasks
        << ",\"busy_s\":" << Num{l.busy_s} << "}";
  }
  out << "],\"tasks\":[";
  bool first_task = true;
  for (const bool alt : {false, true}) {
    for (const core::StepRecord& r : log.records) {
      if (r.barrier || r.alt != alt) {
        continue;
      }
      out << (first_task ? "" : ",") << "\n{\"id\":" << r.id
          << ",\"kind\":\"" << kind_name(r.kind) << "\",\"name\":\""
          << obs::json::escape(r.name) << "\",\"lane\":" << r.lane
          << ",\"alt\":" << (alt ? "true" : "false")
          << ",\"start_s\":" << Num{r.start}
          << ",\"seconds\":" << Num{r.seconds} << ",\"deps\":[";
      for (std::size_t d = 0; d < r.deps.size(); ++d) {
        out << (d == 0 ? "" : ",") << r.deps[d];
      }
      out << "]}";
      first_task = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace toast::async
