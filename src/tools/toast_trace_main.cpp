// toast-trace: inspect the JSON files the observability layer writes.
//
//   toast-trace summarize <file>    per-category table, sorted by time
//   toast-trace top <N> <file>      top-N categories by total seconds
//   toast-trace diff <a> <b>        per-category comparison of two files
//   toast-trace lanes <file>        per-stream occupancy and overlap
//   toast-trace faults <file>       fault/recovery events and totals
//   toast-trace comm <file>         per-rank NIC-lane occupancy (comm engine)
//   toast-trace plan <file>         ExecutionPlan dump (toastcase-plan-v1)
//   toast-trace tasks <file>        step-log dump (toastcase-tasks-v1)
//   toast-trace serve <file>        job-service day (toastcase-serve-result-v1)
//
// summarize/top/diff accept either a metrics file ("toastcase-metrics-v1",
// as written by write_metrics_json) or a Chrome trace-event file (as
// written by write_chrome_trace); trace events are aggregated by span
// name.  lanes needs the per-lane timing and therefore only accepts a
// Chrome trace.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace {

using toast::obs::MetricRow;
namespace json = toast::obs::json;

int usage() {
  std::fprintf(stderr,
               "usage: toast-trace summarize <file>\n"
               "       toast-trace top <N> <file>\n"
               "       toast-trace diff <a> <b>\n"
               "       toast-trace lanes <trace-file>\n"
               "       toast-trace faults <file>\n"
               "       toast-trace comm <trace-file>\n"
               "       toast-trace plan <plan-file>\n"
               "       toast-trace tasks <tasks-file>\n"
               "       toast-trace serve <serve-result-file>\n"
               "\n"
               "<file> is a toastcase metrics JSON or a Chrome trace-event\n"
               "JSON produced by the benchmarks' --json / --trace flags;\n"
               "lanes requires a Chrome trace (it reads per-lane timing).\n");
  return 2;
}

/// Aggregate the "X" events of a Chrome trace by span name.
std::map<std::string, MetricRow> rows_from_chrome_trace(
    const json::Value& doc) {
  std::map<std::string, MetricRow> rows;
  for (const auto& ev : doc.at("traceEvents").array) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->string != "X") {
      continue;
    }
    auto& row = rows[ev.at("name").string];
    row.calls += 1;
    row.seconds += ev.number_or("dur", 0.0) * 1e-6;
    if (const json::Value* args = ev.find("args");
        args != nullptr && args->is_object()) {
      row.flops += args->number_or("flops", 0.0);
      row.bytes_read += args->number_or("bytes_read", 0.0);
      row.bytes_written += args->number_or("bytes_written", 0.0);
      row.launches += args->number_or("launches", 0.0);
      row.atomic_ops += args->number_or("atomic_ops", 0.0);
      // Extra counters (bytes_h2d, seconds_d2h, ...) ride along so the
      // transfer-direction summary works on traces too.
      for (const auto& [key, value] : args->object) {
        if (key == "flops" || key == "bytes_read" || key == "bytes_written" ||
            key == "launches" || key == "atomic_ops" || !value.is_number()) {
          continue;
        }
        row.counters[key] += value.number;
      }
    }
  }
  return rows;
}

std::map<std::string, MetricRow> load_rows(const std::string& path) {
  const json::Value doc = json::load_file(path);
  if (!doc.is_object()) {
    throw json::ParseError(path + ": top-level value is not an object");
  }
  if (doc.find("traceEvents") != nullptr) {
    return rows_from_chrome_trace(doc);
  }
  return toast::obs::read_metrics_json(doc, path);
}

std::vector<std::pair<std::string, MetricRow>> by_seconds(
    const std::map<std::string, MetricRow>& rows) {
  std::vector<std::pair<std::string, MetricRow>> sorted(rows.begin(),
                                                        rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.seconds > b.second.seconds;
  });
  return sorted;
}

std::string fmt_bytes(double b) {
  char buf[32];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  } else if (b > 0.0) {
    std::snprintf(buf, sizeof(buf), "%.1f kB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "-");
  }
  return buf;
}

void print_table(const std::map<std::string, MetricRow>& rows,
                 std::size_t limit) {
  double total = 0.0;
  for (const auto& [name, row] : rows) {
    total += row.seconds;
  }
  std::printf("%-36s %7s %12s %7s %12s %12s\n", "category", "calls",
              "seconds", "share", "bytes moved", "gflops");
  std::printf("%.*s\n", 92,
              "--------------------------------------------------------------"
              "------------------------------");
  std::size_t shown = 0;
  for (const auto& [name, row] : by_seconds(rows)) {
    if (shown++ == limit) {
      std::printf("  ... %zu more categories\n", rows.size() - limit);
      break;
    }
    std::printf("%-36s %7ld %11.4fs %6.1f%% %12s %12.3f\n", name.c_str(),
                row.calls, row.seconds,
                total > 0.0 ? 100.0 * row.seconds / total : 0.0,
                fmt_bytes(row.bytes_read + row.bytes_written).c_str(),
                row.flops / 1e9);
  }
  std::printf("%-36s %7s %11.4fs\n", "total", "", total);
}

/// Direction-split transfer traffic summed over every category.
void print_transfer_directions(const std::map<std::string, MetricRow>& rows) {
  double bytes_h2d = 0.0;
  double bytes_d2h = 0.0;
  double seconds_h2d = 0.0;
  double seconds_d2h = 0.0;
  for (const auto& [name, row] : rows) {
    const auto counter = [&row](const char* key) {
      const auto it = row.counters.find(key);
      return it == row.counters.end() ? 0.0 : it->second;
    };
    bytes_h2d += counter("bytes_h2d");
    bytes_d2h += counter("bytes_d2h");
    seconds_h2d += counter("seconds_h2d");
    seconds_d2h += counter("seconds_d2h");
  }
  if (bytes_h2d == 0.0 && bytes_d2h == 0.0) {
    return;
  }
  std::printf("\ntransfers: H2D %s in %.4fs, D2H %s in %.4fs\n",
              fmt_bytes(bytes_h2d).c_str(), seconds_h2d,
              fmt_bytes(bytes_d2h).c_str(), seconds_d2h);
}

int cmd_summarize(const std::string& path, std::size_t limit) {
  const auto rows = load_rows(path);
  std::printf("%s: %zu categories\n\n", path.c_str(), rows.size());
  print_table(rows, limit);
  print_transfer_directions(rows);
  return 0;
}

/// One Chrome-trace lane (tid): its thread_name and the spans read from it.
struct Lane {
  std::string name;
  long spans = 0;
  double bytes = 0.0;  // summed "bytes" args of its spans
  std::vector<std::pair<double, double>> intervals;  // seconds
};

/// Totals of the spans that share a name.
struct SpanTotals {
  long spans = 0;
  double bytes = 0.0;
  double seconds = 0.0;
};

/// The lanes of a Chrome trace, its per-name span totals and the window
/// the spans cover.
struct LaneTrace {
  std::map<long, Lane> lanes;
  std::map<std::string, SpanTotals> names;
  double t_min = 0.0;
  double t_max = 0.0;
  bool any = false;  // at least one span was read
};

/// Reads the Chrome trace at `path`: every tid's thread_name and its "X"
/// spans, only those of `category` when one is given.  Prints an error
/// naming `command` and returns nothing when the file is not a Chrome
/// trace.
std::optional<LaneTrace> read_lanes(const std::string& path,
                                    const char* command,
                                    const char* category = nullptr) {
  const json::Value doc = json::load_file(path);
  if (!doc.is_object() || doc.find("traceEvents") == nullptr) {
    std::fprintf(stderr,
                 "toast-trace: %s is not a Chrome trace-event file "
                 "(%s needs one; pass the --trace output)\n",
                 path.c_str(), command);
    return std::nullopt;
  }
  LaneTrace out;
  for (const auto& ev : doc.at("traceEvents").array) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr) {
      continue;
    }
    const long tid = ev.integer_or("tid", 0);
    if (ph->string == "M") {
      const json::Value* name = ev.find("name");
      const json::Value* args = ev.find("args");
      if (name != nullptr && name->string == "thread_name" &&
          args != nullptr && args->find("name") != nullptr) {
        out.lanes[tid].name = args->at("name").string;
      }
      continue;
    }
    if (ph->string != "X") {
      continue;
    }
    const json::Value* cat = ev.find("cat");
    if (category != nullptr && (cat == nullptr || cat->string != category)) {
      continue;
    }
    const double start = ev.number_or("ts", 0.0) * 1e-6;
    const double dur = ev.number_or("dur", 0.0) * 1e-6;
    const double bytes =
        ev.find("args") != nullptr ? ev.at("args").number_or("bytes", 0.0)
                                   : 0.0;
    auto& lane = out.lanes[tid];
    lane.spans += 1;
    lane.bytes += bytes;
    lane.intervals.emplace_back(start, start + dur);
    auto& totals = out.names[ev.at("name").string];
    totals.spans += 1;
    totals.bytes += bytes;
    totals.seconds += dur;
    out.t_min = out.any ? std::min(out.t_min, start) : start;
    out.t_max = out.any ? std::max(out.t_max, start + dur) : start + dur;
    out.any = true;
  }
  return out;
}

/// Busy time of a set of intervals = length of their union.
double merged_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double busy = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      busy += b - a;
      hi = b;
    } else if (b > hi) {
      busy += b - hi;
      hi = b;
    }
  }
  return busy;
}

/// Per-lane (Chrome tid) occupancy plus the overlap fraction across the
/// stream lanes (tid >= 2): 1 - union/sum of their busy time, i.e. the
/// share of stream work that ran concurrently with another stream.
int cmd_lanes(const std::string& path) {
  const auto trace = read_lanes(path, "lanes");
  if (!trace) {
    return 1;
  }
  if (!trace->any) {
    std::printf("%s: no spans\n", path.c_str());
    return 0;
  }
  const double window = trace->t_max - trace->t_min;
  std::printf("%s: window %.4fs\n\n", path.c_str(), window);
  std::printf("%-4s %-24s %7s %12s %10s\n", "tid", "lane", "spans", "busy",
              "occupancy");
  std::printf("%.*s\n", 61,
              "--------------------------------------------------------------"
              "------------------------------");
  std::vector<std::pair<double, double>> stream_intervals;
  double stream_busy_sum = 0.0;
  int stream_lanes = 0;
  for (const auto& [tid, lane] : trace->lanes) {
    if (lane.spans == 0) {
      continue;  // named but empty lane
    }
    const double busy = merged_length(lane.intervals);
    std::printf("%-4ld %-24s %7ld %11.4fs %9.1f%%\n", tid,
                lane.name.empty() ? "(unnamed)" : lane.name.c_str(),
                lane.spans, busy, window > 0.0 ? 100.0 * busy / window : 0.0);
    if (tid >= 2) {
      stream_intervals.insert(stream_intervals.end(), lane.intervals.begin(),
                              lane.intervals.end());
      stream_busy_sum += busy;
      ++stream_lanes;
    }
  }
  if (stream_lanes == 0) {
    std::printf("\nno stream lanes (tid >= 2); run with more than one "
                "virtual stream to get overlap\n");
    return 0;
  }
  const double stream_union = merged_length(std::move(stream_intervals));
  const double overlap = stream_busy_sum > 0.0
                             ? 1.0 - stream_union / stream_busy_sum
                             : 0.0;
  std::printf("\n%d stream lane%s: %.4fs busy across lanes, %.4fs of "
              "timeline covered\noverlap fraction: %.1f%% of stream work ran "
              "concurrently with another stream\n",
              stream_lanes, stream_lanes == 1 ? "" : "s", stream_busy_sum,
              stream_union, 100.0 * overlap);
  return 0;
}

/// Fault-injection view: the fault_* categories the recovery layer emits
/// (retries, fallbacks, OOM recoveries, checkpoint restores, stragglers,
/// rank restarts) plus the resilience_* categories the policy manager
/// emits (task requeues, degradation-ladder escalations, circuit-breaker
/// transitions, elastic world shrinks), their time cost, and which
/// kernels degraded to CPU.
int cmd_faults(const std::string& path) {
  const auto rows = load_rows(path);
  std::map<std::string, MetricRow> faults;
  for (const auto& [name, row] : rows) {
    if (name.rfind("fault_", 0) == 0 || name.rfind("resilience_", 0) == 0) {
      faults.emplace(name, row);
    }
  }
  if (faults.empty()) {
    std::printf("%s: no fault events (clean run or disarmed fault plan)\n",
                path.c_str());
    return 0;
  }
  std::printf("%s: %zu fault categories\n\n", path.c_str(), faults.size());
  print_table(faults, static_cast<std::size_t>(-1));

  double failed_attempts = 0.0;
  double requeued_tasks = 0.0;
  double breaker_opens = 0.0;
  double breaker_half_opens = 0.0;
  double breaker_closes = 0.0;
  double breaker_fast_fails = 0.0;
  double escalations = 0.0;
  double world_shrinks = 0.0;
  std::set<std::string> degraded;
  for (const auto& [name, row] : faults) {
    const auto counter = [&row](const std::string& key) {
      const auto it = row.counters.find(key);
      return it == row.counters.end() ? 0.0 : it->second;
    };
    if (name.rfind("fault_retry_", 0) == 0) {
      failed_attempts += counter("failures");
    }
    if (name == "fault_task_requeue" || name == "resilience_task_requeue" ||
        name == "destriper_comm_requeue") {
      requeued_tasks += counter("tasks");
    }
    if (name == "resilience_breaker_open") {
      breaker_opens += static_cast<double>(row.calls);
    }
    if (name == "resilience_breaker_half_open") {
      breaker_half_opens += static_cast<double>(row.calls);
    }
    if (name == "resilience_breaker_close") {
      breaker_closes += static_cast<double>(row.calls);
    }
    if (name == "resilience_breaker_fast_fail") {
      breaker_fast_fails += static_cast<double>(row.calls);
    }
    if (name == "resilience_degrade") {
      escalations += static_cast<double>(row.calls);
    }
    if (name == "resilience_world_shrink") {
      world_shrinks += static_cast<double>(row.calls);
    }
    if (name == "fault_fallback") {
      for (const auto& [key, value] : row.counters) {
        if (key.rfind("kernel_", 0) == 0 && value > 0.0) {
          degraded.insert(key.substr(7));
        }
      }
    }
  }
  std::printf("\nfailed attempts retried: %.0f\n", failed_attempts);
  if (requeued_tasks > 0.0) {
    std::printf("async tasks requeued: %.0f\n", requeued_tasks);
  }
  if (breaker_opens + breaker_half_opens + breaker_closes +
          breaker_fast_fails >
      0.0) {
    std::printf(
        "circuit breakers: %.0f opened, %.0f half-opened, %.0f closed, "
        "%.0f fast-failed ops\n",
        breaker_opens, breaker_half_opens, breaker_closes,
        breaker_fast_fails);
  }
  if (escalations > 0.0) {
    std::printf("degradation-ladder escalations: %.0f\n", escalations);
  }
  if (world_shrinks > 0.0) {
    std::printf("elastic world shrinks: %.0f\n", world_shrinks);
  }
  if (!degraded.empty()) {
    std::printf("kernels degraded to CPU:");
    for (const auto& kernel : degraded) {
      std::printf(" %s", kernel.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Comm-engine view: the per-rank NIC lanes the collective engine emits
/// ("comm"-category spans on tid >= 2).  Shows per-lane chunk counts,
/// busy time and occupancy over the collective's window, plus per-
/// collective totals (bytes moved, steps).
int cmd_comm(const std::string& path) {
  const auto trace = read_lanes(path, "comm", "comm");
  if (!trace) {
    return 1;
  }
  if (!trace->any) {
    std::printf("%s: no comm-engine spans (run a job with --comm engine or "
                "bench_comm --trace)\n",
                path.c_str());
    return 0;
  }
  const double window = trace->t_max - trace->t_min;
  std::printf("%s: comm window %.6fs\n\n", path.c_str(), window);
  std::printf("%-4s %-24s %7s %12s %12s %10s\n", "tid", "lane", "steps",
              "busy", "bytes", "occupancy");
  std::printf("%.*s\n", 74,
              "--------------------------------------------------------------"
              "------------------------------");
  for (const auto& [tid, lane] : trace->lanes) {
    if (lane.spans == 0) {
      continue;  // named but carried no comm spans
    }
    const double busy = merged_length(lane.intervals);
    std::printf("%-4ld %-24s %7ld %11.6fs %12s %9.1f%%\n", tid,
                lane.name.empty() ? "(unnamed)" : lane.name.c_str(),
                lane.spans, busy, fmt_bytes(lane.bytes).c_str(),
                window > 0.0 ? 100.0 * busy / window : 0.0);
  }
  std::printf("\n%-36s %7s %12s %12s\n", "collective", "steps", "bytes",
              "lane-sec");
  std::printf("%.*s\n", 70,
              "--------------------------------------------------------------"
              "------------------------------");
  for (const auto& [name, coll] : trace->names) {
    std::printf("%-36s %7ld %12s %11.6fs\n", name.c_str(), coll.spans,
                fmt_bytes(coll.bytes).c_str(), coll.seconds);
  }
  return 0;
}

/// Compiled-pipeline view: the step schedule a bench dumped with
/// --dump-plan (bench_plan) or tests wrote via ExecutionPlan::write_json.
int cmd_plan(const std::string& path) {
  const json::Value doc = json::load_file(path);
  if (!doc.is_object() || doc.find("schema") == nullptr ||
      doc.at("schema").string != "toastcase-plan-v1") {
    std::fprintf(stderr,
                 "toast-trace: %s is not a toastcase-plan-v1 file "
                 "(pass bench_plan's --dump-plan output)\n",
                 path.c_str());
    return 1;
  }
  const auto& ops = doc.at("ops").array;
  const auto& steps = doc.at("steps").array;
  const auto& alt_steps = doc.at("alt_steps").array;
  const json::Value& opt = doc.at("options");
  const auto flag = [&opt](const char* key) {
    const json::Value* v = opt.find(key);
    return v != nullptr && v->boolean;
  };
  std::printf("%s: %zu operators, %zu steps (+%zu fallback)\n",
              path.c_str(), ops.size(), steps.size(), alt_steps.size());
  std::printf("options: staging=%s prefetch=%s evict=%s\n\n",
              flag("naive_staging") ? "naive" : "pipelined",
              flag("prefetch") ? "on" : "off", flag("evict") ? "on" : "off");

  // Per-operator step histogram.
  struct OpSteps {
    long maps = 0;
    long uploads = 0;
    long prefetched = 0;
    long downloads = 0;
    long evicts = 0;
  };
  std::vector<OpSteps> per_op(ops.size());
  for (const auto& s : steps) {
    const long op = s.integer_or("op", -1);
    if (op < 0 || op >= static_cast<long>(per_op.size())) {
      continue;
    }
    auto& row = per_op[static_cast<std::size_t>(op)];
    const std::string& kind = s.at("kind").string;
    if (kind == "map_field") {
      row.maps += 1;
    } else if (kind == "upload") {
      row.uploads += 1;
      if (const json::Value* a = s.find("async");
          a != nullptr && a->boolean) {
        row.prefetched += 1;
      }
    } else if (kind == "download") {
      row.downloads += 1;
    } else if (kind == "evict") {
      row.evicts += 1;
    }
  }
  std::printf("%-32s %-10s %6s %5s %7s %9s %5s %6s\n", "operator", "backend",
              "accel", "maps", "uploads", "prefetch", "down", "evict");
  std::printf("%.*s\n", 88,
              "--------------------------------------------------------------"
              "------------------------------");
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const auto& op = ops[k];
    const auto& row = per_op[k];
    std::printf("%-32s %-10s %6s %5ld %7ld %9ld %5ld %6ld\n",
                op.at("name").string.c_str(), op.at("backend").string.c_str(),
                op.at("on_accel").boolean ? "yes" : "-", row.maps,
                row.uploads, row.prefetched, row.downloads, row.evicts);
  }

  const json::Value& stats = doc.at("stats");
  std::printf("\nstatic dataflow: %ld transfers planned vs %ld naive "
              "(%ld avoided), %ld liveness evictions, %ld prefetch uploads\n",
              stats.integer_or("planned_transfers", 0),
              stats.integer_or("naive_transfers", 0),
              stats.integer_or("transfers_avoided", 0),
              stats.integer_or("planned_evictions", 0),
              stats.integer_or("prefetch_uploads", 0));
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const auto a = load_rows(path_a);
  const auto b = load_rows(path_b);
  std::set<std::string> names;
  for (const auto& [name, row] : a) {
    names.insert(name);
  }
  for (const auto& [name, row] : b) {
    names.insert(name);
  }

  struct DiffRow {
    std::string name;
    double a_s = 0.0;
    double b_s = 0.0;
  };
  std::vector<DiffRow> diffs;
  for (const auto& name : names) {
    DiffRow d{name, 0.0, 0.0};
    if (const auto it = a.find(name); it != a.end()) {
      d.a_s = it->second.seconds;
    }
    if (const auto it = b.find(name); it != b.end()) {
      d.b_s = it->second.seconds;
    }
    diffs.push_back(d);
  }
  std::sort(diffs.begin(), diffs.end(), [](const auto& x, const auto& y) {
    return std::abs(x.b_s - x.a_s) > std::abs(y.b_s - y.a_s);
  });

  std::printf("a = %s\nb = %s\n\n", path_a.c_str(), path_b.c_str());
  std::printf("%-36s %12s %12s %12s %9s\n", "category", "a", "b", "delta",
              "b/a");
  std::printf("%.*s\n", 85,
              "--------------------------------------------------------------"
              "------------------------------");
  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto& d : diffs) {
    total_a += d.a_s;
    total_b += d.b_s;
    char ratio[32];
    if (d.a_s > 0.0 && d.b_s > 0.0) {
      std::snprintf(ratio, sizeof(ratio), "%.2fx", d.b_s / d.a_s);
    } else {
      std::snprintf(ratio, sizeof(ratio), "%s", d.a_s > 0.0 ? "gone" : "new");
    }
    std::printf("%-36s %11.4fs %11.4fs %+11.4fs %9s\n", d.name.c_str(), d.a_s,
                d.b_s, d.b_s - d.a_s, ratio);
  }
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2fx",
                total_a > 0.0 ? total_b / total_a : 0.0);
  std::printf("%-36s %11.4fs %11.4fs %+11.4fs %9s\n", "total", total_a,
              total_b, total_b - total_a, ratio);
  return 0;
}

int cmd_tasks(const std::string& path) {
  const json::Value doc = json::load_file(path);
  if (!doc.is_object() || doc.find("schema") == nullptr ||
      doc.at("schema").string != "toastcase-tasks-v1") {
    std::fprintf(stderr,
                 "toast-trace: %s is not a toastcase-tasks-v1 file "
                 "(pass bench_async's --dump-tasks output)\n",
                 path.c_str());
    return 1;
  }
  const double busy = doc.number_or("total_busy_s", 0.0);
  const double critical = doc.number_or("critical_path_s", 0.0);
  const double makespan = doc.number_or("makespan_s", 0.0);
  const double overlap = doc.number_or("overlap_fraction", 0.0);
  std::printf("%s: %.0f tasks in %.0f groups (%.0f patched)\n", path.c_str(),
              doc.number_or("n_tasks", 0.0), doc.number_or("n_groups", 0.0),
              doc.number_or("patched", 0.0));
  std::printf("staged replay (busy) %10.3f ms\n", busy * 1e3);
  std::printf("critical path        %10.3f ms\n", critical * 1e3);
  std::printf("makespan             %10.3f ms\n", makespan * 1e3);
  std::printf("overlap fraction     %10.1f %%  (potential speedup %.2fx "
              "vs staged replay)\n",
              overlap * 100.0, critical > 0.0 ? busy / critical : 1.0);

  std::printf("\n%-16s %8s\n", "task kind", "count");
  std::printf("-------------------------\n");
  if (const json::Value* by_kind = doc.find("by_kind");
      by_kind != nullptr && by_kind->is_object()) {
    for (const auto& [kind, n] : by_kind->object) {
      std::printf("%-16s %8.0f\n", kind.c_str(), n.number);
    }
  }

  std::printf("\n%-12s %8s %12s %10s\n", "lane", "tasks", "busy", "occup");
  std::printf("---------------------------------------------\n");
  if (const json::Value* lanes = doc.find("lanes");
      lanes != nullptr && lanes->is_array()) {
    for (const auto& lane : lanes->array) {
      const double lane_busy = lane.number_or("busy_s", 0.0);
      std::printf("%-12s %8.0f %10.3fms %9.1f%%\n",
                  lane.at("name").string.c_str(),
                  lane.number_or("tasks", 0.0), lane_busy * 1e3,
                  makespan > 0.0 ? 100.0 * lane_busy / makespan : 0.0);
    }
  }
  return 0;
}

/// Multi-tenant service view: the per-tenant accounting and per-job
/// timeline of a simulated service day (bench_serve's --result output).
int cmd_serve(const std::string& path) {
  const json::Value doc = json::load_file(path);
  if (!doc.is_object() || doc.find("schema") == nullptr ||
      doc.at("schema").string != "toastcase-serve-result-v1") {
    std::fprintf(stderr,
                 "toast-trace: %s is not a toastcase-serve-result-v1 file "
                 "(pass bench_serve's --result output)\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: %s policy, %.0f submitted / %.0f admitted / "
              "%.0f rejected / %.0f completed\n",
              path.c_str(), doc.at("policy").string.c_str(),
              doc.number_or("submitted", 0.0), doc.number_or("admitted", 0.0),
              doc.number_or("rejected", 0.0),
              doc.number_or("completed", 0.0));
  std::printf("makespan %.4fs, node occupancy %.1f%%, work-conserving %s, "
              "library %.0f hit%s / %.0f miss%s\n",
              doc.number_or("makespan_s", 0.0),
              100.0 * doc.number_or("utilization", 0.0),
              doc.at("work_conserving").boolean ? "yes" : "NO",
              doc.number_or("library_hits", 0.0),
              doc.number_or("library_hits", 0.0) == 1.0 ? "" : "s",
              doc.number_or("library_misses", 0.0),
              doc.number_or("library_misses", 0.0) == 1.0 ? "" : "es");
  std::printf("queue wait p50 %.4fs, p95 %.4fs, p99 %.4fs\n",
              doc.number_or("queue_wait_p50_s", 0.0),
              doc.number_or("queue_wait_p95_s", 0.0),
              doc.number_or("queue_wait_p99_s", 0.0));

  std::printf("\n%-12s %6s %5s %5s %5s %5s %11s %10s %10s\n", "tenant",
              "share", "sub", "adm", "rej", "done", "node-sec", "max wait",
              "mean wait");
  std::printf("%.*s\n", 77,
              "--------------------------------------------------------------"
              "------------------------------");
  for (const auto& t : doc.at("tenants").array) {
    const double completed = t.number_or("completed", 0.0);
    const double sum_wait = t.number_or("sum_wait_s", 0.0);
    std::printf("%-12s %6.2f %5.0f %5.0f %5.0f %5.0f %10.3fs %9.4fs "
                "%9.4fs\n",
                t.at("name").string.c_str(), t.number_or("share", 0.0),
                t.number_or("submitted", 0.0), t.number_or("admitted", 0.0),
                t.number_or("rejected", 0.0), completed,
                t.number_or("node_seconds", 0.0),
                t.number_or("max_wait_s", 0.0),
                completed > 0.0 ? sum_wait / completed : 0.0);
  }

  std::printf("\n%-12s %-10s %-8s %-12s %9s %9s %9s %9s  %s\n", "job",
              "tenant", "workload", "backend", "submit", "start", "finish",
              "wait", "status");
  std::printf("%.*s\n", 98,
              "--------------------------------------------------------------"
              "--------------------------------------");
  for (const auto& j : doc.at("jobs").array) {
    char status[96];
    if (!j.at("admitted").boolean) {
      std::snprintf(status, sizeof(status), "rejected: %s",
                    j.at("reject_reason").string.c_str());
    } else if (!j.at("completed").boolean) {
      std::snprintf(status, sizeof(status), "incomplete");
    } else {
      const auto& nodes = j.at("nodes").array;
      std::string node_list;
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        node_list += n > 0 ? "," : "";
        node_list += std::to_string(nodes[n].as_integer("'nodes'"));
      }
      std::snprintf(status, sizeof(status), "done on node%s %s%s",
                    nodes.size() == 1 ? "" : "s", node_list.c_str(),
                    j.at("library_hit").boolean ? " (library hit)" : "");
    }
    std::printf("%-12s %-10s %-8s %-12s %8.3fs %8.3fs %8.3fs %8.4fs  %s\n",
                j.at("name").string.c_str(), j.at("tenant").string.c_str(),
                j.at("workload").string.c_str(),
                j.at("backend").string.c_str(), j.number_or("submit_s", 0.0),
                j.number_or("start_s", 0.0), j.number_or("finish_s", 0.0),
                j.number_or("queue_wait_s", 0.0), status);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "summarize" && argc == 3) {
      return cmd_summarize(argv[2], static_cast<std::size_t>(-1));
    }
    if (cmd == "top" && argc == 4) {
      const long n = std::strtol(argv[2], nullptr, 10);
      if (n <= 0) {
        std::fprintf(stderr, "toast-trace: top expects a positive N\n");
        return 2;
      }
      return cmd_summarize(argv[3], static_cast<std::size_t>(n));
    }
    if (cmd == "diff" && argc == 4) {
      return cmd_diff(argv[2], argv[3]);
    }
    if (cmd == "lanes" && argc == 3) {
      return cmd_lanes(argv[2]);
    }
    if (cmd == "faults" && argc == 3) {
      return cmd_faults(argv[2]);
    }
    if (cmd == "comm" && argc == 3) {
      return cmd_comm(argv[2]);
    }
    if (cmd == "plan" && argc == 3) {
      return cmd_plan(argv[2]);
    }
    if (cmd == "tasks" && argc == 3) {
      return cmd_tasks(argv[2]);
    }
    if (cmd == "serve" && argc == 3) {
      return cmd_serve(argv[2]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "toast-trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
