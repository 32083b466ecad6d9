#pragma once

// Exporters for the span tracer: Chrome trace-event JSON (load in
// chrome://tracing or Perfetto) and a flat machine-readable metrics
// JSON/CSV that CI threshold-checks (scripts/check_bench.py) and the
// toast-trace CLI consume.  See docs/OBSERVABILITY.md for the formats.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace toast::obs {

/// Aggregated counters for one category name (one row of the metrics
/// export; `calls` and `seconds` match the TimeLog view exactly).
struct MetricRow {
  long calls = 0;
  double seconds = 0.0;
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  double launches = 0.0;
  double atomic_ops = 0.0;
  std::map<std::string, double> counters;  // extra counters, summed
};

/// Aggregate logged spans by name.
std::map<std::string, MetricRow> aggregate_metrics(
    const std::vector<Span>& spans);

// --- Chrome trace-event JSON ---------------------------------------------

/// Complete ("ph":"X") events, microsecond timestamps on the virtual
/// timeline; framework spans on tid 0, device-emitted spans on tid 1,
/// stream-scheduled spans on tid 2+stream (one overlap lane per stream).
/// `stream_names` (Tracer::stream_names()) labels lanes; unnamed
/// streams render as "stream N".
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out,
                        const std::string& process_name = "toastcase",
                        const std::map<int, std::string>& stream_names = {});
void write_chrome_trace_file(const std::vector<Span>& spans,
                             const std::string& path,
                             const std::string& process_name = "toastcase",
                             const std::map<int, std::string>& stream_names =
                                 {});

// --- flat metrics ----------------------------------------------------------

/// {"schema":"toastcase-metrics-v1","meta":{...},"categories":{...},
///  "total_seconds":...}
void write_metrics_json(const std::vector<Span>& spans, std::ostream& out,
                        const std::map<std::string, std::string>& meta = {});
void write_metrics_json_file(
    const std::vector<Span>& spans, const std::string& path,
    const std::map<std::string, std::string>& meta = {});

/// category,calls,seconds,flops,bytes_read,bytes_written,launches,
/// bytes_h2d,bytes_d2h,seconds_h2d,seconds_d2h (direction-split transfer
/// traffic comes from the producer-attached counters of the same names).
void write_metrics_csv(const std::vector<Span>& spans, std::ostream& out);

/// Parse a metrics JSON document (as written by write_metrics_json) back
/// into rows.  Strict: `calls` must be an integer in [0, 2^53], the other
/// fixed fields finite numbers >= 0 and every other category key (an
/// open counter) a number; a violation throws json::ParseError naming
/// `where`, the category and the key.
std::map<std::string, MetricRow> read_metrics_json(
    const json::Value& doc, const std::string& where = "metrics");

}  // namespace toast::obs
