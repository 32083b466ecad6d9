#include "obs/export.hpp"

#include <algorithm>
#include <cfloat>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace toast::obs {

namespace {

void open_or_throw(std::ofstream& out, const std::string& path) {
  out.open(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
}

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

void write_counters(std::ostream& out, const MetricRow& row) {
  out << "\"calls\":" << row.calls << ",\"seconds\":" << Num{row.seconds}
      << ",\"flops\":" << Num{row.flops}
      << ",\"bytes_read\":" << Num{row.bytes_read}
      << ",\"bytes_written\":" << Num{row.bytes_written}
      << ",\"launches\":" << Num{row.launches}
      << ",\"atomic_ops\":" << Num{row.atomic_ops};
  for (const auto& [key, value] : row.counters) {
    out << ",\"" << json::escape(key) << "\":" << Num{value};
  }
}

}  // namespace

std::map<std::string, MetricRow> aggregate_metrics(
    const std::vector<Span>& spans) {
  std::map<std::string, MetricRow> rows;
  for (const auto& s : spans) {
    if (!s.logged) {
      continue;
    }
    auto& row = rows[s.name];
    row.calls += 1;
    row.seconds += s.duration;
    if (s.has_work) {
      row.flops += s.work.flops;
      row.bytes_read += s.work.bytes_read;
      row.bytes_written += s.work.bytes_written;
      row.launches += s.work.launches;
      row.atomic_ops += s.work.atomic_ops;
    }
    for (const auto& [key, value] : s.counters) {
      row.counters[key] += value;
    }
  }
  return rows;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out,
                        const std::string& process_name,
                        const std::map<int, std::string>& stream_names) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{"
         "\"name\":\""
      << json::escape(process_name) << "\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"host (virtual)\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"device (virtual)\"}}";
  // One overlap lane per virtual stream that actually appears.
  int max_stream = -1;
  for (const auto& s : spans) {
    max_stream = std::max(max_stream, s.stream);
  }
  for (int st = 0; st <= max_stream; ++st) {
    const auto named = stream_names.find(st);
    out << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << (2 + st)
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (named != stream_names.end()) {
      out << json::escape(named->second);
    } else {
      out << "stream " << st;
    }
    out << "\"}}";
  }
  for (const auto& s : spans) {
    const int tid = s.stream >= 0 ? 2 + s.stream : (s.device ? 1 : 0);
    out << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
        << ",\"name\":\"" << json::escape(s.name) << "\",\"cat\":\""
        << json::escape(s.category.empty() ? "span" : s.category)
        << "\",\"ts\":" << Num{s.start * 1e6}
        << ",\"dur\":" << Num{s.duration * 1e6} << ",\"args\":{";
    bool first = true;
    auto arg = [&](const char* key, double value) {
      if (value == 0.0) {
        return;
      }
      out << (first ? "" : ",") << "\"" << key << "\":" << Num{value};
      first = false;
    };
    if (!s.backend.empty()) {
      out << "\"backend\":\"" << json::escape(s.backend) << "\"";
      first = false;
    }
    if (s.has_work) {
      arg("flops", s.work.flops);
      arg("bytes_read", s.work.bytes_read);
      arg("bytes_written", s.work.bytes_written);
      arg("launches", s.work.launches);
      arg("atomic_ops", s.work.atomic_ops);
    }
    for (const auto& [key, value] : s.counters) {
      out << (first ? "" : ",") << "\"" << json::escape(key)
          << "\":" << Num{value};
      first = false;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

void write_chrome_trace_file(const std::vector<Span>& spans,
                             const std::string& path,
                             const std::string& process_name,
                             const std::map<int, std::string>& stream_names) {
  std::ofstream out;
  open_or_throw(out, path);
  write_chrome_trace(spans, out, process_name, stream_names);
}

void write_metrics_json(const std::vector<Span>& spans, std::ostream& out,
                        const std::map<std::string, std::string>& meta) {
  const auto rows = aggregate_metrics(spans);
  out << "{\"schema\":\"toastcase-metrics-v1\"";
  if (!meta.empty()) {
    out << ",\"meta\":{";
    bool first = true;
    for (const auto& [key, value] : meta) {
      out << (first ? "" : ",") << "\"" << json::escape(key) << "\":\""
          << json::escape(value) << "\"";
      first = false;
    }
    out << "}";
  }
  out << ",\"categories\":{";
  bool first = true;
  double total = 0.0;
  for (const auto& [name, row] : rows) {
    out << (first ? "" : ",") << "\n\"" << json::escape(name) << "\":{";
    write_counters(out, row);
    out << "}";
    first = false;
    total += row.seconds;
  }
  out << "\n},\"total_seconds\":" << Num{total} << "}\n";
}

void write_metrics_json_file(const std::vector<Span>& spans,
                             const std::string& path,
                             const std::map<std::string, std::string>& meta) {
  std::ofstream out;
  open_or_throw(out, path);
  write_metrics_json(spans, out, meta);
}

void write_metrics_csv(const std::vector<Span>& spans, std::ostream& out) {
  out << "category,calls,seconds,flops,bytes_read,bytes_written,launches,"
         "bytes_h2d,bytes_d2h,seconds_h2d,seconds_d2h\n";
  auto counter = [](const MetricRow& row, const char* key) {
    const auto it = row.counters.find(key);
    return it == row.counters.end() ? 0.0 : it->second;
  };
  for (const auto& [name, row] : aggregate_metrics(spans)) {
    out << name << "," << row.calls << "," << std::setprecision(17)
        << row.seconds << "," << row.flops << "," << row.bytes_read << ","
        << row.bytes_written << "," << row.launches << ","
        << counter(row, "bytes_h2d") << "," << counter(row, "bytes_d2h")
        << "," << counter(row, "seconds_h2d") << ","
        << counter(row, "seconds_d2h") << "\n";
  }
}

std::map<std::string, MetricRow> read_metrics_json(const json::Value& doc,
                                                   const std::string& where) {
  // The fixed per-category fields besides `calls`; every other key of a
  // category is an open counter.
  static constexpr std::pair<const char*, double MetricRow::*> kFixed[] = {
      {"seconds", &MetricRow::seconds},
      {"flops", &MetricRow::flops},
      {"bytes_read", &MetricRow::bytes_read},
      {"bytes_written", &MetricRow::bytes_written},
      {"launches", &MetricRow::launches},
      {"atomic_ops", &MetricRow::atomic_ops},
  };
  const json::Reader r(doc, where, "toastcase-metrics-v1",
                       {"meta", "categories", "total_seconds"});
  r.number("total_seconds", 0.0, 0.0, DBL_MAX);
  if (!r.has("categories")) {
    r.fail("categories", "is required");
  }
  std::map<std::string, MetricRow> rows;
  r.named_objects("categories", [&](const std::string& name,
                                    const json::Reader& cat) {
    MetricRow row;
    cat.for_each_key([&](const std::string& key) {
      if (key == "calls") {
        row.calls = cat.integer<long>(
            "calls", 0, 0, static_cast<long>(json::kMaxExactInteger));
        return;
      }
      for (const auto& [fixed, field] : kFixed) {
        if (key == fixed) {
          row.*field = cat.number(fixed, 0.0, 0.0, DBL_MAX);
          return;
        }
      }
      row.counters[key] = cat.number(key.c_str(), 0.0, -DBL_MAX, DBL_MAX);
    });
    rows.emplace(name, std::move(row));
  });
  return rows;
}

}  // namespace toast::obs
