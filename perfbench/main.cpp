// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--trace-out <file>]
//   perfbench --regen-goldens <workload> [--root <checkout>]
//   perfbench --list-metrics
//
// The last line of a run's standard output is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Bad arguments exit 2 and a failed set-up exits 1, both
// without a result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "driver.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--trace-out "
               "<file>]\n       perfbench --regen-goldens <workload> "
               "[--root <dir>]\n       perfbench --list-metrics\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    usage_error(flag + " wants a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

void print_result(const perfbench::RunOptions& opt,
                  const perfbench::RunResult& res) {
  const auto& specs = opt.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  for (const auto& f : res.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
  std::printf("%s seed %llu: %ld ops attempted, %ld failed (fail_ratio %.6g)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              res.attempted, res.failed,
              static_cast<double>(res.failed) /
                  static_cast<double>(res.attempted));
  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) +
          ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& spec : specs) {
    const auto it = res.metrics.find(spec.name);
    if (it == res.metrics.end() || !std::isfinite(it->second)) {
      throw std::runtime_error(std::string("metric ") + spec.name +
                               " was not measured");
    }
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", it->second);
    std::printf("  %-30s %s %s%s\n", spec.name, num, spec.unit,
                std::string(spec.name) == "op_p50_ref"
                    ? (" (over " + std::to_string(res.attempted) + " ops)")
                          .c_str()
                    : "");
    json += sep;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + spec.unit + "\"}";
    sep = ", ";
  }
  for (const auto& [name, value] : res.log) {
    std::printf("  %-30s %.17g s (log only)\n", name.c_str(), value);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string regen;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage_error("unknown flag or missing value: '" + arg + "'");
    }
    const std::string v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, v);
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, v);
      if (s < 1 || s > 3600) {
        usage_error("--seconds wants 1..3600");
      }
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") {
        usage_error("--trace wants 0 or 1, got '" + v + "'");
      }
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--root") {
      opt.root = v;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else if (arg == "--regen-goldens") {
      regen = v;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  try {
    if (list) {
      for (const auto& m : perfbench::end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const auto& m : perfbench::per_layer_metrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (!regen.empty()) {
      const int changed = perfbench::regenerate_goldens(regen, opt.root);
      std::printf("%s: %d golden digest(s) changed\n", regen.c_str(), changed);
      return 0;
    }
    if (!(have_workload && have_seed && have_seconds && have_trace)) {
      usage_error("--workload, --seed, --seconds and --trace are required");
    }
    const auto res = perfbench::run(opt);
    print_result(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
