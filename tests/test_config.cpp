// Schedule-space config layer (src/config/, docs/MODEL.md §12): canonical
// serialization, strict parsing, hash stability, the bitwise oracle
// that a default ScheduleConfig reproduces the pre-refactor defaults, and
// a deterministic mutation fuzz of every schema parser over the JSON
// checked in under bench/.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_model/problem.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "resilience/policy.hpp"
#include "serve/spec.hpp"
#include "tune/library.hpp"

namespace {

using toast::config::CommAlgorithm;
using toast::config::CommMode;
using toast::config::ScheduleConfig;
using toast::config::SolverComm;
using toast::config::Staging;

/// The fully explicit document from the schedule.hpp header comment:
/// every key spelled out at its documented default.
constexpr const char* kExplicitDefaults = R"({
  "schema": "toastcase-schedule-v1",
  "backend": "cpu",
  "staging": {"mode": "pipelined", "prefetch": false, "evict": false},
  "streams": 1,
  "comm": {"mode": "model", "algorithm": "ring", "chunk_bytes": 0},
  "solver": {"async_comm": "staged"},
  "shape": {"nodes": 0, "procs_per_node": 0},
  "device": {"mps": true, "jax_preallocate": false}
})";

ScheduleConfig non_default_config() {
  ScheduleConfig c;
  c.backend = "jax";
  c.staging.mode = Staging::kNaive;
  c.staging.prefetch = true;
  c.staging.evict = true;
  c.streams = 4;
  c.comm.mode = CommMode::kEngine;
  c.comm.algorithm = CommAlgorithm::kTree;
  c.comm.chunk_bytes = 1048576.0;
  c.solver.async_comm = SolverComm::kOverlap;
  c.shape.nodes = 2;
  c.shape.procs_per_node = 8;
  c.device.mps = false;
  c.device.jax_preallocate = true;
  return c;
}

TEST(ScheduleConfig, RoundTripsThroughCanonicalJson) {
  const ScheduleConfig original = non_default_config();
  const ScheduleConfig reparsed = ScheduleConfig::parse(original.json());
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.hash(), original.hash());
  EXPECT_EQ(reparsed.json(), original.json());
}

TEST(ScheduleConfig, RoundTripsThroughFile) {
  const std::string path = testing::TempDir() + "schedule_roundtrip.json";
  const ScheduleConfig original = non_default_config();
  original.save_file(path);
  EXPECT_EQ(ScheduleConfig::load_file(path), original);
  std::remove(path.c_str());
}

TEST(ScheduleConfig, EveryKeyIsOptional) {
  const auto minimal =
      ScheduleConfig::parse(R"({"schema": "toastcase-schedule-v1"})");
  EXPECT_EQ(minimal, ScheduleConfig{});
}

TEST(ScheduleConfig, ExplicitDefaultsMatchDefaultConstruction) {
  // The header's documented defaults must be the real defaults: spelling
  // every knob out changes nothing, bit for bit.
  const auto parsed = ScheduleConfig::parse(kExplicitDefaults);
  EXPECT_EQ(parsed, ScheduleConfig{});
  EXPECT_EQ(parsed.hash(), ScheduleConfig{}.hash());
}

TEST(ScheduleConfig, CanonicalSerializationIsPinned) {
  // The canonical form feeds the hash, the plan-cache keys and every
  // saved artifact; changing it invalidates all of them, so it is pinned
  // here verbatim.
  EXPECT_EQ(
      ScheduleConfig{}.json(),
      "{\"schema\":\"toastcase-schedule-v1\",\"backend\":\"cpu\","
      "\"staging\":{\"mode\":\"pipelined\",\"prefetch\":false,"
      "\"evict\":false},\"streams\":1,\"comm\":{\"mode\":\"model\","
      "\"algorithm\":\"ring\",\"chunk_bytes\":0},"
      "\"solver\":{\"async_comm\":\"staged\"},"
      "\"shape\":{\"nodes\":0,\"procs_per_node\":0},"
      "\"device\":{\"mps\":true,\"jax_preallocate\":false}}");
  EXPECT_EQ(ScheduleConfig{}.hash_hex(), "99026a826263fd34");
}

TEST(ScheduleConfig, HashDistinguishesEveryAxis) {
  const std::uint64_t base = ScheduleConfig{}.hash();
  auto mutated = [&](auto&& mutate) {
    ScheduleConfig c;
    mutate(c);
    return c.hash();
  };
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.backend = "jax"; }), base);
  EXPECT_NE(
      mutated([](ScheduleConfig& c) { c.staging.mode = Staging::kNaive; }),
      base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.staging.prefetch = true; }),
            base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.staging.evict = true; }), base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.streams = 2; }), base);
  EXPECT_NE(
      mutated([](ScheduleConfig& c) { c.comm.mode = CommMode::kEngine; }),
      base);
  EXPECT_NE(mutated([](ScheduleConfig& c) {
              c.comm.algorithm = CommAlgorithm::kRecursive;
            }),
            base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.comm.chunk_bytes = 1.0; }),
            base);
  EXPECT_NE(mutated([](ScheduleConfig& c) {
              c.solver.async_comm = SolverComm::kSync;
            }),
            base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.shape.nodes = 1; }), base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.shape.procs_per_node = 1; }),
            base);
  EXPECT_NE(mutated([](ScheduleConfig& c) { c.device.mps = false; }), base);
  EXPECT_NE(
      mutated([](ScheduleConfig& c) { c.device.jax_preallocate = true; }),
      base);
}

TEST(ScheduleConfig, RejectsUnknownKeysAtEveryNestingLevel) {
  const auto rejects = [](const std::string& doc) {
    EXPECT_THROW(ScheduleConfig::parse(doc), std::runtime_error) << doc;
  };
  rejects(R"({"schema": "toastcase-schedule-v1", "stagnig": {}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "staging": {"mode": "pipelined", "prefetc": true}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "comm": {"algoritm": "ring"}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "solver": {"async": "staged"}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "shape": {"nodes": 0, "procs": 16}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "device": {"mps": true, "preallocate": false}})");
}

TEST(ScheduleConfig, RejectsMissingOrWrongSchema) {
  EXPECT_THROW(ScheduleConfig::parse(R"({"backend": "cpu"})"),
               std::runtime_error);
  EXPECT_THROW(ScheduleConfig::parse(R"({"schema": "toastcase-fault-plan-v1"})"),
               std::runtime_error);
  EXPECT_THROW(ScheduleConfig::parse("[]"), std::runtime_error);
}

TEST(ScheduleConfig, RejectsInvalidValues) {
  const auto rejects = [](const std::string& doc) {
    EXPECT_THROW(ScheduleConfig::parse(doc), std::runtime_error) << doc;
  };
  rejects(R"({"schema": "toastcase-schedule-v1", "backend": "cuda"})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "staging": {"mode": "eager"}})");
  rejects(R"({"schema": "toastcase-schedule-v1", "streams": 0})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "comm": {"chunk_bytes": -1}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "shape": {"nodes": -1}})");
  rejects(R"({"schema": "toastcase-schedule-v1",
              "solver": {"async_comm": "async"}})");
}

/// `doc` is rejected with an error that names `path` and `expected`.
void expect_rejected(const std::string& doc, const std::string& path,
                     const std::string& expected) {
  try {
    (void)ScheduleConfig::parse(doc);
    ADD_FAILURE() << "accepted: " << doc;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  }
}

TEST(ScheduleConfig, RejectsStringStreams) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1", "streams": "4"})",
                  "streams", "must be a number");
}

TEST(ScheduleConfig, RejectsFractionalStreams) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1", "streams": 2.7})",
                  "streams", "must be an integer");
}

TEST(ScheduleConfig, RejectsOutOfRangeStreams) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1", "streams": 1e10})",
                  "streams", "must be an integer in [1, 2147483647]");
}

TEST(ScheduleConfig, RejectsNonBooleanStagingFlags) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1",
                      "staging": {"prefetch": 1}})",
                  "staging.prefetch", "must be a boolean");
  expect_rejected(R"({"schema": "toastcase-schedule-v1",
                      "staging": {"prefetch": "yes"}})",
                  "staging.prefetch", "must be a boolean");
}

TEST(ScheduleConfig, RejectsNonStringBackend) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1", "backend": 5})",
                  "backend", "must be a string");
}

TEST(ScheduleConfig, RejectsFractionalShape) {
  expect_rejected(R"({"schema": "toastcase-schedule-v1",
                      "shape": {"nodes": 1.5}})",
                  "shape.nodes", "must be an integer");
}

TEST(ScheduleConfig, CheckedInSchedulesLoad) {
  const std::string dir =
      std::string(TOASTCASE_SOURCE_DIR) + "/bench/schedules/";
  const ScheduleConfig tuned =
      ScheduleConfig::load_file(dir + "tuned_large_omp.json");
  EXPECT_EQ(tuned.backend, "omp-target");
  EXPECT_TRUE(tuned.staging.prefetch);
  const auto lib = toast::tune::ScheduleLibrary::load_file(dir + "index.json");
  ASSERT_EQ(lib.entries().size(), 1u);
  EXPECT_EQ(lib.entries()[0].schedule, tuned);
}

TEST(ScheduleConfig, BackendSlotRoundTripsThroughManifest) {
  using toast::core::Backend;
  for (const Backend b : {Backend::kCpu, Backend::kOmpTarget, Backend::kJax,
                          Backend::kJaxCpu}) {
    ScheduleConfig c;
    c.set_backend(b);
    EXPECT_EQ(c.backend_id(), b);
  }
  ScheduleConfig bad;
  bad.backend = "tpu";
  EXPECT_THROW(bad.backend_id(), std::runtime_error);
}

// --- the pre-refactor oracle ------------------------------------------------

/// A default-constructed ScheduleConfig must reproduce the pre-refactor
/// per-layer defaults bit for bit: running the modelled job with the
/// implicit defaults and with the fully spelled-out document must agree
/// on every virtual-clock number.
TEST(ScheduleConfigOracle, DefaultsReproducePreRefactorJobBitwise) {
  using toast::core::Backend;
  for (const Backend backend :
       {Backend::kCpu, Backend::kJax, Backend::kOmpTarget}) {
    toast::mpisim::JobConfig implicit{toast::bench_model::medium_problem(),
                                      backend};

    toast::mpisim::JobConfig explicit_cfg = implicit;
    explicit_cfg.schedule = ScheduleConfig::parse(kExplicitDefaults);
    explicit_cfg.schedule.set_backend(backend);

    ASSERT_EQ(implicit.schedule, explicit_cfg.schedule);
    const auto a = toast::mpisim::run_benchmark_job(implicit);
    const auto b = toast::mpisim::run_benchmark_job(explicit_cfg);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.runtime, b.runtime) << toast::core::to_string(backend);
    EXPECT_EQ(a.host_seconds, b.host_seconds);
    EXPECT_EQ(a.device_seconds, b.device_seconds);
    EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
    EXPECT_EQ(a.comm_seconds, b.comm_seconds);
    EXPECT_EQ(a.plan_counters, b.plan_counters);
  }
}

// --- hostile input ----------------------------------------------------------

/// splitmix64 over `state`: the one random stream every mutation draws from.
std::uint64_t next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Offsets of the ':' of every object member (outside strings).
std::vector<std::size_t> colons(const std::string& text) {
  std::vector<std::size_t> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (in_string) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        in_string = false;
      }
    } else if (text[i] == '"') {
      in_string = true;
    } else if (text[i] == ':') {
      out.push_back(i);
    }
  }
  return out;
}

/// One past the end of the value that follows the ':' at `colon`.
std::size_t value_end(const std::string& text, std::size_t colon) {
  std::size_t i = colon + 1;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  int depth = 0;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) {
          return i + 1;
        }
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) {
        return i;
      }
      if (--depth == 0) {
        return i + 1;
      }
    } else if (depth == 0 &&
               (c == ',' || std::isspace(static_cast<unsigned char>(c)))) {
      return i;
    }
  }
  return text.size();
}

/// Applies one seeded mutation: a byte flip, a type swap, a duplicated
/// member, a depth bomb or a numeric extreme.
void mutate(std::string& text, std::uint64_t& rng) {
  static const char* const kTypes[] = {"\"x\"", "true", "null", "[]",
                                       "{}",      "[{}]", "0"};
  static const char* const kExtremes[] = {
      "1e308", "-1e308", "-1",    "9223372036854775808", "18446744073709551616",
      "0.5",   "2.9",    "-0.25", "1e-320",              "1e999"};
  if (text.empty()) {
    text = "{";
    return;
  }
  const std::vector<std::size_t> members = colons(text);
  const std::uint64_t kind = next(rng) % 5;
  if (kind == 0 || members.empty()) {
    const std::size_t at = next(rng) % text.size();
    text[at] = static_cast<char>(next(rng) & 0xff);
    return;
  }
  const std::size_t colon = members[next(rng) % members.size()];
  const std::size_t end = value_end(text, colon);
  std::string value;
  switch (kind) {
    case 1:
      value = kTypes[next(rng) % std::size(kTypes)];
      break;
    case 2: {
      const std::size_t close = text.rfind('"', colon);
      const std::size_t open =
          close == std::string::npos || close == 0
              ? std::string::npos
              : text.rfind('"', close - 1);
      if (open == std::string::npos) {
        return;
      }
      text.insert(end, "," + text.substr(open, end - open));
      return;
    }
    case 3: {
      const std::size_t depth = std::size_t{250} + next(rng) % 12;
      value = std::string(depth, '[') + std::string(depth, ']');
      break;
    }
    default:
      value = kExtremes[next(rng) % std::size(kExtremes)];
  }
  text.replace(colon + 1, end - colon - 1, value);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SchemaFuzz, MutatedBenchInputsParseOrThrowRuntimeError) {
  namespace fs = std::filesystem;
  using Parse = std::function<void(const std::string&)>;
  const fs::path bench = fs::path(TOASTCASE_SOURCE_DIR) / "bench";
  const std::string schedules = (bench / "schedules").string();
  const std::map<std::string, Parse> typed = {
      {"toastcase-fault-plan-v1",
       [](const std::string& t) { toast::fault::FaultPlan::parse(t); }},
      {"toastcase-resilience-policy-v1",
       [](const std::string& t) { toast::resilience::Policy::parse(t); }},
      {"toastcase-schedule-v1",
       [](const std::string& t) { ScheduleConfig::parse(t); }},
      {"toastcase-schedule-library-v1",
       [&](const std::string& t) {
         toast::tune::ScheduleLibrary::parse(t, schedules);
       }},
      {"toastcase-serve-v1",
       [](const std::string& t) { toast::serve::ServiceSpec::parse(t); }},
  };
  const Parse plain = [](const std::string& t) {
    toast::obs::json::Value::parse(t);
  };

  struct Input {
    std::string path;  ///< file, or a label for a generated document
    std::string text;
    Parse parse;
  };
  std::vector<Input> inputs;
  for (const char* dir : {"faultplans", "schedules", "servespecs"}) {
    for (const auto& f : fs::directory_iterator(bench / dir)) {
      const std::string schema =
          toast::obs::json::load_file(f.path().string()).at("schema").string;
      ASSERT_EQ(typed.count(schema), 1u) << f.path() << ": " << schema;
      inputs.push_back(
          {f.path().string(), slurp(f.path()), typed.at(schema)});
    }
  }
  for (const auto& f : fs::directory_iterator(bench / "golden")) {
    inputs.push_back({f.path().string(), slurp(f.path()), plain});
  }
  {
    // A metrics document as obs::write_metrics_json writes it (fixed
    // fields, an open counter, meta), read back through its strict reader.
    toast::accel::VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    const auto span = tracer.record("scan_map", "kernel", 2.5e-4);
    tracer.add_counter(span, "bytes_h2d", 4096.0);
    tracer.record("pipeline_overhead", "framework", 5.0e-5);
    std::ostringstream out;
    toast::obs::write_metrics_json(tracer.spans(), out, {{"bench", "fuzz"}});
    inputs.push_back({"write_metrics_json", out.str(),
                      [](const std::string& t) {
                        toast::obs::read_metrics_json(
                            toast::obs::json::Value::parse(t));
                      }});
  }
  ASSERT_GE(inputs.size(), 21u);

  constexpr int kMutationsPerInput = 64;
  std::uint64_t rng = 2023;
  for (const auto& [path, original, parse] : inputs) {
    EXPECT_NO_THROW(parse(original)) << path;
    for (int i = 0; i < kMutationsPerInput; ++i) {
      std::string text = original;
      const std::uint64_t rounds = 1 + next(rng) % 3;
      for (std::uint64_t k = 0; k < rounds; ++k) {
        mutate(text, rng);
      }
      try {
        parse(text);
      } catch (const std::runtime_error&) {
        // A structured rejection is the expected outcome.
      } catch (const std::exception& e) {
        ADD_FAILURE() << path << " mutation " << i << " threw " << e.what()
                      << "\n" << text;
      }
    }
  }
}

}  // namespace
