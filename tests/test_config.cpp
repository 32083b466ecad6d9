// Schedule-space config layer (src/config/, docs/MODEL.md §12): canonical
// serialization, strict parsing, hash stability, and the bitwise oracle
// that a default ScheduleConfig reproduces the pre-refactor defaults.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_model/problem.hpp"
#include "config/schedule.hpp"
#include "mpisim/job.hpp"
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

}  // namespace
