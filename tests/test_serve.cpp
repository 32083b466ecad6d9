// Tests of the multi-tenant job service: strict toastcase-serve-v1
// parsing (unknown keys reject at every nesting level, including the
// nested fault-plan / resilience-policy / schedule documents), schedule
// library lookup, fair-share vs strict-priority ordering, memory-aware
// packing (admission rejects, queueing under exclusivity), per-tenant
// chaos isolation (bitwise), elastic world-shrink containment,
// same-seed bitwise repeats, and the served-equals-standalone oracle.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "serve/service.hpp"
#include "serve/spec.hpp"
#include "tune/library.hpp"

namespace {

using toast::serve::SchedPolicy;
using toast::serve::ServedJob;
using toast::serve::Service;
using toast::serve::ServiceReport;
using toast::serve::ServiceSpec;

// A minimal exclusive (MPS-off) accelerator schedule: on a one-node
// fleet these jobs serialize, which makes ordering observable.
constexpr const char* kExclusiveOmp =
    R"({"schema": "toastcase-schedule-v1", "backend": "omp-target",
        "device": {"mps": false}})";

std::string result_string(const ServiceReport& r) {
  std::ostringstream ss;
  toast::serve::write_result_json(ss, r);
  return ss.str();
}

const ServedJob& job_named(const ServiceReport& r, const std::string& name) {
  for (const ServedJob& j : r.jobs) {
    if (j.name == name) {
      return j;
    }
  }
  throw std::runtime_error("no job named " + name);
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(ServeSpec, ParsesFullDocument) {
  const ServiceSpec spec = ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "policy": "priority",
    "fleet": {"nodes": 3, "gpus_per_node": 2},
    "tenants": [
      {"name": "a", "share": 2.0, "max_running": 1, "priority": 4,
       "faults": {"schema": "toastcase-fault-plan-v1", "seed": 9,
                  "rules": [{"kind": "transfer", "probability": 0.1}]},
       "resilience": {"schema": "toastcase-resilience-policy-v1",
                      "elastic": {"enabled": true, "min_ranks": 2}}},
      {"name": "b"}
    ],
    "jobs": [
      {"name": "j0", "tenant": "a", "workload": "tiny",
       "backend": "jax", "submit_s": 1.5, "priority": 7, "seed": 42,
       "map_iterations": 2, "pipeline": "overlap"},
      {"name": "j1", "tenant": "b",
       "schedule": )" + std::string(kExclusiveOmp) + R"(}
    ]
  })");
  EXPECT_EQ(spec.policy, SchedPolicy::kPriority);
  EXPECT_EQ(spec.fleet.nodes, 3);
  EXPECT_EQ(spec.fleet.gpus_per_node, 2);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.tenants[0].share, 2.0);
  EXPECT_EQ(spec.tenants[0].max_running, 1);
  EXPECT_EQ(spec.tenants[0].priority, 4);
  EXPECT_FALSE(spec.tenants[0].faults.rules.empty());
  EXPECT_TRUE(spec.tenants[0].resilience.elastic.enabled);
  EXPECT_TRUE(spec.tenants[1].faults.rules.empty());
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].backend, "jax");
  EXPECT_TRUE(spec.jobs[0].has_priority);
  EXPECT_EQ(spec.jobs[0].priority, 7);
  EXPECT_DOUBLE_EQ(spec.jobs[0].submit_s, 1.5);
  EXPECT_EQ(spec.jobs[0].seed, 42u);
  EXPECT_EQ(spec.jobs[0].pipeline, toast::mpisim::PipelineRun::kGraphOverlap);
  EXPECT_TRUE(spec.jobs[1].has_schedule);
  EXPECT_EQ(spec.jobs[1].schedule.backend, "omp-target");
  EXPECT_FALSE(spec.jobs[1].schedule.device.mps);
}

TEST(ServeSpec, RejectsUnknownKeysAtEveryNestingLevel) {
  const auto reject = [](const std::string& body) {
    EXPECT_THROW(ServiceSpec::parse(body), std::runtime_error) << body;
  };
  const std::string tenants =
      R"("tenants": [{"name": "a"}], )";
  const std::string jobs =
      R"("jobs": [{"name": "j", "tenant": "a"}])";
  // Top level.
  reject(R"({"schema": "toastcase-serve-v1", "polcy": "fair_share", )" +
         tenants + jobs + "}");
  // Wrong schema string.
  reject(R"({"schema": "toastcase-serve-v2", )" + tenants + jobs + "}");
  // Fleet.
  reject(R"({"schema": "toastcase-serve-v1",
             "fleet": {"nodez": 2}, )" + tenants + jobs + "}");
  // Tenant.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a", "shar": 1.0}], )" + jobs + "}");
  // Job.
  reject(R"({"schema": "toastcase-serve-v1", )" + tenants +
         R"("jobs": [{"name": "j", "tenant": "a", "submit": 0}]})");
  // Nested fault plan.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a",
               "faults": {"schema": "toastcase-fault-plan-v1",
                          "rulez": []}}], )" + jobs + "}");
  // Nested resilience policy.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a",
               "resilience": {"schema": "toastcase-resilience-policy-v1",
                              "elastic": {"enable": true}}}], )" +
         jobs + "}");
  // Nested schedule.
  reject(R"({"schema": "toastcase-serve-v1", )" + tenants +
         R"("jobs": [{"name": "j", "tenant": "a",
             "schedule": {"schema": "toastcase-schedule-v1",
                          "backend": "cpu", "streemz": 2}}]})");
}

TEST(ServeSpec, RejectsGraphPipelineNamingKeyPathAndValues) {
  // "graph" (the serial task graph) is gone: staged replay is that run.
  try {
    ServiceSpec::parse(R"({"schema": "toastcase-serve-v1",
        "tenants": [{"name": "a"}],
        "jobs": [{"name": "j0", "tenant": "a"},
                 {"name": "j1", "tenant": "a", "pipeline": "graph"}]})");
    FAIL() << "\"pipeline\": \"graph\" was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jobs[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'pipeline'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("staged|overlap"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'graph'"), std::string::npos) << msg;
  }
}

TEST(ServeSpec, ValidatesCrossReferencesAndRanges) {
  const auto reject = [](const std::string& body) {
    EXPECT_THROW(ServiceSpec::parse(body), std::runtime_error) << body;
  };
  // Unknown tenant reference.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "nope"}]})");
  // Duplicate tenant / duplicate job.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}, {"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a"},
                      {"name": "j", "tenant": "a"}]})");
  // backend + schedule are mutually exclusive.
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a", "backend": "jax",
                       "schedule": {"schema": "toastcase-schedule-v1"}}]})");
  // Bad enums and ranges.
  reject(R"({"schema": "toastcase-serve-v1", "policy": "fifo",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a", "workload": "huge"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a", "pipeline": "async"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a", "submit_s": -1.0}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a", "share": 0.0}],
             "jobs": [{"name": "j", "tenant": "a"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a", "max_running": 1.5}],
             "jobs": [{"name": "j", "tenant": "a"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}],
             "jobs": [{"name": "j", "tenant": "a", "seed": -1}]})");
  // Empty tenant / job arrays.
  reject(R"({"schema": "toastcase-serve-v1", "tenants": [],
             "jobs": [{"name": "j", "tenant": "a"}]})");
  reject(R"({"schema": "toastcase-serve-v1",
             "tenants": [{"name": "a"}], "jobs": []})");
}

TEST(ScheduleLibrary, LookupPrefersMostSpecificEntry) {
  const std::string omp = write_temp("lib_omp.json", std::string(R"({
    "schema": "toastcase-schedule-v1", "backend": "omp-target"})"));
  const std::string jax = write_temp("lib_jax.json", std::string(R"({
    "schema": "toastcase-schedule-v1", "backend": "jax"})"));
  const std::string index = write_temp("lib_index.json", std::string(R"({
    "schema": "toastcase-schedule-library-v1",
    "entries": [
      {"workload": "tiny", "path": ")") + jax + R"("},
      {"workload": "tiny", "backend": "omp-target", "nodes": 1,
       "procs_per_node": 1, "path": ")" + omp + R"("}
    ]
  })");
  const auto lib = toast::tune::ScheduleLibrary::load_file(index);
  ASSERT_EQ(lib.entries().size(), 2u);

  toast::tune::LibraryQuery q;
  q.workload = "tiny";
  q.nodes = 1;
  q.procs_per_node = 1;
  q.backend = "omp-target";
  const auto* exact = toast::tune::library_lookup(lib, q);
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->backend, "omp-target");

  // Different backend: only the wildcard entry matches.
  q.backend = "cpu";
  const auto* wild = toast::tune::library_lookup(lib, q);
  ASSERT_NE(wild, nullptr);
  EXPECT_EQ(wild->backend, "jax");

  // Unknown workload: miss.
  q.workload = "medium";
  EXPECT_EQ(toast::tune::library_lookup(lib, q), nullptr);

  // Unknown index keys reject.
  EXPECT_THROW(toast::tune::ScheduleLibrary::parse(
                   R"({"schema": "toastcase-schedule-library-v1",
                       "entriez": []})",
                   "."),
               std::runtime_error);
  // A fractional topology field is an error, not a truncation.
  EXPECT_THROW(toast::tune::ScheduleLibrary::parse(
                   std::string(R"({"schema": "toastcase-schedule-library-v1",
                       "entries": [{"workload": "tiny", "nodes": 1.5,
                                    "path": ")") + omp + R"("}]})",
                   "."),
               std::runtime_error);
}

TEST(ServeService, TunedJobsConsultTheLibrary) {
  const std::string art = write_temp("tuned_tiny.json", std::string(R"({
    "schema": "toastcase-schedule-v1", "backend": "omp-target",
    "staging": {"mode": "pipelined", "prefetch": true, "evict": true}})"));
  const std::string index = write_temp("serve_index.json", std::string(R"({
    "schema": "toastcase-schedule-library-v1",
    "entries": [{"workload": "tiny", "path": ")") + art + R"("}]
  })");
  ServiceSpec spec = ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "tenants": [{"name": "a"}],
    "jobs": [{"name": "hit", "tenant": "a", "tuned": true},
             {"name": "miss", "tenant": "a", "workload": "medium",
              "tuned": true, "backend": "jax"}]
  })");
  spec.schedule_library = index;
  spec.fleet.nodes = 4;
  const ServiceReport r = Service(spec).run();
  EXPECT_EQ(r.library_hits, 1);
  EXPECT_EQ(r.library_misses, 1);
  const ServedJob& hit = job_named(r, "hit");
  EXPECT_TRUE(hit.library_hit);
  EXPECT_EQ(hit.config.schedule.backend, "omp-target");
  EXPECT_TRUE(hit.config.schedule.staging.prefetch);
  // The miss falls back to the job's backend override.
  const ServedJob& miss = job_named(r, "miss");
  EXPECT_FALSE(miss.library_hit);
  EXPECT_EQ(miss.config.schedule.backend, "jax");
}

// One-node fleet + exclusive jobs: the service runs one job at a time,
// so the start order IS the policy order.
std::string ordering_spec(const std::string& policy) {
  return R"({
    "schema": "toastcase-serve-v1",
    "policy": ")" + policy + R"(",
    "fleet": {"nodes": 1, "gpus_per_node": 4},
    "tenants": [{"name": "a", "share": 1.0, "priority": 1},
                {"name": "b", "share": 4.0, "priority": 5}],
    "jobs": [
      {"name": "a0", "tenant": "a", "schedule": )" + kExclusiveOmp + R"(},
      {"name": "a1", "tenant": "a", "schedule": )" + kExclusiveOmp + R"(},
      {"name": "b0", "tenant": "b", "schedule": )" + kExclusiveOmp + R"(},
      {"name": "b1", "tenant": "b", "schedule": )" + kExclusiveOmp + R"(}
    ]
  })";
}

TEST(ServeService, FairShareInterleavesByChargedShare) {
  const ServiceReport r =
      Service(ServiceSpec::parse(ordering_spec("fair_share"))).run();
  EXPECT_EQ(r.completed, 4);
  EXPECT_TRUE(r.work_conserving);
  // First slot: all charges zero, tie broken by declaration order -> a0.
  // a is then charged, so b (4x share) runs both jobs before a1.
  EXPECT_LT(job_named(r, "a0").start_s, job_named(r, "b0").start_s);
  EXPECT_LT(job_named(r, "b0").start_s, job_named(r, "b1").start_s);
  EXPECT_LT(job_named(r, "b1").start_s, job_named(r, "a1").start_s);
  // Exclusive jobs on one node serialize: no overlap, positive waits.
  EXPECT_GT(job_named(r, "a1").queue_wait_s, 0.0);
}

TEST(ServeService, PriorityPolicyIsStrict) {
  const ServiceReport r =
      Service(ServiceSpec::parse(ordering_spec("priority"))).run();
  EXPECT_EQ(r.completed, 4);
  // b's level 5 beats a's level 1; FIFO within a level.
  EXPECT_LT(job_named(r, "b0").start_s, job_named(r, "b1").start_s);
  EXPECT_LT(job_named(r, "b1").start_s, job_named(r, "a0").start_s);
  EXPECT_LT(job_named(r, "a0").start_s, job_named(r, "a1").start_s);
}

TEST(ServeService, AdmissionRejectsNeverFitJobs) {
  // The large workload wants 8 nodes; the fleet has 2.
  ServiceSpec spec = ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "fleet": {"nodes": 2, "gpus_per_node": 4},
    "tenants": [{"name": "a"}],
    "jobs": [{"name": "big", "tenant": "a", "workload": "large",
              "backend": "omp-target"},
             {"name": "ok", "tenant": "a", "workload": "tiny",
              "backend": "cpu"}]
  })");
  const ServiceReport r = Service(spec).run();
  EXPECT_EQ(r.rejected, 1);
  EXPECT_EQ(r.completed, 1);
  const ServedJob& big = job_named(r, "big");
  EXPECT_FALSE(big.admitted);
  EXPECT_NE(big.reject_reason.find("nodes"), std::string::npos);
  EXPECT_TRUE(job_named(r, "ok").completed);

  // Shrink the device: the accel job's footprint no longer fits a GPU,
  // but the CPU job never touches one and still completes.
  ServiceSpec tight = ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "fleet": {"nodes": 2, "gpus_per_node": 4},
    "tenants": [{"name": "a"}],
    "jobs": [{"name": "gpu", "tenant": "a", "backend": "omp-target"},
             {"name": "cpu", "tenant": "a", "backend": "cpu"}]
  })");
  tight.fleet.device.memory_bytes = 1.0;
  const ServiceReport tr = Service(tight).run();
  const ServedJob& gpu = job_named(tr, "gpu");
  EXPECT_FALSE(gpu.admitted);
  EXPECT_NE(gpu.reject_reason.find("device footprint"), std::string::npos);
  EXPECT_TRUE(job_named(tr, "cpu").completed);
}

TEST(ServeService, ExclusiveJobsQueueUntilNodesFree) {
  const ServiceReport r = Service(ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "fleet": {"nodes": 1, "gpus_per_node": 4},
    "tenants": [{"name": "a"}],
    "jobs": [
      {"name": "first", "tenant": "a", "schedule": )" +
      std::string(kExclusiveOmp) + R"(},
      {"name": "second", "tenant": "a", "schedule": )" +
      std::string(kExclusiveOmp) + R"(}
    ]
  })")).run();
  const ServedJob& first = job_named(r, "first");
  const ServedJob& second = job_named(r, "second");
  EXPECT_TRUE(first.completed);
  EXPECT_TRUE(second.completed);
  EXPECT_DOUBLE_EQ(first.start_s, 0.0);
  // Preemption-free: the second starts exactly when the first finishes.
  EXPECT_DOUBLE_EQ(second.start_s, first.finish_s);
  EXPECT_GT(second.queue_wait_s, 0.0);
  EXPECT_TRUE(r.work_conserving);
}

std::string chaos_spec(bool with_chaos) {
  const std::string faults = with_chaos ? R"(,
       "faults": {"schema": "toastcase-fault-plan-v1", "seed": 20230923,
                  "rules": [{"kind": "transfer", "probability": 0.05},
                            {"kind": "launch", "probability": 0.05},
                            {"kind": "straggler", "probability": 0.1,
                             "factor": 3.0}]})"
                                        : "";
  return R"({
    "schema": "toastcase-serve-v1",
    "fleet": {"nodes": 2, "gpus_per_node": 4},
    "tenants": [{"name": "alpha", "share": 1.0)" + faults + R"(},
                {"name": "beta", "share": 2.0}],
    "jobs": [
      {"name": "a0", "tenant": "alpha", "backend": "omp-target"},
      {"name": "b0", "tenant": "beta", "backend": "omp-target"},
      {"name": "b1", "tenant": "beta", "backend": "jax",
       "submit_s": 0.25}
    ]
  })";
}

TEST(ServeService, ChaosIsolationIsBitwise) {
  const ServiceReport with = Service(ServiceSpec::parse(chaos_spec(true))).run();
  const ServiceReport without =
      Service(ServiceSpec::parse(chaos_spec(false))).run();
  // Alpha's chaos fired...
  EXPECT_FALSE(job_named(with, "a0").result.fault_counters.empty());
  // ...and did not move a single bit of beta's results.
  for (const char* name : {"b0", "b1"}) {
    EXPECT_TRUE(toast::serve::results_bitwise_equal(
        job_named(with, name).result, job_named(without, name).result))
        << name;
  }
}

TEST(ServeService, ElasticShrinkStaysInsideTheTenant) {
  // Tenant alpha: guaranteed rank deaths + an elastic policy; its jobs
  // run in a 2x2 world (schedule shape override).  Tenant beta shares
  // the fleet with the same shape but no chaos: its world must stay
  // whole.
  const std::string shaped = R"({"schema": "toastcase-schedule-v1",
    "backend": "cpu", "shape": {"nodes": 2, "procs_per_node": 2}})";
  const ServiceReport r = Service(ServiceSpec::parse(R"({
    "schema": "toastcase-serve-v1",
    "fleet": {"nodes": 4, "gpus_per_node": 4},
    "tenants": [
      {"name": "alpha",
       "faults": {"schema": "toastcase-fault-plan-v1", "seed": 31,
                  "retry": {"max_attempts": 2},
                  "rules": [{"kind": "rank", "site": "mpisim_rank",
                             "probability": 1.0}]},
       "resilience": {"schema": "toastcase-resilience-policy-v1",
                      "elastic": {"enabled": true, "min_ranks": 1,
                                  "rebuild_seconds": 1e-3,
                                  "requeue": true}}},
      {"name": "beta"}
    ],
    "jobs": [
      {"name": "a0", "tenant": "alpha", "schedule": )" + shaped + R"(},
      {"name": "b0", "tenant": "beta", "schedule": )" + shaped + R"(}
    ]
  })")).run();
  const ServedJob& a0 = job_named(r, "a0");
  const ServedJob& b0 = job_named(r, "b0");
  ASSERT_TRUE(a0.completed);
  ASSERT_TRUE(b0.completed);
  EXPECT_LT(a0.result.world_ranks, 4);
  EXPECT_GT(a0.result.fault_counters.at("resilience_world_shrinks"), 0.0);
  EXPECT_EQ(b0.result.world_ranks, 4);
  EXPECT_TRUE(b0.result.fault_counters.empty());
}

TEST(ServeService, SameSeedRunsAreByteIdentical) {
  const ServiceSpec spec = ServiceSpec::parse(chaos_spec(true));
  const ServiceReport a = Service(spec).run();
  const ServiceReport b = Service(spec).run();
  EXPECT_EQ(result_string(a), result_string(b));
}

TEST(ServeService, ServedResultsMatchStandaloneRuns) {
  // The figure-5 style oracle: every job the service completed must
  // carry exactly the JobResult a standalone run of its resolved
  // config produces.
  const ServiceReport r = Service(ServiceSpec::parse(chaos_spec(true))).run();
  EXPECT_EQ(r.completed, 3);
  for (const ServedJob& j : r.jobs) {
    ASSERT_TRUE(j.completed) << j.name;
    const toast::mpisim::JobResult fresh =
        toast::mpisim::run_benchmark_job(j.config);
    EXPECT_TRUE(toast::serve::results_bitwise_equal(j.result, fresh))
        << j.name;
    // Contention can stretch wall time but never below the standalone
    // runtime.
    EXPECT_GE(j.served_s, j.service_s - 1e-12);
  }
}

}  // namespace
