#include "serve/spec.hpp"

#include <cfloat>
#include <climits>
#include <set>
#include <stdexcept>

#include "bench_model/problem.hpp"

namespace toast::serve {

namespace {

using obs::json::Reader;

constexpr obs::json::Name<SchedPolicy> kPolicyNames[] = {
    {"fair_share", SchedPolicy::kFairShare},
    {"priority", SchedPolicy::kPriority}};
constexpr obs::json::Name<mpisim::PipelineRun> kPipelineNames[] = {
    {"staged", mpisim::PipelineRun::kStaged},
    {"overlap", mpisim::PipelineRun::kGraphOverlap}};

TenantSpec tenant_from(const Reader& r) {
  TenantSpec t;
  t.name = r.string("name");
  if (t.name.empty()) {
    r.fail("name", "must not be empty");
  }
  t.share = r.number("share", t.share, 0.0, DBL_MAX);
  if (t.share == 0.0) {
    r.fail("share", "must be > 0");
  }
  t.max_running = r.integer("max_running", t.max_running, 0, INT_MAX);
  t.priority = r.integer("priority", t.priority, INT_MIN, INT_MAX);
  if (const obs::json::Value* f = r.find("faults")) {
    t.faults = fault::FaultPlan::from_value(*f, r.path("faults"));
  }
  if (const obs::json::Value* p = r.find("resilience")) {
    t.resilience = resilience::Policy::from_value(*p, r.path("resilience"));
  }
  return t;
}

JobSpec job_from(const Reader& r) {
  JobSpec j;
  j.name = r.string("name");
  if (j.name.empty()) {
    r.fail("name", "must not be empty");
  }
  j.tenant = r.string("tenant");
  j.workload = r.string("workload", j.workload);
  workload_problem(j.workload);  // validates the class name
  j.backend = r.string("backend", j.backend);
  j.has_priority = r.has("priority");
  j.priority = r.integer("priority", j.priority, INT_MIN, INT_MAX);
  j.submit_s = r.number("submit_s", j.submit_s, 0.0, DBL_MAX);
  j.seed = r.integer("seed", j.seed, 0, obs::json::kMaxExactInteger);
  j.map_iterations =
      r.integer("map_iterations", j.map_iterations, 0, INT_MAX);
  j.tuned = r.boolean("tuned", j.tuned);
  j.pipeline = r.enumeration("pipeline", kPipelineNames, j.pipeline);
  if (const obs::json::Value* s = r.find("schedule")) {
    if (!j.backend.empty()) {
      r.fail("schedule",
             "and 'backend' are mutually exclusive (the schedule carries "
             "its own backend slot)");
    }
    j.schedule = config::ScheduleConfig::from_value(*s, r.path("schedule"));
    j.has_schedule = true;
  }
  return j;
}

}  // namespace

const char* to_string(SchedPolicy p) {
  return obs::json::name_of(kPolicyNames, p);
}

int ServiceSpec::tenant_index(const std::string& name) const {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ServiceSpec ServiceSpec::from_value(const obs::json::Value& doc,
                                    const std::string& where) {
  const Reader r(doc, where, "toastcase-serve-v1",
                 {"policy", "schedule_library", "fleet", "tenants", "jobs"});
  ServiceSpec spec;
  spec.policy = r.enumeration("policy", kPolicyNames, spec.policy);
  spec.schedule_library =
      r.string("schedule_library", spec.schedule_library);
  if (const auto f = r.object("fleet", {"nodes", "gpus_per_node"})) {
    spec.fleet.nodes = f->integer("nodes", spec.fleet.nodes, 1, INT_MAX);
    spec.fleet.gpus_per_node =
        f->integer("gpus_per_node", spec.fleet.gpus_per_node, 1, INT_MAX);
  }
  std::set<std::string> names;
  const std::size_t n_tenants = r.objects(
      "tenants",
      {"name", "share", "max_running", "priority", "faults", "resilience"},
      [&](const Reader& t) {
        TenantSpec tenant = tenant_from(t);
        if (!names.insert(tenant.name).second) {
          t.fail("name", "duplicates tenant '" + tenant.name + "'");
        }
        spec.tenants.push_back(std::move(tenant));
      });
  if (n_tenants == 0) {
    r.fail("tenants", "must be a non-empty array");
  }
  std::set<std::string> job_names;
  const std::size_t n_jobs = r.objects(
      "jobs",
      {"name", "tenant", "workload", "backend", "priority", "submit_s",
       "seed", "map_iterations", "tuned", "schedule", "pipeline"},
      [&](const Reader& jr) {
        JobSpec job = job_from(jr);
        if (spec.tenant_index(job.tenant) < 0) {
          jr.fail("tenant", "names an unknown tenant '" + job.tenant + "'");
        }
        if (!job_names.insert(job.name).second) {
          jr.fail("name", "duplicates job '" + job.name + "'");
        }
        spec.jobs.push_back(std::move(job));
      });
  if (n_jobs == 0) {
    r.fail("jobs", "must be a non-empty array");
  }
  return spec;
}

ServiceSpec ServiceSpec::parse(const std::string& text) {
  return from_value(obs::json::Value::parse(text), "serve spec");
}

ServiceSpec ServiceSpec::load_file(const std::string& path) {
  return from_value(obs::json::load_file(path), path);
}

bench_model::ProblemSize workload_problem(const std::string& name) {
  if (name == "tiny") {
    return bench_model::tiny_problem();
  }
  if (name == "medium") {
    return bench_model::medium_problem();
  }
  if (name == "large") {
    return bench_model::large_problem();
  }
  throw std::runtime_error("serve: unknown workload '" + name +
                           "' (expected tiny|medium|large)");
}

}  // namespace toast::serve
