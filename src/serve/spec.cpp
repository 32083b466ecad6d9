#include "serve/spec.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_model/problem.hpp"

namespace toast::serve {

namespace {

using obs::json::Value;

void reject_unknown_keys(const Value& v, const std::string& where,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, _] : v.object) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(where + ": unknown key '" + key + "'");
    }
  }
}

std::string string_at(const Value& v, const std::string& key,
                      const std::string& where) {
  const Value* m = v.find(key);
  if (m == nullptr || !m->is_string()) {
    throw std::runtime_error(where + ": '" + key + "' must be a string");
  }
  return m->string;
}

std::string string_or(const Value& v, const std::string& key,
                      const std::string& fallback, const std::string& where) {
  if (v.find(key) == nullptr) {
    return fallback;
  }
  return string_at(v, key, where);
}

double number_at(const Value& v, const std::string& key,
                 const std::string& where) {
  const Value* m = v.find(key);
  if (m == nullptr || !m->is_number()) {
    throw std::runtime_error(where + ": '" + key + "' must be a number");
  }
  return m->number;
}

double number_or(const Value& v, const std::string& key, double fallback,
                 const std::string& where) {
  if (v.find(key) == nullptr) {
    return fallback;
  }
  return number_at(v, key, where);
}

int int_or(const Value& v, const std::string& key, int fallback,
           const std::string& where) {
  return static_cast<int>(
      number_or(v, key, static_cast<double>(fallback), where));
}

bool bool_or(const Value& v, const std::string& key, bool fallback,
             const std::string& where) {
  const Value* m = v.find(key);
  if (m == nullptr) {
    return fallback;
  }
  if (m->type != Value::Type::kBool) {
    throw std::runtime_error(where + ": '" + key + "' must be a boolean");
  }
  return m->boolean;
}

FleetSpec fleet_from_value(const Value& v, const std::string& where) {
  if (!v.is_object()) {
    throw std::runtime_error(where + ": must be an object");
  }
  reject_unknown_keys(v, where, {"nodes", "gpus_per_node"});
  FleetSpec fleet;
  fleet.nodes = int_or(v, "nodes", fleet.nodes, where);
  fleet.gpus_per_node = int_or(v, "gpus_per_node", fleet.gpus_per_node, where);
  if (fleet.nodes < 1) {
    throw std::runtime_error(where + ": 'nodes' must be >= 1");
  }
  if (fleet.gpus_per_node < 1) {
    throw std::runtime_error(where + ": 'gpus_per_node' must be >= 1");
  }
  return fleet;
}

TenantSpec tenant_from_value(const Value& v, const std::string& where) {
  if (!v.is_object()) {
    throw std::runtime_error(where + ": tenant must be an object");
  }
  reject_unknown_keys(v, where,
                      {"name", "share", "max_running", "priority", "faults",
                       "resilience"});
  TenantSpec t;
  t.name = string_at(v, "name", where);
  if (t.name.empty()) {
    throw std::runtime_error(where + ": 'name' must not be empty");
  }
  t.share = number_or(v, "share", t.share, where);
  if (!(t.share > 0.0)) {
    throw std::runtime_error(where + ": 'share' must be > 0");
  }
  t.max_running = int_or(v, "max_running", t.max_running, where);
  if (t.max_running < 0) {
    throw std::runtime_error(where + ": 'max_running' must be >= 0");
  }
  t.priority = int_or(v, "priority", t.priority, where);
  if (const Value* f = v.find("faults")) {
    t.faults = fault::FaultPlan::from_value(*f, where + ".faults");
  }
  if (const Value* r = v.find("resilience")) {
    t.resilience =
        resilience::Policy::from_value(*r, where + ".resilience");
  }
  return t;
}

mpisim::PipelineRun pipeline_from_string(const std::string& s,
                                         const std::string& where) {
  if (s == "staged") {
    return mpisim::PipelineRun::kStaged;
  }
  if (s == "overlap") {
    return mpisim::PipelineRun::kGraphOverlap;
  }
  throw std::runtime_error(where + ": 'pipeline' must be staged|overlap, got '" +
                           s + "'");
}

JobSpec job_from_value(const Value& v, const std::string& where) {
  if (!v.is_object()) {
    throw std::runtime_error(where + ": job must be an object");
  }
  reject_unknown_keys(v, where,
                      {"name", "tenant", "workload", "backend", "priority",
                       "submit_s", "seed", "map_iterations", "tuned",
                       "schedule", "pipeline"});
  JobSpec j;
  j.name = string_at(v, "name", where);
  if (j.name.empty()) {
    throw std::runtime_error(where + ": 'name' must not be empty");
  }
  j.tenant = string_at(v, "tenant", where);
  j.workload = string_or(v, "workload", j.workload, where);
  workload_problem(j.workload);  // validates the class name
  j.backend = string_or(v, "backend", "", where);
  if (v.find("priority") != nullptr) {
    j.priority = int_or(v, "priority", 0, where);
    j.has_priority = true;
  }
  j.submit_s = number_or(v, "submit_s", 0.0, where);
  if (j.submit_s < 0.0) {
    throw std::runtime_error(where + ": 'submit_s' must be >= 0");
  }
  j.seed = static_cast<std::uint64_t>(
      number_or(v, "seed", static_cast<double>(j.seed), where));
  j.map_iterations = int_or(v, "map_iterations", 0, where);
  if (j.map_iterations < 0) {
    throw std::runtime_error(where + ": 'map_iterations' must be >= 0");
  }
  j.tuned = bool_or(v, "tuned", false, where);
  j.pipeline = pipeline_from_string(string_or(v, "pipeline", "staged", where),
                                    where);
  if (const Value* s = v.find("schedule")) {
    if (!j.backend.empty()) {
      throw std::runtime_error(
          where + ": 'backend' and 'schedule' are mutually exclusive "
                  "(the schedule carries its own backend slot)");
    }
    j.schedule = config::ScheduleConfig::from_value(*s, where + ".schedule");
    j.has_schedule = true;
  }
  return j;
}

}  // namespace

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFairShare:
      return "fair_share";
    case SchedPolicy::kPriority:
      return "priority";
  }
  return "fair_share";
}

SchedPolicy sched_policy_from_string(const std::string& s) {
  if (s == "fair_share") {
    return SchedPolicy::kFairShare;
  }
  if (s == "priority") {
    return SchedPolicy::kPriority;
  }
  throw std::runtime_error("serve: unknown policy '" + s +
                           "' (expected fair_share|priority)");
}

int ServiceSpec::tenant_index(const std::string& name) const {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ServiceSpec ServiceSpec::from_value(const Value& doc,
                                    const std::string& where) {
  if (!doc.is_object()) {
    throw std::runtime_error(where + ": must be an object");
  }
  const Value* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "toastcase-serve-v1") {
    throw std::runtime_error(where + ": expected schema toastcase-serve-v1");
  }
  reject_unknown_keys(doc, where,
                      {"schema", "policy", "schedule_library", "fleet",
                       "tenants", "jobs"});
  ServiceSpec spec;
  spec.policy = sched_policy_from_string(
      string_or(doc, "policy", "fair_share", where));
  spec.schedule_library = string_or(doc, "schedule_library", "", where);
  if (const Value* f = doc.find("fleet")) {
    spec.fleet = fleet_from_value(*f, where + ".fleet");
  }

  const Value* tenants = doc.find("tenants");
  if (tenants == nullptr || !tenants->is_array() || tenants->array.empty()) {
    throw std::runtime_error(where +
                             ": 'tenants' must be a non-empty array");
  }
  std::set<std::string> names;
  int i = 0;
  for (const Value& t : tenants->array) {
    const std::string tw = where + ".tenants[" + std::to_string(i++) + "]";
    TenantSpec tenant = tenant_from_value(t, tw);
    if (!names.insert(tenant.name).second) {
      throw std::runtime_error(tw + ": duplicate tenant '" + tenant.name +
                               "'");
    }
    spec.tenants.push_back(std::move(tenant));
  }

  const Value* jobs = doc.find("jobs");
  if (jobs == nullptr || !jobs->is_array() || jobs->array.empty()) {
    throw std::runtime_error(where + ": 'jobs' must be a non-empty array");
  }
  std::set<std::string> job_names;
  i = 0;
  for (const Value& jv : jobs->array) {
    const std::string jw = where + ".jobs[" + std::to_string(i++) + "]";
    JobSpec job = job_from_value(jv, jw);
    if (spec.tenant_index(job.tenant) < 0) {
      throw std::runtime_error(jw + ": unknown tenant '" + job.tenant + "'");
    }
    if (!job_names.insert(job.name).second) {
      throw std::runtime_error(jw + ": duplicate job '" + job.name + "'");
    }
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

ServiceSpec ServiceSpec::parse(const std::string& text) {
  return from_value(Value::parse(text), "serve spec");
}

ServiceSpec ServiceSpec::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("serve spec: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
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
