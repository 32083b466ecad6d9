#include "fault/fault.hpp"

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <utility>

#include "obs/json.hpp"
#include "resilience/manager.hpp"

namespace toast::fault {

namespace {

// Counter-based RNG: hash the (seed, kind, site, visit-counter) tuple to
// a uniform double.  No stateful engine means the draw for a given site
// visit is independent of what any other hook drew before it.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double uniform01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

namespace {

constexpr obs::json::Name<FaultKind> kKindNames[] = {
    {"transfer", FaultKind::kTransfer},    {"launch", FaultKind::kLaunch},
    {"oom", FaultKind::kDeviceOom},        {"straggler", FaultKind::kStraggler},
    {"rank", FaultKind::kRankFailure},     {"link", FaultKind::kLinkDegrade},
    {"chunk", FaultKind::kChunkLoss}};

}  // namespace

const char* to_string(FaultKind k) { return obs::json::name_of(kKindNames, k); }

FaultKind kind_from_string(const std::string& s) {
  for (const auto& [name, kind] : kKindNames) {
    if (s == name) {
      return kind;
    }
  }
  throw std::runtime_error("unknown fault kind: " + s);
}

namespace {

FaultPlan plan_from_value(const obs::json::Value& doc,
                          const std::string& where) {
  const obs::json::Reader r(doc, where, "toastcase-fault-plan-v1",
                            {"seed", "retry", "rules"});
  FaultPlan plan;
  plan.seed = r.integer("seed", plan.seed, 0, obs::json::kMaxExactInteger);
  plan.retry = resilience::read_retry(r);
  r.objects("rules",
            {"kind", "site", "probability", "max_fires", "factor",
             "pressure_threshold"},
            [&](const obs::json::Reader& e) {
              FaultRule rule;
              rule.kind = e.enumeration("kind", kKindNames);
              rule.site = e.string("site", rule.site);
              rule.probability =
                  e.number("probability", rule.probability, 0.0, 1.0);
              rule.max_fires =
                  e.integer("max_fires", rule.max_fires, -1, INT_MAX);
              rule.factor = e.number("factor", rule.factor, 0.0, DBL_MAX);
              rule.pressure_threshold = e.number(
                  "pressure_threshold", rule.pressure_threshold, 0.0, DBL_MAX);
              plan.rules.push_back(std::move(rule));
            });
  return plan;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  return plan_from_value(obs::json::Value::parse(text), "fault plan");
}

FaultPlan FaultPlan::load_file(const std::string& path) {
  return plan_from_value(obs::json::load_file(path), path);
}

FaultPlan FaultPlan::from_value(const obs::json::Value& doc,
                                const std::string& where) {
  return plan_from_value(doc, where);
}

PersistentFaultError::PersistentFaultError(FaultKind kind, std::string site,
                                           int failures)
    : std::runtime_error("persistent " + std::string(to_string(kind)) +
                         " fault at " + site + " after " +
                         std::to_string(failures) + " attempts"),
      kind_(kind),
      site_(std::move(site)),
      failures_(failures) {}

FaultInjector::FaultInjector(FaultPlan plan, accel::VirtualClock* clock,
                             obs::Tracer* tracer)
    : plan_(std::move(plan)),
      clock_(clock),
      tracer_(tracer),
      armed_(!plan_.rules.empty()),
      rule_fires_(plan_.rules.size(), 0) {}

double FaultInjector::draw(FaultKind kind, const std::string& site) {
  const std::string key = std::string(to_string(kind)) + "@" + site;
  const std::uint64_t n = draw_counts_[key]++;
  const std::uint64_t h =
      splitmix64(plan_.seed ^ splitmix64(static_cast<std::uint64_t>(kind) + 1) ^
                 fnv1a(key) ^ splitmix64(n));
  return uniform01(h);
}

int FaultInjector::match(FaultKind kind, const std::string& site) {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& r = plan_.rules[i];
    if (r.kind != kind || r.probability <= 0.0) {
      continue;
    }
    if (!r.site.empty() && site.find(r.site) == std::string::npos) {
      continue;
    }
    if (r.max_fires >= 0 && rule_fires_[i] >= r.max_fires) {
      continue;
    }
    return static_cast<int>(i);
  }
  return -1;
}

namespace {

double backoff_of(const resilience::RetrySpec& rp, int attempt) {
  return rp.backoff_seconds * std::pow(rp.backoff_multiplier, attempt);
}

}  // namespace

double FaultInjector::backoff(int attempt) const {
  return backoff_of(plan_.retry, attempt);
}

resilience::RetrySpec FaultInjector::retry_for(const std::string& site) const {
  return resilience_ != nullptr && resilience_->armed()
             ? resilience_->retry_for(site, plan_.retry)
             : plan_.retry;
}

int FaultInjector::attempt_sync(FaultKind kind, const std::string& site,
                                double op_seconds) {
  if (!armed_) {
    return 0;
  }
  ProbeResult r = probe(kind, site, op_seconds);
  if (r.failures > 0) {
    if (clock_ != nullptr) {
      clock_->advance(r.penalty);
    }
    if (tracer_ != nullptr) {
      const obs::SpanId id =
          tracer_->record(std::string("fault_retry_") + to_string(kind),
                          "fault", r.penalty);
      tracer_->add_counter(id, "failures", r.failures);
    }
    add_count(std::string("fault_") + to_string(kind) + "_retries",
              r.failures);
  }
  // A breaker fast-fail is persistent with zero failures (no attempts,
  // no penalty) — it must still throw, not silently run the op.
  if (r.persistent) {
    add_count("fault_persistent");
    throw PersistentFaultError(kind, site, r.failures);
  }
  return r.failures;
}

ProbeResult FaultInjector::probe(FaultKind kind, const std::string& site,
                                 double op_seconds) {
  ProbeResult result;
  if (!armed_) {
    return result;
  }
  const bool managed = resilience_ != nullptr && resilience_->armed();
  if (managed && !resilience_->admit(site)) {
    // Breaker open: fail fast without attempting (zero penalty, zero
    // draws — the cool-down is virtual-clock time, not retry work).
    result.persistent = true;
    return result;
  }
  const resilience::RetrySpec rp = managed ? retry_for(site) : plan_.retry;
  const double deadline = managed ? resilience_->deadline_for(site) : 0.0;
  const int max_attempts = std::max(1, rp.max_attempts);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const int rule = match(kind, site);
    if (rule < 0) {
      if (managed) {
        resilience_->on_success(site);
      }
      return result;
    }
    if (draw(kind, site) >= plan_.rules[rule].probability) {
      if (managed) {
        resilience_->on_success(site);
      }
      return result;
    }
    ++rule_fires_[rule];
    ++result.failures;
    result.penalty += rp.failed_fraction * op_seconds + backoff_of(rp, attempt);
    if (managed) {
      resilience_->on_failure(site);
    }
    if (deadline > 0.0 && result.penalty >= deadline) {
      result.persistent = true;
      resilience_->note_deadline_exceeded(site, result.penalty);
      return result;
    }
  }
  result.persistent = true;
  return result;
}

double FaultInjector::straggler_factor(const std::string& site) {
  if (!armed_) {
    return 1.0;
  }
  const int rule = match(FaultKind::kStraggler, site);
  if (rule < 0) {
    return 1.0;
  }
  if (draw(FaultKind::kStraggler, site) >= plan_.rules[rule].probability) {
    return 1.0;
  }
  ++rule_fires_[rule];
  add_count("fault_stragglers");
  return std::max(1.0, plan_.rules[rule].factor);
}

double FaultInjector::link_degrade_factor(const std::string& site) {
  if (!armed_) {
    return 1.0;
  }
  const int rule = match(FaultKind::kLinkDegrade, site);
  if (rule < 0) {
    return 1.0;
  }
  if (draw(FaultKind::kLinkDegrade, site) >= plan_.rules[rule].probability) {
    return 1.0;
  }
  ++rule_fires_[rule];
  add_count("fault_link_degrades");
  return std::max(1.0, plan_.rules[rule].factor);
}

ProbeResult FaultInjector::chunk_loss(const std::string& site,
                                      double op_seconds) {
  return probe(FaultKind::kChunkLoss, site, op_seconds);
}

bool FaultInjector::rank_failure(const std::string& site) {
  if (!armed_) {
    return false;
  }
  const int rule = match(FaultKind::kRankFailure, site);
  if (rule < 0) {
    return false;
  }
  if (draw(FaultKind::kRankFailure, site) >= plan_.rules[rule].probability) {
    return false;
  }
  ++rule_fires_[rule];
  add_count("fault_rank_failures");
  return true;
}

bool FaultInjector::oom_should_fire(const char* site, std::size_t requested,
                                    std::size_t in_use,
                                    std::size_t capacity) {
  if (!armed_) {
    return false;
  }
  const std::string site_name = site != nullptr ? site : "";
  const int rule = match(FaultKind::kDeviceOom, site_name);
  if (rule < 0) {
    return false;
  }
  const double pressure =
      capacity > 0
          ? static_cast<double>(in_use + requested) /
                static_cast<double>(capacity)
          : 1.0;
  if (pressure < plan_.rules[rule].pressure_threshold) {
    return false;
  }
  if (draw(FaultKind::kDeviceOom, site_name) >=
      plan_.rules[rule].probability) {
    return false;
  }
  ++rule_fires_[rule];
  add_count("fault_oom_injected");
  return true;
}

bool FaultInjector::on_oom(const std::string& site,
                           const accel::DeviceOomError& e, int attempt) {
  if (!armed_ || !e.info().injected) {
    return false;  // real capacity overflow: retry is pointless
  }
  const resilience::RetrySpec rp = retry_for(site);
  if (attempt + 1 >= std::max(1, rp.max_attempts)) {
    add_count("fault_persistent");
    return false;
  }
  const double penalty = backoff_of(rp, attempt);
  if (clock_ != nullptr) {
    clock_->advance(penalty);
  }
  if (tracer_ != nullptr) {
    const obs::SpanId id = tracer_->record("fault_retry_oom", "fault", penalty);
    tracer_->add_counter(id, "site_" + site, 1.0);
  }
  add_count("fault_oom_retries");
  return true;
}

void FaultInjector::note_fallback(const std::string& kernel,
                                  const std::string& reason) {
  mark_degraded(kernel);
  add_count("fault_fallbacks");
  if (tracer_ != nullptr) {
    const obs::SpanId id = tracer_->record("fault_fallback", "fault", 0.0);
    tracer_->add_counter(id, "kernel_" + kernel, 1.0);
    tracer_->add_counter(id, "reason_" + reason, 1.0);
  }
}

void FaultInjector::note_replan(const std::string& kernel) {
  if (!armed_) {
    return;
  }
  add_count("fault_plan_replans");
  if (tracer_ != nullptr && clock_ != nullptr) {
    const obs::SpanId id =
        tracer_->record_at("fault_plan_replan", "fault", clock_->now(), 0.0,
                           /*backend=*/{}, nullptr, /*logged=*/false);
    tracer_->add_counter(id, "kernel_" + kernel, 1.0);
  }
}

void FaultInjector::note_oom_recovery(const std::string& site,
                                      double seconds) {
  add_count("fault_oom_recoveries");
  if (clock_ != nullptr) {
    clock_->advance(seconds);
  }
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("fault_oom_recovery", "fault", seconds);
    tracer_->add_counter(id, "site_" + site, 1.0);
  }
}

void FaultInjector::note_checkpoint_restore(const std::string& site,
                                            int iteration) {
  add_count("fault_checkpoint_restores");
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("fault_checkpoint_restore", "fault", 0.0);
    tracer_->add_counter(id, "site_" + site, 1.0);
    tracer_->add_counter(id, "iteration", iteration);
  }
}

void FaultInjector::note_straggler(const std::string& site, double start,
                                   double extra_seconds) {
  if (tracer_ != nullptr) {
    const obs::SpanId id = tracer_->record_at("fault_straggler", "fault",
                                              start, extra_seconds);
    tracer_->add_counter(id, "site_" + site, 1.0);
  }
}

void FaultInjector::note_async_retries(FaultKind kind,
                                       const std::string& site, double start,
                                       const ProbeResult& r) {
  if (r.failures == 0) {
    return;
  }
  add_count(std::string("fault_") + to_string(kind) + "_retries",
            r.failures);
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record_at(std::string("fault_retry_") + to_string(kind),
                           "fault", start, r.penalty);
    tracer_->add_counter(id, "failures", r.failures);
    tracer_->add_counter(id, "site_" + site, 1.0);
  }
  if (r.persistent) {
    add_count("fault_persistent");
  }
}

void FaultInjector::note_task_requeue(const std::string& site, int count) {
  if (count <= 0) {
    return;
  }
  add_count("fault_task_requeues", count);
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("fault_task_requeue", "fault", 0.0);
    tracer_->add_counter(id, "site_" + site, 1.0);
    tracer_->add_counter(id, "tasks", count);
  }
}

}  // namespace toast::fault
