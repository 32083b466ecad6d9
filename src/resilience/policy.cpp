#include "resilience/policy.hpp"

#include <cfloat>
#include <climits>
#include <utility>

namespace toast::resilience {

using obs::json::Reader;

RetrySpec read_retry(const Reader& parent) {
  RetrySpec r;
  if (const auto v = parent.object("retry", {"max_attempts", "backoff_seconds",
                                             "backoff_multiplier",
                                             "failed_fraction"})) {
    r.max_attempts = v->integer("max_attempts", r.max_attempts, 1, INT_MAX);
    r.backoff_seconds =
        v->number("backoff_seconds", r.backoff_seconds, 0.0, DBL_MAX);
    r.backoff_multiplier =
        v->number("backoff_multiplier", r.backoff_multiplier, 0.0, DBL_MAX);
    r.failed_fraction =
        v->number("failed_fraction", r.failed_fraction, 0.0, 1.0);
  }
  return r;
}

namespace {

constexpr obs::json::Name<Domain> kDomainNames[] = {
    {"solver_comm", Domain::kSolverComm},
    {"collectives", Domain::kCollectives},
};

Policy policy_from_value(const obs::json::Value& doc,
                         const std::string& where) {
  const Reader r(doc, where, "toastcase-resilience-policy-v1",
                 {"sites", "ladders", "elastic"});
  Policy policy;
  r.objects("sites", {"site", "retry", "deadline_seconds", "breaker"},
            [&](const Reader& s) {
              SitePolicy sp;
              sp.site = s.string("site", sp.site);
              sp.has_retry = s.has("retry");
              sp.retry = read_retry(s);
              sp.deadline_seconds = s.number(
                  "deadline_seconds", sp.deadline_seconds, 0.0, DBL_MAX);
              BreakerSpec& b = sp.breaker;
              if (const auto v = s.object("breaker",
                                          {"open_after", "open_seconds",
                                           "close_after", "jitter"})) {
                b.open_after =
                    v->integer("open_after", b.open_after, 0, INT_MAX);
                b.open_seconds =
                    v->number("open_seconds", b.open_seconds, 0.0, DBL_MAX);
                b.close_after =
                    v->integer("close_after", b.close_after, 1, INT_MAX);
                b.jitter = v->number("jitter", b.jitter, 0.0, DBL_MAX);
              }
              policy.sites.push_back(std::move(sp));
            });
  r.objects("ladders", {"domain", "escalate_after", "max_level"},
            [&](const Reader& l) {
              LadderSpec ls;
              ls.domain = l.enumeration("domain", kDomainNames);
              ls.escalate_after =
                  l.integer("escalate_after", ls.escalate_after, 1, INT_MAX);
              ls.max_level = l.integer("max_level", ls.max_level, 0, INT_MAX);
              policy.ladders.push_back(std::move(ls));
            });
  ElasticSpec& e = policy.elastic;
  if (const auto v = r.object("elastic", {"enabled", "min_ranks",
                                          "rebuild_seconds", "requeue"})) {
    e.enabled = v->boolean("enabled", e.enabled);
    e.min_ranks = v->integer("min_ranks", e.min_ranks, 1, INT_MAX);
    e.rebuild_seconds =
        v->number("rebuild_seconds", e.rebuild_seconds, 0.0, DBL_MAX);
    e.requeue = v->boolean("requeue", e.requeue);
  }
  return policy;
}

}  // namespace

const char* to_string(Domain d) { return obs::json::name_of(kDomainNames, d); }

Policy Policy::parse(const std::string& text) {
  return policy_from_value(obs::json::Value::parse(text),
                           "resilience policy");
}

Policy Policy::load_file(const std::string& path) {
  return policy_from_value(obs::json::load_file(path), path);
}

Policy Policy::from_value(const obs::json::Value& doc,
                          const std::string& where) {
  return policy_from_value(doc, where);
}

}  // namespace toast::resilience
