#include "resilience/manager.hpp"

#include <algorithm>
#include <utility>

namespace toast::resilience {

namespace {

// Same counter-based RNG family as the fault injector (fault.cpp): the
// breaker jitter draw is keyed on (fault seed, site, trip count) so it
// never perturbs the injector's own draw streams and repeats bitwise.
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

Manager::Manager(Policy policy, accel::VirtualClock* clock,
                 obs::Tracer* tracer, std::uint64_t seed)
    : policy_(std::move(policy)),
      clock_(clock),
      tracer_(tracer),
      seed_(seed),
      armed_(!policy_.empty()),
      breakers_(policy_.sites.size()) {}

int Manager::site_index(const std::string& site) const {
  if (!armed_) {
    return -1;
  }
  for (std::size_t i = 0; i < policy_.sites.size(); ++i) {
    const SitePolicy& sp = policy_.sites[i];
    if (sp.site.empty() || site.find(sp.site) != std::string::npos) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const SitePolicy* Manager::site_for(const std::string& site) const {
  const int i = site_index(site);
  return i < 0 ? nullptr : &policy_.sites[static_cast<std::size_t>(i)];
}

RetrySpec Manager::retry_for(const std::string& site,
                             const RetrySpec& fallback) const {
  const SitePolicy* sp = site_for(site);
  return sp != nullptr && sp->has_retry ? sp->retry : fallback;
}

double Manager::deadline_for(const std::string& site) const {
  const SitePolicy* sp = site_for(site);
  return sp != nullptr ? sp->deadline_seconds : 0.0;
}

Manager::Breaker* Manager::breaker_for(const std::string& site, int* entry) {
  const int i = site_index(site);
  if (i < 0 ||
      policy_.sites[static_cast<std::size_t>(i)].breaker.open_after <= 0) {
    return nullptr;
  }
  if (entry != nullptr) {
    *entry = i;
  }
  return &breakers_[static_cast<std::size_t>(i)][site];
}

void Manager::note(const std::string& name, const std::string& site,
                   double seconds, const std::string& counter_key,
                   double counter_value) {
  add_count(counter_key, counter_value);
  if (tracer_ != nullptr) {
    const obs::SpanId id = tracer_->record(name, "resilience", seconds);
    tracer_->add_counter(id, "site_" + site, 1.0);
  }
}

void Manager::open_breaker(Breaker& b, const std::string& site) {
  const BreakerSpec& spec = site_for(site)->breaker;
  double window = spec.open_seconds;
  if (spec.jitter > 0.0) {
    const double u = uniform01(
        splitmix64(seed_ ^ fnv1a("breaker@" + site) ^
                   splitmix64(static_cast<std::uint64_t>(b.trips))));
    window *= 1.0 + spec.jitter * u;
  }
  b.state = BreakerState::kOpen;
  b.open_until = (clock_ != nullptr ? clock_->now() : 0.0) + window;
  b.consecutive_failures = 0;
  b.half_open_successes = 0;
  ++b.trips;
  note("resilience_breaker_open", site, 0.0, "resilience_breaker_opens");
}

bool Manager::admit(const std::string& site) {
  Breaker* b = breaker_for(site);
  if (b == nullptr) {
    return true;
  }
  if (b->state == BreakerState::kOpen) {
    const double now = clock_ != nullptr ? clock_->now() : 0.0;
    if (now < b->open_until) {
      note("resilience_breaker_fast_fail", site, 0.0,
           "resilience_breaker_fast_fails");
      return false;
    }
    b->state = BreakerState::kHalfOpen;
    b->half_open_successes = 0;
    note("resilience_breaker_half_open", site, 0.0,
         "resilience_breaker_half_opens");
  }
  return true;
}

void Manager::on_failure(const std::string& site) {
  Breaker* b = breaker_for(site);
  if (b == nullptr) {
    return;
  }
  if (b->state == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open with a fresh window.
    open_breaker(*b, site);
    return;
  }
  if (b->state == BreakerState::kClosed) {
    ++b->consecutive_failures;
    if (b->consecutive_failures >= site_for(site)->breaker.open_after) {
      open_breaker(*b, site);
    }
  }
}

void Manager::on_success(const std::string& site) {
  Breaker* b = breaker_for(site);
  if (b == nullptr) {
    return;
  }
  if (b->state == BreakerState::kHalfOpen) {
    ++b->half_open_successes;
    if (b->half_open_successes >=
        std::max(1, site_for(site)->breaker.close_after)) {
      b->state = BreakerState::kClosed;
      b->consecutive_failures = 0;
      b->half_open_successes = 0;
      note("resilience_breaker_close", site, 0.0,
           "resilience_breaker_closes");
    }
    return;
  }
  b->consecutive_failures = 0;
}

void Manager::note_deadline_exceeded(const std::string& site, double spent) {
  add_count("resilience_deadline_exceeded");
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("resilience_deadline_exceeded", "resilience", 0.0);
    tracer_->add_counter(id, "site_" + site, 1.0);
    tracer_->add_counter(id, "spent_s", spent);
  }
}

BreakerState Manager::breaker_state(const std::string& site) const {
  const int i = site_index(site);
  if (i < 0) {
    return BreakerState::kClosed;
  }
  const auto& per_site = breakers_[static_cast<std::size_t>(i)];
  const auto it = per_site.find(site);
  return it == per_site.end() ? BreakerState::kClosed : it->second.state;
}

int Manager::level(Domain domain) const {
  if (!armed_) {
    return 0;
  }
  const auto it = ladder_levels_.find(domain);
  return it == ladder_levels_.end() ? 0 : it->second;
}

void Manager::report_fault(Domain domain, const std::string& why) {
  if (!armed_) {
    return;
  }
  const LadderSpec* spec = nullptr;
  for (const LadderSpec& l : policy_.ladders) {
    if (l.domain == domain) {
      spec = &l;
      break;
    }
  }
  if (spec == nullptr) {
    return;
  }
  const int faults = ++ladder_faults_[domain];
  const int target = std::min(
      spec->max_level, faults / std::max(1, spec->escalate_after));
  int& level = ladder_levels_[domain];
  if (target <= level) {
    return;
  }
  level = target;
  add_count("resilience_degrades");
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("resilience_degrade", "resilience", 0.0);
    tracer_->add_counter(id, std::string("domain_") + to_string(domain),
                         1.0);
    tracer_->add_counter(id, "level", level);
    tracer_->add_counter(id, "why_" + why, 1.0);
  }
}

void Manager::note_world_shrink(const std::string& site, int from, int to) {
  const double cost = std::max(0.0, policy_.elastic.rebuild_seconds);
  if (clock_ != nullptr) {
    clock_->advance(cost);
  }
  add_count("resilience_world_shrinks");
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("resilience_world_shrink", "resilience", cost);
    tracer_->add_counter(id, "site_" + site, 1.0);
    tracer_->add_counter(id, "from_ranks", from);
    tracer_->add_counter(id, "to_ranks", to);
  }
}

void Manager::note_redistribute(const std::string& site, double seconds,
                                int observations) {
  if (clock_ != nullptr) {
    clock_->advance(seconds);
  }
  add_count("resilience_redistributed_obs", observations);
  if (tracer_ != nullptr) {
    const obs::SpanId id =
        tracer_->record("resilience_redistribute", "resilience", seconds);
    tracer_->add_counter(id, "site_" + site, 1.0);
    tracer_->add_counter(id, "observations", observations);
  }
}

void Manager::note_requeue(const std::string& site, int count) {
  if (count <= 0) {
    return;
  }
  note("resilience_task_requeue", site, 0.0, "resilience_task_requeues",
       count);
  if (tracer_ != nullptr) {
    // The span above carries the site; tasks ride as a separate counter
    // on a dedicated span would be noise — attach to the latest note.
  }
}

}  // namespace toast::resilience
