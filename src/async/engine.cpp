#include "async/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace toast::async {

Engine::Engine(accel::VirtualClock& clock, obs::Tracer* tracer, Options opt)
    : clock_(clock), tracer_(tracer), opt_(opt) {}

int Engine::lane(const std::string& name) {
  for (std::size_t i = 0; i < lane_names_.size(); ++i) {
    if (lane_names_[i] == name) {
      return static_cast<int>(i);
    }
  }
  const int id = static_cast<int>(lane_names_.size());
  lane_names_.push_back(name);
  lane_ready_.push_back(clock_.now());
  if (tracer_ != nullptr) {
    tracer_->set_stream_name(kLaneStreamBase + id, "async:" + name);
  }
  return id;
}

Future Engine::submit(int lane, const std::string& name,
                      const std::string& category, const CostFn& cost,
                      const std::vector<Future>& deps) {
  if (lane < 0 || static_cast<std::size_t>(lane) >= lane_names_.size()) {
    throw std::invalid_argument("async::Engine::submit: unknown lane");
  }
  const int id = static_cast<int>(submitted_ends_.size());
  if (opt_.mode == Mode::kSerial) {
    // Bitwise oracle: identical to the blocking call it replaces
    // (advance then record, like ExecContext::charge_serial).
    const double t = cost(clock_.now());
    clock_.advance(t);
    if (tracer_ != nullptr) {
      tracer_->record(name, category, t);
    }
    const double end = clock_.now();
    lane_ready_[static_cast<std::size_t>(lane)] = end;
    submitted_ends_.push_back(end);
    return Future{id, end};
  }
  // Overlap: place on the lane without advancing the caller's clock.
  double start = clock_.now();
  for (const Future& d : deps) {
    if (d.valid()) {
      start = std::max(start, d.ready);
    }
  }
  start = std::max(start, lane_ready_[static_cast<std::size_t>(lane)]);
  const double t = cost(start);
  const double end = start + t;
  lane_ready_[static_cast<std::size_t>(lane)] = end;
  submitted_ends_.push_back(end);
  if (tracer_ != nullptr) {
    const obs::SpanId span =
        tracer_->record_at(name, category, start, t, {}, nullptr,
                           /*logged=*/true);
    tracer_->set_stream(span, kLaneStreamBase + lane);
  }
  return Future{id, end};
}

double Engine::await(const Future& f, const std::string& label) {
  if (!f.valid()) {
    return 0.0;
  }
  const double slack = f.ready - clock_.now();
  if (slack <= 0.0) {
    return 0.0;
  }
  clock_.advance(slack);
  if (tracer_ != nullptr) {
    tracer_->record(label, "wait", slack);
  }
  return slack;
}

double Engine::drain(const std::string& label) {
  double ready = clock_.now();
  for (double r : lane_ready_) {
    ready = std::max(ready, r);
  }
  const double slack = ready - clock_.now();
  if (slack <= 0.0) {
    return 0.0;
  }
  clock_.advance(slack);
  if (tracer_ != nullptr) {
    tracer_->record(label, "wait", slack);
  }
  return slack;
}

int Engine::cancel_pending(const std::string& label) {
  const double now = clock_.now();
  int n = 0;
  for (double& end : submitted_ends_) {
    if (end > now) {
      ++n;
      end = now;
    }
  }
  for (double& r : lane_ready_) {
    r = std::min(r, now);
  }
  if (n > 0 && tracer_ != nullptr) {
    const obs::SpanId id = tracer_->record(label, "resilience", 0.0);
    tracer_->add_counter(id, "tasks", n);
  }
  return n;
}

int Engine::pending_count() const {
  const double now = clock_.now();
  int n = 0;
  for (double end : submitted_ends_) {
    if (end > now) {
      ++n;
    }
  }
  return n;
}

}  // namespace toast::async
