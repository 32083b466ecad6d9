#include "omptarget/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace toast::omptarget {

void Runtime::data_create(const void* host, std::size_t bytes) {
  if (mapped_.count(host) != 0) {
    throw std::logic_error("omptarget: buffer already mapped");
  }
  double alloc_cost = 0.0;
  Mapping m;
  m.dptr = pool_.allocate(bytes, alloc_cost);
  m.shadow.resize(bytes);
  mapped_.emplace(host, std::move(m));
  clock_.advance(alloc_cost);
  tracer_.record("accel_data_create", "alloc", alloc_cost, "omptarget");
}

void Runtime::data_update_device(const void* host) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error("omptarget: update_device on unmapped buffer");
  }
  std::memcpy(it->second.shadow.data(), host, it->second.shadow.size());
  const double bytes =
      static_cast<double>(it->second.shadow.size()) * work_scale_;
  sched_.transfer_sync("accel_data_update_device", bytes,
                       /*to_device=*/true);
}

void Runtime::data_update_device_async(const void* host,
                                       sched::StreamId stream) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error("omptarget: async update on unmapped buffer");
  }
  std::memcpy(it->second.shadow.data(), host, it->second.shadow.size());
  const double bytes =
      static_cast<double>(it->second.shadow.size()) * work_scale_;
  sched_.transfer_async(stream, "accel_data_update_device_async", bytes,
                        /*to_device=*/true);
}

void Runtime::wait_transfers() {
  sched_.sync_transfers("accel_transfer_wait");
}

void Runtime::data_update_host(const void* host) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error("omptarget: update_host on unmapped buffer");
  }
  std::memcpy(const_cast<void*>(host), it->second.shadow.data(),
              it->second.shadow.size());
  const double bytes =
      static_cast<double>(it->second.shadow.size()) * work_scale_;
  sched_.transfer_sync("accel_data_update_host", bytes,
                       /*to_device=*/false);
}

void Runtime::data_update_host_async(const void* host,
                                     sched::StreamId stream) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error("omptarget: async update on unmapped buffer");
  }
  std::memcpy(const_cast<void*>(host), it->second.shadow.data(),
              it->second.shadow.size());
  const double bytes =
      static_cast<double>(it->second.shadow.size()) * work_scale_;
  sched_.transfer_async(stream, "accel_data_update_host_async", bytes,
                        /*to_device=*/false);
}

void Runtime::data_reset(const void* host) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error("omptarget: reset on unmapped buffer");
  }
  std::memset(it->second.shadow.data(), 0, it->second.shadow.size());
  sched_.fill_sync("accel_data_reset",
                   static_cast<double>(it->second.shadow.size()) *
                       work_scale_);
}

void Runtime::data_delete(const void* host) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    return;
  }
  pool_.release(it->second.dptr);
  mapped_.erase(it);
  tracer_.record("accel_data_delete", "alloc", 0.0, "omptarget");
}

bool Runtime::data_present(const void* host) const {
  return mapped_.count(host) != 0;
}

std::size_t Runtime::data_bytes(const void* host) const {
  const auto it = mapped_.find(host);
  return it == mapped_.end() ? 0 : it->second.shadow.size();
}

void* Runtime::raw_device_ptr(const void* host) {
  auto it = mapped_.find(host);
  if (it == mapped_.end()) {
    throw std::logic_error(
        "omptarget: device_ptr on unmapped buffer (missing data_create)");
  }
  return it->second.shadow.data();
}

accel::WorkEstimate Runtime::charge(const std::string& name, double executed,
                                    double cut, double total_items,
                                    const IterCost& cost,
                                    const LaunchOptions& opts) {
  accel::WorkEstimate w;
  w.flops = executed * cost.flops + cut * cost.guard_flops;
  w.bytes_read = executed * cost.bytes_read;
  w.bytes_written = executed * cost.bytes_written;
  w.launches = 1.0;
  w.parallel_items = total_items;
  w.divergence = cost.divergence;
  w.atomic_ops = executed * cost.atomic_ops;
  w.atomic_conflict_rate = cost.atomic_conflict_rate;

  const accel::WorkEstimate scaled = w.scaled(work_scale_);
  if (opts.nowait) {
    // nowait: the host pays only the submission cost; the kernel queues
    // on its stream, after any depend() events, and the logged span
    // covers device execution time alone.
    clock_.advance(dispatch_overhead_);
    sched_.launch_async(opts.stream, name, scaled, opts.depends);
  } else {
    sched_.kernel_sync(name, scaled, dispatch_overhead_);
  }
  return scaled;
}

ScopedDataRegion::ScopedDataRegion(Runtime& rt, std::vector<MapSpec> maps)
    : rt_(rt), maps_(std::move(maps)) {
  for (const auto& m : maps_) {
    rt_.data_create(m.host, m.bytes);
    if (m.to_device) {
      rt_.data_update_device(m.host);
    }
  }
}

ScopedDataRegion::~ScopedDataRegion() {
  for (const auto& m : maps_) {
    if (m.from_device) {
      rt_.data_update_host(m.host);
    }
    rt_.data_delete(m.host);
  }
}

}  // namespace toast::omptarget
