#include "accel/host_threads.hpp"

#include <sched.h>

#include <algorithm>
#include <system_error>

namespace toast::accel {

namespace {
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}
}  // namespace

int HostThreads::workers_for(int cpus) {
  return std::clamp(cpus - 1, 0, kMaxWorkers);
}

HostThreads::HostThreads() {
  const int want = workers_for(affinity_cpus());
  for (; workers_ < want; ++workers_) {
    try {
      threads_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      break;  // run with the workers that did start
    }
  }
}

void HostThreads::run(std::size_t n, const void* fn,
                      void (*call)(const void*, std::size_t)) {
  if (n <= 1 || workers_ == 0 ||
      busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < n; ++i) {
      call(fn, i);
    }
    return;
  }
  Job job;
  job.fn = fn;
  job.call = call;
  job.n = n;
  {
    std::lock_guard lock(mu_);
    job_ = &job;
    ++generation_;
  }
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(workers_), n - 1);
  for (std::size_t k = 0; k < helpers; ++k) {
    wake_.notify_one();
  }
  work(job);
  std::exception_ptr error;
  {
    // Withdraw the job, then wait for the workers inside it: after this
    // no worker touches `job` again.
    std::unique_lock lock(mu_);
    job_ = nullptr;
    done_.wait(lock, [this] { return active_ == 0; });
    error = job.error;
  }
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
}

void HostThreads::work(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) {
      return;
    }
    try {
      job.call(job.fn, i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!job.error) {
        job.error = std::current_exception();
      }
      job.next.store(job.n, std::memory_order_relaxed);
    }
  }
}

void HostThreads::worker_loop() {
  unsigned long seen = 0;
  std::unique_lock lock(mu_);
  for (;;) {
    wake_.wait(lock,
               [&] { return job_ != nullptr && generation_ != seen; });
    seen = generation_;
    Job& job = *job_;
    ++active_;
    lock.unlock();
    work(job);
    lock.lock();
    if (--active_ == 0) {
      done_.notify_one();
    }
  }
}

HostThreads& host_threads() {
  static HostThreads* const pool = new HostThreads();
  return *pool;
}

}  // namespace toast::accel
