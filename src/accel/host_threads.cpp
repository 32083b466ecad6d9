#include "accel/host_threads.hpp"

#include <sched.h>

#include <system_error>
#include <utility>

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

/// Moves the calling thread off `cpu` and leaves its allowed CPUs as
/// they were: narrowing the set migrates the thread before the call
/// returns, and widening it again does not move it back.
void leave_cpu(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu < 0 || cpu >= CPU_SETSIZE ||
      sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  if (CPU_COUNT(&others) > 0 &&
      sched_setaffinity(0, sizeof(others), &others) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
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
  // The last job closed with inside_ == 0, and a worker that enters now
  // finds open_ false: nobody reads these fields while they are written.
  caller_cpu_.store(sched_getcpu(), std::memory_order_relaxed);
  fn_ = fn;
  call_ = call;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  open_.store(true);
  generation_.fetch_add(1);
  if (sleepers_.load() > 0) {
    // Between its check of generation_ and its wait a sleeper holds mu_,
    // so taking mu_ here orders this notify after that wait began.
    { std::lock_guard lock(mu_); }
    wake_.notify_all();
  }
  work();
  // Close the job, then wait out the workers inside it: after this no
  // worker touches the job again.
  open_.store(false);
  while (inside_.load() != 0) {
    sched_yield();
  }
  const std::exception_ptr error = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
}

void HostThreads::work() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) {
      return;
    }
    try {
      call_(fn_, i);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
      next_.store(n_, std::memory_order_relaxed);
    }
  }
}

void HostThreads::worker_loop() {
  using Clock = std::chrono::steady_clock;
  unsigned long seen = 0;
  for (;;) {
    unsigned long g = generation_.load(std::memory_order_relaxed);
    const auto until = Clock::now() + kSpinWindow;
    while (g == seen && Clock::now() < until) {
      sched_yield();
      g = generation_.load(std::memory_order_relaxed);
      // A worker woken onto its caller's CPU yields to the caller and
      // polls only when the caller's time slice ends; it would sit out
      // every short job.  Move it to another CPU.
      const int cpu = sched_getcpu();
      if (cpu == caller_cpu_.load(std::memory_order_relaxed)) {
        leave_cpu(cpu);
      }
    }
    if (g == seen) {
      std::unique_lock lock(mu_);
      sleepers_.fetch_add(1);
      wake_.wait(lock, [&] { return (g = generation_.load()) != seen; });
      sleepers_.fetch_sub(1);
    }
    // Job g, or a later one: whichever is open when this worker enters.
    seen = g;
    inside_.fetch_add(1);
    if (open_.load()) {
      work();
    }
    inside_.fetch_sub(1);
  }
}

HostThreads& host_threads() {
  static HostThreads* const pool = new HostThreads();
  return *pool;
}

}  // namespace toast::accel
