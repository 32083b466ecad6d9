#pragma once

// Process-wide host thread pool behind the detector-parallel host loops:
// the cpu kernels, the omp-target host paths and the rows of
// omptarget::Runtime::target_for_collapse3 (docs/MODEL.md §10).  It has
// one worker per CPU in the process's affinity mask, less one for the
// calling thread, and at most kMaxWorkers.  Idle workers block on a
// condition variable; they never spin.  A call made while the pool is
// busy (a nested call, or a second user thread) runs inline on its own
// thread, so no call can deadlock.  Every loop run here writes disjoint
// memory per index, so the order the indices run in cannot change a
// result.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace toast::accel {

class HostThreads {
 public:
  static constexpr int kMaxWorkers = 7;

  /// Worker count for a process allowed to run on `cpus` CPUs.
  static int workers_for(int cpus);

  HostThreads(const HostThreads&) = delete;
  HostThreads& operator=(const HostThreads&) = delete;

  int workers() const { return workers_; }

  /// Runs f(i) once for each i in [0, n), the caller taking part and
  /// indices handed out one at a time.  The first exception f throws is
  /// rethrown here once every index in flight has returned; indices not
  /// yet handed out then do not run.  `f` is called through a const
  /// reference from several threads at once.  Allocates nothing.
  template <typename F>
  void parallel_for(std::size_t n, const F& f) {
    run(n, &f, [](const void* fn, std::size_t i) {
      (*static_cast<const F*>(fn))(i);
    });
  }

 private:
  friend HostThreads& host_threads();

  /// Starts workers_for(CPUs in this process's affinity mask) workers.
  /// Private: the one instance is never destroyed, so its workers are
  /// never joined.
  HostThreads();

  struct Job {
    const void* fn = nullptr;
    void (*call)(const void*, std::size_t) = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;  // guarded by mu_
  };

  void run(std::size_t n, const void* fn,
           void (*call)(const void*, std::size_t));
  void work(Job& job);
  void worker_loop();

  int workers_ = 0;
  std::atomic<bool> busy_{false};
  std::mutex mu_;
  std::condition_variable wake_;  // a job was posted
  std::condition_variable done_;  // the last worker left a job
  Job* job_ = nullptr;            // the posted job, or nullptr
  unsigned long generation_ = 0;  // bumped once per posted job
  int active_ = 0;                // workers inside job_
  std::vector<std::thread> threads_;
};

/// The pool every host loop shares.  Created on first use and never
/// destroyed, like host_pool(): its workers outlive static destruction.
HostThreads& host_threads();

}  // namespace toast::accel
