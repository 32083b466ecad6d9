#pragma once

// Process-wide host thread pool behind the host loops: the detector loops
// of the cpu kernels and the omp-target host paths, the rows of
// omptarget::Runtime::target_for_collapse3 and the element loops of the
// XLA executor (docs/MODEL.md §10).  It has one worker per CPU in the
// process's affinity mask, less one for the calling thread, and at most
// kMaxWorkers.  Posting a job takes no lock: an idle worker polls the
// job generation, yielding its CPU between polls, for kSpinWindow after
// its last job, and only then blocks on a condition variable.  A polling
// worker that finds itself on the CPU jobs are posted from moves to
// another CPU of its allowed set.  A call made while the pool is busy (a
// nested call, or a second user thread) runs inline on its own thread,
// so no call can deadlock.  Every loop run here writes disjoint memory
// per index, so the order the indices run in cannot change a result.

#include <algorithm>
#include <atomic>
#include <chrono>
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
  /// Elements per unit of parallel_chunks: every chunk but the last is a
  /// whole number of grains, so chunk boundaries fall on multiples of it.
  static constexpr std::size_t kGrain = 4096;
  /// How long an idle worker keeps polling for a job before it blocks.
  static constexpr std::chrono::microseconds kSpinWindow{500};

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

  /// Runs body(begin, end) over ranges that cover [0, n) once, without
  /// overlap, through parallel_for: whole grains per range, at most two
  /// ranges per thread.  It makes one call body(0, n) when n fits in a
  /// grain, the pool has no worker, or the pool is busy: a nested call
  /// runs its loop whole on its own thread.
  template <typename F>
  void parallel_chunks(std::size_t n, const F& body) {
    if (n <= kGrain || workers_ == 0 ||
        busy_.load(std::memory_order_relaxed)) {
      if (n > 0) body(std::size_t{0}, n);
      return;
    }
    const std::size_t grains = (n + kGrain - 1) / kGrain;
    const std::size_t most = 2 * (static_cast<std::size_t>(workers_) + 1);
    const std::size_t step = (grains + most - 1) / most * kGrain;
    parallel_for((n + step - 1) / step, [&](std::size_t c) {
      body(c * step, std::min(n, (c + 1) * step));
    });
  }

 private:
  friend HostThreads& host_threads();

  /// Starts workers_for(CPUs in this process's affinity mask) workers.
  /// Private: the one instance is never destroyed, so its workers are
  /// never joined.
  HostThreads();

  void run(std::size_t n, const void* fn,
           void (*call)(const void*, std::size_t));
  /// Runs indices of the posted job until none is left.
  void work();
  void worker_loop();

  int workers_ = 0;
  std::atomic<bool> busy_{false};

  // The posted job.  Its caller writes these only while no worker is
  // inside_ with open_ set; a worker reads them only then.
  const void* fn_ = nullptr;
  void (*call_)(const void*, std::size_t) = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // written by the thread that set failed_

  // Entry handshake (all seq_cst): a worker increments inside_, then
  // reads open_; the caller clears open_, then waits for inside_ == 0.
  // Either the worker sees the job closed and leaves without touching
  // it, or the caller sees the worker and waits for it.
  std::atomic<bool> open_{false};
  std::atomic<int> inside_{0};
  std::atomic<unsigned long> generation_{0};  // bumped once per posted job

  // Blocking after the spin window, the same handshake: a worker
  // increments sleepers_, then checks generation_ under mu_; the caller
  // bumps generation_, then notifies if sleepers_ > 0.
  std::mutex mu_;
  std::condition_variable wake_;
  std::atomic<int> sleepers_{0};

  /// The CPU the last job was posted from.  A polling worker that finds
  /// itself there moves to another CPU of its allowed set.
  std::atomic<int> caller_cpu_{-1};

  std::vector<std::thread> threads_;
};

/// The pool every host loop shares.  Created on first use and never
/// destroyed, like host_pool(): its workers outlive static destruction.
HostThreads& host_threads();

}  // namespace toast::accel
