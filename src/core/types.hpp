#pragma once

// Shared framework vocabulary: sample intervals, kernel backends.

#include <cstdint>
#include <string>

namespace toast::core {

/// Half-open range of time samples [start, stop).  TOAST pipelines operate
/// on lists of such intervals with *varying lengths*; the varying lengths
/// are what forces the padding / guard-cut strategies of the two GPU ports.
struct Interval {
  std::int64_t start = 0;
  std::int64_t stop = 0;
  std::int64_t length() const { return stop - start; }
};

/// Which implementation of a kernel to run (paper §3.2.1: selectable for
/// the entire code, individual pipelines, or individual kernels).
enum class Backend {
  kCpu,        ///< original OpenMP CPU kernels (the baseline)
  kOmpTarget,  ///< OpenMP Target Offload port
  kJax,        ///< JAX port on the GPU backend
  kJaxCpu,     ///< JAX port forced onto its CPU backend (paper §4.2)
};

const char* to_string(Backend b);

/// True when the backend executes kernels on the accelerator.
inline bool is_accel(Backend b) {
  return b == Backend::kOmpTarget || b == Backend::kJax;
}

}  // namespace toast::core
