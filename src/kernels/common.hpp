#pragma once

// Shared helpers for the kernel implementations.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "accel/host_threads.hpp"
#include "core/types.hpp"

namespace toast::kernels {

/// Total samples covered by a set of intervals.
std::int64_t total_interval_samples(std::span<const core::Interval> ivals);

/// Padding waste of the static-shape strategy: (n_intervals * max_len) /
/// total_samples.  The JAX port executes this multiple of the useful work.
double padding_ratio(std::span<const core::Interval> ivals);

/// Visit the offset-template steps `ival` covers, in sample order: one
/// visit(step, begin, end) per run of samples [begin, end) sharing the
/// amplitude step = sample / step_length.  One divide per interval, not
/// one per sample.
template <typename Visit>
void for_each_step(const core::Interval& ival, std::int64_t step_length,
                   Visit&& visit) {
  std::int64_t step = ival.start / step_length;
  for (std::int64_t s = ival.start; s < ival.stop; ++step) {
    const std::int64_t end = std::min(ival.stop, (step + 1) * step_length);
    visit(step, s, end);
    s = end;
  }
}

/// The host form of "#pragma omp parallel for" over detectors: runs
/// body(det) once for each det in [0, n_det) on accel::host_threads().
/// Detector `det` must write only its own rows and amplitudes.
template <typename Body>
void for_each_detector(std::int64_t n_det, const Body& body) {
  accel::host_threads().parallel_for(
      static_cast<std::size_t>(std::max<std::int64_t>(n_det, 0)),
      [&](std::size_t det) { body(static_cast<std::int64_t>(det)); });
}

/// Default shared-flag mask used by the operators.
inline constexpr std::uint8_t kDefaultFlagMask = 0x01;

/// Quaternion product helper used identically by the CPU and OpenMP
/// kernel bodies (scalar-last convention, matching qarray).
inline void quat_mult(const double* p, const double* q, double* out) {
  out[0] = p[3] * q[0] + p[0] * q[3] + p[1] * q[2] - p[2] * q[1];
  out[1] = p[3] * q[1] - p[0] * q[2] + p[1] * q[3] + p[2] * q[0];
  out[2] = p[3] * q[2] + p[0] * q[1] - p[1] * q[0] + p[2] * q[3];
  out[3] = p[3] * q[3] - p[0] * q[0] - p[1] * q[1] - p[2] * q[2];
}

/// Rotate vector v by unit quaternion q (same expansion as qarray).
inline void quat_rotate(const double* q, const double* v, double* out) {
  const double tx = 2.0 * (q[1] * v[2] - q[2] * v[1]);
  const double ty = 2.0 * (q[2] * v[0] - q[0] * v[2]);
  const double tz = 2.0 * (q[0] * v[1] - q[1] * v[0]);
  out[0] = v[0] + q[3] * tx + (q[1] * tz - q[2] * ty);
  out[1] = v[1] + q[3] * ty + (q[2] * tx - q[0] * tz);
  out[2] = v[2] + q[3] * tz + (q[0] * ty - q[1] * tx);
}

/// Detector polarization response angle on the sky, from the detector
/// quaternion (TOAST's stokes_weights math): the angle between the local
/// meridian and the detector orientation axis.
inline double detector_angle(const double* q) {
  double dir[3];
  double orient[3];
  const double zaxis[3] = {0.0, 0.0, 1.0};
  const double xaxis[3] = {1.0, 0.0, 0.0};
  quat_rotate(q, zaxis, dir);
  quat_rotate(q, xaxis, orient);
  const double by = orient[0] * dir[1] - orient[1] * dir[0];
  const double bx = orient[0] * (-dir[2] * dir[0]) +
                    orient[1] * (-dir[2] * dir[1]) +
                    orient[2] * (dir[0] * dir[0] + dir[1] * dir[1]);
  return std::atan2(by, bx);
}

}  // namespace toast::kernels
