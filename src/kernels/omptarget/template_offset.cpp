// OpenMP Target Offload ports of the offset-template kernels.
//
// template_offset_project_signal is the interesting one: a straight
// parallel loop over samples where `step_length` consecutive samples all
// update the *same* amplitude - massive atomic contention on the device.
// This is the structural reason the paper's OpenMP version (19x) loses to
// the XLA lowering (45x), which recognizes the segment reduction.

#include <algorithm>

#include "kernels/common.hpp"
#include "kernels/omptarget.hpp"

namespace toast::kernels::omp {

void template_offset_add_to_signal(std::int64_t step_length,
                                   const double* amplitudes,
                                   std::int64_t n_amp_det,
                                   std::span<const core::Interval> intervals,
                                   std::int64_t n_det, std::int64_t n_samp,
                                   double* signal, core::ExecContext& ctx,
                                   bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 2.0;
    cost.bytes_read = 16.0;
    cost.bytes_written = 8.0;
    ctx.omp().target_for_collapse3(
        "template_offset_add_to_signal", n_det, n_view, max_len, cost,
        [&, amp = std::int64_t{0}, left = std::int64_t{0}](
            std::int64_t det, std::int64_t view, std::int64_t i) mutable {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          // Rows run in order with i fastest from 0 (row-major), so a
          // running (amplitude, samples left in its step) pair replaces
          // a divide per sample.
          if (i == 0) {
            amp = det * n_amp_det + s / step_length;
            left = step_length - s % step_length;
          }
          signal[det * n_samp + s] += amplitudes[amp];
          if (--left == 0) {
            ++amp;
            left = step_length;
          }
          return true;
        });
    return;
  }

  // Host path.
  // #pragma omp parallel for collapse(2)
  for_each_detector(n_det, [&](std::int64_t det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for_each_step(ival, step_length, [&](std::int64_t step,
                                           std::int64_t begin,
                                           std::int64_t end) {
        const double value = amplitudes[det * n_amp_det + step];
        for (std::int64_t s = begin; s < end; ++s) {
          signal[det * n_samp + s] += value;
        }
      });
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 2.0 * iters;
  w.bytes_read = 8.0 * iters;
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.90;
  ctx.charge_host_kernel("template_offset_add_to_signal", w);
}

void template_offset_project_signal(
    std::int64_t step_length, const double* signal,
    std::span<const core::Interval> intervals, std::int64_t n_det,
    std::int64_t n_samp, double* amplitudes, std::int64_t n_amp_det,
    core::ExecContext& ctx, bool use_accel) {
  const auto n_view = static_cast<std::int64_t>(intervals.size());

  if (use_accel) {
    // #pragma omp target teams distribute parallel for collapse(3)
    // Straight sample-parallel loop with an atomic per sample; every
    // step_length consecutive threads collide on one amplitude.
    std::int64_t max_len = 0;
    for (const auto& ival : intervals) {
      max_len = std::max(max_len, ival.length());
    }
    ::toast::omptarget::IterCost cost;
    cost.flops = 2.0;
    cost.bytes_read = 8.0;
    cost.bytes_written = 8.0 / static_cast<double>(step_length);
    cost.atomic_ops = 1.0;
    // Within a 32-thread warp, all but ceil(32/step) updates conflict.
    const double warp = 32.0;
    const double distinct =
        std::max(1.0, warp / static_cast<double>(step_length));
    cost.atomic_conflict_rate = (warp - distinct) / warp;
    ctx.omp().target_for_collapse3(
        "template_offset_project_signal", n_det, n_view, max_len, cost,
        [&, amp = std::int64_t{0}, left = std::int64_t{0}, sum = 0.0](
            std::int64_t det, std::int64_t view, std::int64_t i) mutable {
          const auto& ival = intervals[static_cast<std::size_t>(view)];
          const std::int64_t s = ival.start + i;
          if (s >= ival.stop) {
            return false;
          }
          // Running step position, as in add_to_signal, and the step's
          // running sum in a local: loaded when a step starts in this
          // row, stored when it ends or the row does.  The region runs in
          // program order (it declares atomics), so these are the same
          // additions in the same order as one += per sample.
          if (i == 0) {
            amp = det * n_amp_det + s / step_length;
            left = step_length - s % step_length;
            sum = amplitudes[amp];
          } else if (left == step_length) {
            sum = amplitudes[amp];
          }
          // #pragma omp atomic update
          sum += signal[det * n_samp + s];
          if (--left == 0 || s + 1 == ival.stop) {
            amplitudes[amp] = sum;
          }
          if (left == 0) {
            ++amp;
            left = step_length;
          }
          return true;
        });
    return;
  }

  // Host path: sequential within each detector, no atomics needed.
  // #pragma omp parallel for
  for_each_detector(n_det, [&](std::int64_t det) {
    for (std::int64_t view = 0; view < n_view; ++view) {
      const auto& ival = intervals[static_cast<std::size_t>(view)];
      for_each_step(ival, step_length, [&](std::int64_t step,
                                           std::int64_t begin,
                                           std::int64_t end) {
        double sum = amplitudes[det * n_amp_det + step];
        for (std::int64_t s = begin; s < end; ++s) {
          sum += signal[det * n_samp + s];
        }
        amplitudes[det * n_amp_det + step] = sum;
      });
    }
  });
  accel::WorkEstimate w;
  const double iters =
      static_cast<double>(n_det * total_interval_samples(intervals));
  w.flops = 2.0 * iters;
  w.bytes_read = 8.0 * iters;
  w.bytes_written = 8.0 * iters / static_cast<double>(step_length);
  w.launches = 1.0;
  w.parallel_items = static_cast<double>(n_det * intervals.size());
  w.cpu_vector_eff = 0.80;
  ctx.charge_host_kernel("template_offset_project_signal", w);
}

void template_offset_apply_diag_precond(const double* offset_var,
                                        const double* amp_in,
                                        std::int64_t n_amp, double* amp_out,
                                        core::ExecContext& ctx,
                                        bool use_accel) {
  if (use_accel) {
    // #pragma omp target teams distribute parallel for
    ::toast::omptarget::IterCost cost;
    cost.flops = 1.0;
    cost.bytes_read = 16.0;
    cost.bytes_written = 8.0;
    ctx.omp().target_for("template_offset_apply_diag_precond", n_amp, cost,
                         [&](std::int64_t i) {
                           amp_out[i] = amp_in[i] * offset_var[i];
                           return true;
                         });
    return;
  }

  // Host path.
  // #pragma omp parallel for simd
  for (std::int64_t i = 0; i < n_amp; ++i) {
    amp_out[i] = amp_in[i] * offset_var[i];
  }
  accel::WorkEstimate w;
  w.flops = static_cast<double>(n_amp);
  w.bytes_read = 16.0 * static_cast<double>(n_amp);
  w.bytes_written = 8.0 * static_cast<double>(n_amp);
  w.launches = 1.0;
  w.parallel_items = static_cast<double>(n_amp);
  ctx.charge_host_kernel("template_offset_apply_diag_precond", w);
}

}  // namespace toast::kernels::omp
