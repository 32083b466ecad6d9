// CPU baseline: the offset-template kernels of the map-making solver.
// add_to_signal scans step-wise amplitudes onto timestreams;
// project_signal is the transpose (per-step dot products);
// apply_diag_precond is an elementwise product in amplitude space.

#include "kernels/common.hpp"
#include "kernels/cpu.hpp"

namespace toast::kernels::cpu {

void template_offset_add_to_signal(std::int64_t step_length,
                                   std::span<const double> amplitudes,
                                   std::int64_t n_amp_det,
                                   std::span<const core::Interval> intervals,
                                   std::int64_t n_det, std::int64_t n_samp,
                                   std::span<double> signal,
                                   core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    const std::size_t amp_base = static_cast<std::size_t>(det * n_amp_det);
    for (const auto& ival : intervals) {
      for_each_step(ival, step_length, [&](std::int64_t step,
                                           std::int64_t begin,
                                           std::int64_t end) {
        const double value = amplitudes[amp_base +
                                        static_cast<std::size_t>(step)];
        for (std::int64_t s = begin; s < end; ++s) {
          signal[static_cast<std::size_t>(det * n_samp + s)] += value;
        }
      });
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 2.0 * iters;
  w.bytes_read = 8.0 * iters;  // amplitude reads mostly cached
  w.bytes_written = 8.0 * iters;
  w.launches = 1.0;
  w.parallel_items = iters;
  w.cpu_vector_eff = 0.90;
  ctx.charge_host_kernel("template_offset_add_to_signal", w);
}

void template_offset_project_signal(
    std::int64_t step_length, std::span<const double> signal,
    std::span<const core::Interval> intervals, std::int64_t n_det,
    std::int64_t n_samp, std::span<double> amplitudes,
    std::int64_t n_amp_det, core::ExecContext& ctx) {
  for_each_detector(n_det, [&](std::int64_t det) {
    const std::size_t amp_base = static_cast<std::size_t>(det * n_amp_det);
    for (const auto& ival : intervals) {
      for_each_step(ival, step_length, [&](std::int64_t step,
                                           std::int64_t begin,
                                           std::int64_t end) {
        // Same additions in the same order as one += per sample.
        double& amp = amplitudes[amp_base + static_cast<std::size_t>(step)];
        double sum = amp;
        for (std::int64_t s = begin; s < end; ++s) {
          sum += signal[static_cast<std::size_t>(det * n_samp + s)];
        }
        amp = sum;
      });
    }
  });

  accel::WorkEstimate w;
  const double iters = static_cast<double>(
      n_det * total_interval_samples(intervals));
  w.flops = 2.0 * iters;
  w.bytes_read = 8.0 * iters;
  w.bytes_written = 8.0 * iters / static_cast<double>(step_length);
  w.launches = 1.0;
  w.parallel_items = static_cast<double>(n_det * intervals.size());
  w.cpu_vector_eff = 0.80;  // running sums, serial within a step
  ctx.charge_host_kernel("template_offset_project_signal", w);
}

void template_offset_apply_diag_precond(std::span<const double> offset_var,
                                        std::span<const double> amp_in,
                                        std::span<double> amp_out,
                                        core::ExecContext& ctx) {
  const std::size_t n = amp_in.size();
  for (std::size_t i = 0; i < n; ++i) {
    amp_out[i] = amp_in[i] * offset_var[i];
  }

  accel::WorkEstimate w;
  w.flops = static_cast<double>(n);
  w.bytes_read = 16.0 * static_cast<double>(n);
  w.bytes_written = 8.0 * static_cast<double>(n);
  w.launches = 1.0;
  w.parallel_items = static_cast<double>(n);
  ctx.charge_host_kernel("template_offset_apply_diag_precond", w);
}

}  // namespace toast::kernels::cpu
