#include "kernels/common.hpp"

#include <algorithm>

namespace toast::kernels {

std::int64_t total_interval_samples(std::span<const core::Interval> ivals) {
  std::int64_t total = 0;
  for (const auto& v : ivals) {
    total += v.length();
  }
  return total;
}

double padding_ratio(std::span<const core::Interval> ivals) {
  if (ivals.empty()) {
    return 1.0;
  }
  std::int64_t max_len = 0;
  for (const auto& v : ivals) {
    max_len = std::max(max_len, v.length());
  }
  const std::int64_t total = total_interval_samples(ivals);
  if (total == 0) {
    return 1.0;
  }
  return static_cast<double>(max_len) *
         static_cast<double>(static_cast<std::int64_t>(ivals.size())) /
         static_cast<double>(total);
}

}  // namespace toast::kernels
