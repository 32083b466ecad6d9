#include "sim/input_cache.hpp"

namespace toast::sim {

namespace {
std::size_t bytes_of(const InputCache::Value& v) {
  return v->size() * sizeof(double);
}
}  // namespace

InputCache::Value InputCache::find(Kind kind, const std::string& key) {
  std::lock_guard lock(mu_);
  Counts& counts = stats_.kinds[static_cast<std::size_t>(kind)];
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counts.misses;
    return nullptr;
  }
  ++counts.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

InputCache::Value InputCache::keep(std::string key, Value value) {
  const std::size_t bytes = bytes_of(value);
  if (bytes > budget_) {
    return value;
  }
  std::lock_guard lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Another thread kept it first: the same bits.
    return it->second->value;
  }
  while (stats_.held_bytes + bytes > budget_) {
    stats_.held_bytes -= bytes_of(lru_.back().value);
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front({key, value});
  index_.emplace(std::move(key), lru_.begin());
  stats_.held_bytes += bytes;
  stats_.entries = lru_.size();
  return value;
}

InputCache::Stats InputCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void InputCache::clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.held_bytes = 0;
}

InputCache& input_cache() {
  static InputCache* const cache = new InputCache();
  return *cache;
}

}  // namespace toast::sim
