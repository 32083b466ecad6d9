#pragma once

// Process-wide cache of pure simulation inputs: the synthetic sky map,
// each detector's noise addend and the scan arrays (times, boresight, HWP
// angle).  Every job of a process asks for the same ones, so each is
// computed once per process instead of once per job (docs/MODEL.md §5).
// A value is a pure function of its key and the key holds every input's
// bits (core::byte_key), so a kept value is the value a fresh computation
// would give: the cache can never change a result.  Held bytes stay under
// a fixed budget, least recently used entries evicted first; a value
// larger than the budget is returned and not kept.

#include <array>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/byte_key.hpp"

namespace toast::sim {

class InputCache {
 public:
  static constexpr std::size_t kBudget = std::size_t{16} << 20;

  /// What an entry holds; each kind keeps its own hit and miss counts.
  enum class Kind : std::size_t { kSky, kNoise, kScan };

  struct Counts {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  struct Stats {
    std::array<Counts, 3> kinds;  // indexed by Kind
    std::size_t evictions = 0;
    std::size_t entries = 0;
    std::size_t held_bytes = 0;

    const Counts& operator[](Kind k) const {
      return kinds[static_cast<std::size_t>(k)];
    }
  };

  using Value = std::shared_ptr<const std::vector<double>>;

  explicit InputCache(std::size_t budget = kBudget) : budget_(budget) {}
  InputCache(const InputCache&) = delete;
  InputCache& operator=(const InputCache&) = delete;

  /// The kept value of (kind, key), else compute()'s, kept if it fits.
  /// compute() runs outside the lock: two threads that miss one key both
  /// compute it, and the same bits are returned to each.
  template <class Key, class F>
  Value get(Kind kind, const Key& key, F&& compute) {
    std::string k = core::byte_key(key);
    k.push_back(static_cast<char>(kind));
    if (Value v = find(kind, k)) {
      return v;
    }
    return keep(std::move(k),
                std::make_shared<const std::vector<double>>(compute()));
  }

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  Value find(Kind kind, const std::string& key);
  Value keep(std::string key, Value value);

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // most recently used first
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

/// The cache the simulation ops use.  Process-wide because only process
/// state outlives a job; never destroyed, like accel::host_pool().
InputCache& input_cache();

}  // namespace toast::sim
