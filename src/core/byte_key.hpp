#pragma once

// Cache keys made of a struct's bytes.  Both the JAX trace cache (a
// kernel's statics) and the simulation input cache (sim/input_cache.hpp)
// key plain structs this way.

#include <cstddef>
#include <string>
#include <type_traits>

namespace toast::core {

namespace detail {
struct Wide {
  template <class T>
    requires(sizeof(T) == 8)
  operator T() const;
};
/// Leading 8-byte fields of the aggregate S: the longest brace list of
/// Wide (which converts to 8-byte types only) that S accepts.
template <class S, class... F>
constexpr std::size_t wide_fields() {
  if constexpr (requires { S{F{}..., Wide{}}; }) {
    return wide_fields<S, F..., Wide>();
  }
  return sizeof...(F);
}
}  // namespace detail

/// All the bytes of `s`, so no field can be left out of a key and a
/// double is keyed by its bits (-0.0 and 0.0 differ).  Every field must be
/// 8 bytes wide (flags are int64), which leaves no padding to key.
template <class S>
std::string byte_key(const S& s) {
  if constexpr (std::is_empty_v<S>) {
    return {};
  } else {
    static_assert(sizeof(S) == 8 * detail::wide_fields<S>(),
                  "every field must be 8 bytes wide");
    return std::string(reinterpret_cast<const char*>(&s), sizeof(S));
  }
}

}  // namespace toast::core
