#pragma once

// The backend manifest: the single compile-time list of every kernel
// backend the build knows about.  Adding a backend means adding a tag to
// `available_backends`; the registry slots, runtime-enum mapping, base
// chains and display names all follow from the tuple.

#include <cstddef>
#include <tuple>
#include <type_traits>

#include "backend/tags.hpp"

namespace toast::backend {

using available_backends =
    std::tuple<cpu_tag, omptarget_tag, jax_tag, jax_cpu_tag>;

inline constexpr std::size_t backend_count =
    std::tuple_size_v<available_backends>;

/// Sentinel for "not in the manifest".
inline constexpr std::size_t npos = backend_count;

namespace detail {

template <typename Tag, std::size_t... Is>
constexpr std::size_t index_of_tag(std::index_sequence<Is...>) {
  std::size_t found = npos;
  ((std::is_same_v<Tag, std::tuple_element_t<Is, available_backends>>
        ? (found = Is, 0)
        : 0),
   ...);
  return found;
}

template <std::size_t... Is>
constexpr std::size_t index_of_id(core::Backend b,
                                  std::index_sequence<Is...>) {
  std::size_t found = npos;
  ((std::tuple_element_t<Is, available_backends>::id == b ? (found = Is, 0)
                                                          : 0),
   ...);
  return found;
}

}  // namespace detail

/// Compile-time slot of a tag in the manifest.
template <typename Tag>
constexpr std::size_t backend_index() {
  constexpr std::size_t idx = detail::index_of_tag<Tag>(
      std::make_index_sequence<backend_count>{});
  static_assert(idx != npos, "tag is not in available_backends");
  return idx;
}

/// Runtime slot of a core::Backend enum value; npos when the enum value
/// has no tag in the manifest (e.g. a corrupted dispatch table).
constexpr std::size_t index_of(core::Backend b) {
  return detail::index_of_id(b, std::make_index_sequence<backend_count>{});
}

/// Runtime enum of a manifest slot; core::Backend::kCpu when the index
/// is out of range (slot 0 is the root backend by construction).
constexpr core::Backend id_of(std::size_t index) {
  core::Backend id = core::Backend::kCpu;
  std::size_t i = 0;
  std::apply(
      [&](auto... tags) {
        (((i++ == index) ? (id = decltype(tags)::id, 0) : 0), ...);
      },
      available_backends{});
  return id;
}

/// Display name of a manifest slot ("cpu", "omp-target", ...).
constexpr const char* name_of(std::size_t index) {
  const char* name = "unknown";
  std::size_t i = 0;
  std::apply(
      [&](auto... tags) {
        (((i++ == index) ? (name = decltype(tags)::name, 0) : 0), ...);
      },
      available_backends{});
  return name;
}

/// Slot of a tag's base tag, or the slot itself for root tags.  The
/// registry walks this chain when a backend has no registration of its
/// own (jax-cpu -> jax).
constexpr std::size_t base_index(std::size_t index) {
  std::size_t base = index;
  std::size_t i = 0;
  std::apply(
      [&](auto... tags) {
        (((i++ == index)
              ? (base = [] {
                  using Base = typename decltype(tags)::base;
                  if constexpr (std::is_same_v<Base, no_base_tag>) {
                    return npos;
                  } else {
                    return backend_index<Base>();
                  }
                }(),
                 0)
              : 0),
         ...);
      },
      available_backends{});
  return base == npos ? index : base;
}

/// Invoke `f` with the tag instance for runtime backend `b`.  Returns
/// false (without calling `f`) when `b` is not in the manifest.
template <typename F>
constexpr bool with_backend(core::Backend b, F&& f) {
  bool called = false;
  std::apply(
      [&](auto... tags) {
        (((decltype(tags)::id == b && !called) ? (f(tags), called = true)
                                               : false),
         ...);
      },
      available_backends{});
  return called;
}

}  // namespace toast::backend
