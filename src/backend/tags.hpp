#pragma once

// Backend tag types (ROADMAP: tag-dispatch backend manifest, the
// backend_manifest.hpp idiom).  Each kernel implementation family is a
// tag type carrying its core::Backend id and display name; tag
// *inheritance* expresses implementation sharing: a backend whose tag
// derives from another falls back to the base backend's registered
// kernel when it has no specialization of its own (jax-cpu runs the
// traced jax kernels — only the XLA backend underneath differs).

#include "core/types.hpp"

namespace toast::backend {

/// Sentinel "no base backend" marker for root tags.
struct no_base_tag {};

/// Original OpenMP CPU kernels (the paper's baseline).
struct cpu_tag {
  using base = no_base_tag;
  static constexpr core::Backend id = core::Backend::kCpu;
  static constexpr const char* name = "cpu";
};

/// OpenMP Target Offload port.
struct omptarget_tag {
  using base = no_base_tag;
  static constexpr core::Backend id = core::Backend::kOmpTarget;
  static constexpr const char* name = "omp-target";
};

/// JAX port, GPU backend.
struct jax_tag {
  using base = no_base_tag;
  static constexpr core::Backend id = core::Backend::kJax;
  static constexpr const char* name = "jax";
};

/// JAX port forced onto its CPU backend (paper §4.2).  Inherits the jax
/// kernel registrations.
struct jax_cpu_tag : jax_tag {
  using base = jax_tag;
  static constexpr core::Backend id = core::Backend::kJaxCpu;
  static constexpr const char* name = "jax-cpu";
};

}  // namespace toast::backend
