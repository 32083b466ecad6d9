#pragma once

// Per-kernel backend registry (the tag-dispatch replacement for the old
// three-way `switch (backend)` in every operator).  Each kernel owns one
// OpRegistry<Args> where Args is the kernel's resolved-argument bundle;
// implementations register against a manifest tag and dispatch resolves
// the runtime enum to a slot, walking the tag base chain when a backend
// has no registration of its own:
//
//   static const auto reg = [] {
//     OpRegistry<ScanMapArgs> r("scan_map");
//     r.add<cpu_tag>([](const ScanMapArgs& a, core::ExecContext& ctx) {...});
//     r.add<omptarget_tag>(...);
//     r.add<jax_tag>(...);      // also serves jax-cpu
//     return r;
//   }();
//   reg.invoke(backend, args, ctx);

#include <array>
#include <functional>
#include <string>
#include <utility>

#include "backend/error.hpp"
#include "backend/manifest.hpp"
#include "core/context.hpp"

namespace toast::backend {

template <typename Args>
class OpRegistry {
 public:
  using Fn = std::function<void(const Args&, core::ExecContext&)>;

  explicit OpRegistry(std::string kernel) : kernel_(std::move(kernel)) {}

  /// Register the implementation for `Tag`'s slot.  Derived tags without
  /// a registration of their own inherit this one through the base chain.
  template <typename Tag>
  void add(Fn fn) {
    slots_[backend_index<Tag>()] = std::move(fn);
  }

  const std::string& kernel() const { return kernel_; }

  /// True when `b` resolves to a registration (directly or via a base).
  bool has(core::Backend b) const { return resolve(b) != npos; }

  void invoke(core::Backend b, const Args& args,
              core::ExecContext& ctx) const {
    const std::size_t slot = resolve(b);
    if (slot == npos) {
      throw UnknownKernelError(kernel_, b);
    }
    slots_[slot](args, ctx);
  }

 private:
  /// Manifest slot whose registration serves backend `b`: the tag's own
  /// slot if filled, else the nearest registered base tag; npos if the
  /// whole chain is empty or `b` is not in the manifest.
  std::size_t resolve(core::Backend b) const {
    std::size_t idx = index_of(b);
    if (idx == npos) {
      return npos;
    }
    for (;;) {
      if (slots_[idx]) {
        return idx;
      }
      const std::size_t up = base_index(idx);
      if (up == idx) {
        return npos;
      }
      idx = up;
    }
  }

  std::string kernel_;
  std::array<Fn, backend_count> slots_;
};

}  // namespace toast::backend
