#pragma once

// The framework-agnostic memory abstraction layer of paper §3.2.1: named
// device copies of observation fields, with explicit create / update /
// reset / delete operations whose costs depend on the backend:
//   - OpenMP Target Offload: pooled omp_target_alloc, synchronous PCIe
//     copies, device-side memset for reset;
//   - JAX: allocator pool with pinned/asynchronous staging (cheaper
//     update_device) and pool-recycled buffers (near-free reset) - the
//     behaviour behind Figure 6's accel_data_* differences.
//
// Functionally, the device copy is a real shadow buffer: kernels read and
// write the shadow, so forgetting a transfer produces stale data (and
// failing tests), just like a real hybrid pipeline bug.

#include <cstddef>
#include <map>
#include <vector>

#include "accel/host_pool.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"
#include "omptarget/pool.hpp"

namespace toast::sched {
class Scheduler;
}  // namespace toast::sched

namespace toast::core {

class AccelStore {
 public:
  explicit AccelStore(ExecContext& ctx);

  /// Map a field: allocate a device shadow (no copy yet).
  void create(Field& field);
  bool present(const Field& field) const;
  void update_device(Field& field);
  /// Asynchronous H2D on `engine`'s copy engine (the plan executor's
  /// prefetch path): the functional copy happens now, the transfer time
  /// is placed on the PCIe link and overlaps compute; a later
  /// sync_transfers() charges any unhidden remainder.
  void update_device_async(Field& field, sched::Scheduler& engine);
  void update_host(Field& field);
  /// Zero the device copy.
  void reset(Field& field);
  void remove(Field& field);
  /// Drop every mapping (end of pipeline).
  void clear();

  /// Device address of the shadow copy.  Throws if not mapped.
  template <typename T>
  T* device_ptr(const Field& field) {
    return reinterpret_cast<T*>(raw_ptr(field));
  }

  std::size_t mapped_bytes() const { return mapped_bytes_; }
  /// High-water mark of mapped_bytes() over this store's lifetime (what
  /// liveness eviction lowers).
  std::size_t peak_mapped_bytes() const { return peak_mapped_bytes_; }
  std::size_t n_mapped() const { return shadows_.size(); }

 private:
  std::byte* raw_ptr(const Field& field);

  ExecContext& ctx_;
  omptarget::DevicePool pool_;
  struct Shadow {
    omptarget::DevicePtr dptr;
    accel::PooledVector<std::byte> data;
  };
  std::map<const Field*, Shadow> shadows_;
  std::size_t mapped_bytes_ = 0;
  std::size_t peak_mapped_bytes_ = 0;
};

}  // namespace toast::core
