#pragma once

// The observation data model: one contiguous chunk of telescope data held
// by one process.  Mirrors TOAST's Observation: a focalplane, shared
// (per-sample) fields, detector-data (per detector x sample) fields, and
// scan intervals.  Fields are named buffers so the pipeline can reason
// about data movement generically (paper §3.2.2).

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "accel/host_pool.hpp"
#include "core/types.hpp"
#include "qarray/qarray.hpp"

namespace toast::core {

/// Instrument description: detector pointing offsets and noise properties.
struct Focalplane {
  double sample_rate = 37.0;  // Hz
  std::vector<std::string> names;
  /// Quaternion offset of each detector from the boresight.
  std::vector<qarray::Quat> quats;
  /// Polarization angle (radians) and efficiency per detector.
  std::vector<double> pol_angles;
  std::vector<double> pol_eff;
  /// 1/f noise model per detector: NET (K*sqrt(s)), knee & minimum
  /// frequency (Hz), slope.
  std::vector<double> net;
  std::vector<double> fknee;
  std::vector<double> fmin;
  std::vector<double> alpha;

  std::int64_t n_detectors() const {
    return static_cast<std::int64_t>(quats.size());
  }
};

enum class FieldType : std::uint8_t { kF64, kI64, kU8 };

/// A named data buffer inside an observation.
class Field {
 public:
  Field() = default;
  Field(FieldType type, std::int64_t width, std::int64_t count,
        bool scalable = true);

  FieldType type() const { return type_; }
  /// Whether the field's size grows with the sample count (timestream
  /// domain) or is fixed (map domain).  Decides which scale factor the
  /// paper-scale cost models apply.
  bool scalable() const { return scalable_; }
  /// Elements per (detector, sample) tuple (e.g. 4 for quaternions).
  std::int64_t width() const { return width_; }
  std::int64_t count() const { return count_; }
  std::size_t byte_size() const;

  std::span<double> f64();
  std::span<const double> f64() const;
  std::span<std::int64_t> i64();
  std::span<const std::int64_t> i64() const;
  std::span<std::uint8_t> u8();
  std::span<const std::uint8_t> u8() const;

  void* raw();
  const void* raw() const;
  void zero();

 private:
  FieldType type_ = FieldType::kF64;
  std::int64_t width_ = 1;
  std::int64_t count_ = 0;
  bool scalable_ = true;
  // Job-sized arrays come from the host block recycler (accel/host_pool).
  std::variant<accel::PooledVector<double>, accel::PooledVector<std::int64_t>,
               accel::PooledVector<std::uint8_t>>
      data_;
};

class Observation {
 public:
  Observation(std::string name, Focalplane fp, std::int64_t n_samples);

  const std::string& name() const { return name_; }
  const Focalplane& focalplane() const { return fp_; }
  std::int64_t n_detectors() const { return fp_.n_detectors(); }
  std::int64_t n_samples() const { return n_samples_; }

  std::vector<Interval>& intervals() { return intervals_; }
  const std::vector<Interval>& intervals() const { return intervals_; }
  /// Longest interval (the padding target of both GPU ports).
  std::int64_t max_interval_length() const;

  // --- field management --------------------------------------------------

  /// Per-detector data: count = n_detectors * n_samples * width.
  Field& create_detdata(const std::string& name, FieldType type,
                        std::int64_t width = 1);
  /// Shared per-sample data: count = n_samples * width.
  Field& create_shared(const std::string& name, FieldType type,
                       std::int64_t width = 1);
  /// Free-size buffer.  `scalable` says whether the buffer grows with the
  /// sample count (template amplitudes: yes; map-domain accumulators: no).
  Field& create_buffer(const std::string& name, FieldType type,
                       std::int64_t count, bool scalable = false);

  bool has_field(const std::string& name) const;
  Field& field(const std::string& name);
  const Field& field(const std::string& name) const;
  void remove_field(const std::string& name);
  std::vector<std::string> field_names() const;

  /// Span over one detector's slice of a per-detector F64 field.
  std::span<double> det_f64(const std::string& name, std::int64_t det);
  std::span<const double> det_f64(const std::string& name,
                                  std::int64_t det) const;
  std::span<std::int64_t> det_i64(const std::string& name, std::int64_t det);
  std::span<const std::int64_t> det_i64(const std::string& name,
                                        std::int64_t det) const;

  /// Total bytes across all fields (memory-model input).
  std::size_t byte_size() const;

 private:
  std::string name_;
  Focalplane fp_;
  std::int64_t n_samples_ = 0;
  std::vector<Interval> intervals_;
  std::map<std::string, Field> fields_;
};

/// All observations owned by one process.
struct Data {
  std::vector<Observation> observations;

  std::size_t byte_size() const {
    std::size_t total = 0;
    for (const auto& ob : observations) {
      total += ob.byte_size();
    }
    return total;
  }
};

// Canonical field names used by the kernels (TOAST operator defaults).
namespace fields {
inline constexpr const char* kBoresight = "boresight";
inline constexpr const char* kHwpAngle = "hwp_angle";
inline constexpr const char* kTimes = "times";
inline constexpr const char* kSharedFlags = "shared_flags";
inline constexpr const char* kQuats = "quats";
inline constexpr const char* kPixels = "pixels";
inline constexpr const char* kWeights = "weights";
inline constexpr const char* kSignal = "signal";
inline constexpr const char* kDetFlags = "det_flags";
inline constexpr const char* kZmap = "zmap";
inline constexpr const char* kAmplitudes = "amplitudes";
inline constexpr const char* kSkyMap = "sky_map";
}  // namespace fields

}  // namespace toast::core
