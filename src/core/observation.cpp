#include "core/observation.hpp"

#include <algorithm>

namespace toast::core {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kCpu:
      return "cpu";
    case Backend::kOmpTarget:
      return "omptarget";
    case Backend::kJax:
      return "jax";
    case Backend::kJaxCpu:
      return "jax-cpu";
  }
  return "?";
}

Field::Field(FieldType type, std::int64_t width, std::int64_t count,
             bool scalable)
    : type_(type), width_(width), count_(count), scalable_(scalable) {
  const auto n = static_cast<std::size_t>(count);
  switch (type_) {
    case FieldType::kF64:
      data_ = accel::PooledVector<double>(n, 0.0);
      break;
    case FieldType::kI64:
      data_ = accel::PooledVector<std::int64_t>(n, 0);
      break;
    case FieldType::kU8:
      data_ = accel::PooledVector<std::uint8_t>(n, 0);
      break;
  }
}

std::size_t Field::byte_size() const {
  switch (type_) {
    case FieldType::kF64:
    case FieldType::kI64:
      return static_cast<std::size_t>(count_) * 8;
    case FieldType::kU8:
      return static_cast<std::size_t>(count_);
  }
  return 0;
}

std::span<double> Field::f64() {
  return std::get<accel::PooledVector<double>>(data_);
}
std::span<const double> Field::f64() const {
  return std::get<accel::PooledVector<double>>(data_);
}
std::span<std::int64_t> Field::i64() {
  return std::get<accel::PooledVector<std::int64_t>>(data_);
}
std::span<const std::int64_t> Field::i64() const {
  return std::get<accel::PooledVector<std::int64_t>>(data_);
}
std::span<std::uint8_t> Field::u8() {
  return std::get<accel::PooledVector<std::uint8_t>>(data_);
}
std::span<const std::uint8_t> Field::u8() const {
  return std::get<accel::PooledVector<std::uint8_t>>(data_);
}

void* Field::raw() {
  switch (type_) {
    case FieldType::kF64:
      return f64().data();
    case FieldType::kI64:
      return i64().data();
    case FieldType::kU8:
      return u8().data();
  }
  return nullptr;
}

const void* Field::raw() const {
  return const_cast<Field*>(this)->raw();
}

void Field::zero() {
  switch (type_) {
    case FieldType::kF64:
      std::fill(f64().begin(), f64().end(), 0.0);
      break;
    case FieldType::kI64:
      std::fill(i64().begin(), i64().end(), 0);
      break;
    case FieldType::kU8:
      std::fill(u8().begin(), u8().end(), 0);
      break;
  }
}

Observation::Observation(std::string name, Focalplane fp,
                         std::int64_t n_samples)
    : name_(std::move(name)), fp_(std::move(fp)), n_samples_(n_samples) {}

std::int64_t Observation::max_interval_length() const {
  std::int64_t m = 0;
  for (const auto& ival : intervals_) {
    m = std::max(m, ival.length());
  }
  return m;
}

Field& Observation::create_detdata(const std::string& name, FieldType type,
                                   std::int64_t width) {
  return fields_[name] =
             Field(type, width, n_detectors() * n_samples_ * width);
}

Field& Observation::create_shared(const std::string& name, FieldType type,
                                  std::int64_t width) {
  return fields_[name] = Field(type, width, n_samples_ * width);
}

Field& Observation::create_buffer(const std::string& name, FieldType type,
                                  std::int64_t count, bool scalable) {
  return fields_[name] = Field(type, 1, count, scalable);
}

bool Observation::has_field(const std::string& name) const {
  return fields_.count(name) != 0;
}

Field& Observation::field(const std::string& name) {
  const auto it = fields_.find(name);
  if (it == fields_.end()) {
    throw std::out_of_range("Observation: no field named '" + name + "'");
  }
  return it->second;
}

const Field& Observation::field(const std::string& name) const {
  return const_cast<Observation*>(this)->field(name);
}

void Observation::remove_field(const std::string& name) {
  fields_.erase(name);
}

std::vector<std::string> Observation::field_names() const {
  std::vector<std::string> names;
  names.reserve(fields_.size());
  for (const auto& [name, f] : fields_) {
    names.push_back(name);
  }
  return names;
}

std::span<double> Observation::det_f64(const std::string& name,
                                       std::int64_t det) {
  Field& f = field(name);
  const std::int64_t stride = n_samples_ * f.width();
  return f.f64().subspan(static_cast<std::size_t>(det * stride),
                         static_cast<std::size_t>(stride));
}

std::span<const double> Observation::det_f64(const std::string& name,
                                             std::int64_t det) const {
  return const_cast<Observation*>(this)->det_f64(name, det);
}

std::span<std::int64_t> Observation::det_i64(const std::string& name,
                                             std::int64_t det) {
  Field& f = field(name);
  const std::int64_t stride = n_samples_ * f.width();
  return f.i64().subspan(static_cast<std::size_t>(det * stride),
                         static_cast<std::size_t>(stride));
}

std::span<const std::int64_t> Observation::det_i64(const std::string& name,
                                                   std::int64_t det) const {
  return const_cast<Observation*>(this)->det_i64(name, det);
}

std::size_t Observation::byte_size() const {
  std::size_t total = 0;
  for (const auto& [name, f] : fields_) {
    total += f.byte_size();
  }
  total += intervals_.size() * sizeof(Interval);
  return total;
}

}  // namespace toast::core
