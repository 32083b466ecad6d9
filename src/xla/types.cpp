#include "xla/types.hpp"

#include <algorithm>
#include <sstream>

namespace toast::xla {

const char* to_string(DType d) {
  switch (d) {
    case DType::kF64:
      return "f64";
    case DType::kI64:
      return "i64";
    case DType::kPred:
      return "pred";
  }
  return "?";
}

std::size_t dtype_size(DType d) {
  switch (d) {
    case DType::kF64:
      return 8;
    case DType::kI64:
      return 8;
    case DType::kPred:
      return 1;
  }
  return 0;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out << ",";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

Literal::Literal(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  const auto n = static_cast<std::size_t>(shape_.num_elements());
  switch (dtype_) {
    case DType::kF64:
      data_ = std::vector<double>(n, 0.0);
      break;
    case DType::kI64:
      data_ = std::vector<std::int64_t>(n, 0);
      break;
    case DType::kPred:
      data_ = std::vector<std::uint8_t>(n, 0);
      break;
  }
}

Literal Literal::scalar_f64(double v) {
  Literal l(Shape{}, DType::kF64);
  l.f64()[0] = v;
  return l;
}

Literal Literal::scalar_i64(std::int64_t v) {
  Literal l(Shape{}, DType::kI64);
  l.i64()[0] = v;
  return l;
}

Literal Literal::scalar_pred(bool v) {
  Literal l(Shape{}, DType::kPred);
  l.pred()[0] = v ? 1 : 0;
  return l;
}

Literal Literal::from_f64(Shape shape, std::span<const double> data) {
  if (static_cast<std::int64_t>(data.size()) != shape.num_elements()) {
    throw std::invalid_argument("Literal::from_f64: size mismatch");
  }
  Literal l;
  l.shape_ = std::move(shape);
  l.data_ = std::vector<double>(data.begin(), data.end());
  return l;
}

Literal Literal::from_i64(Shape shape, std::span<const std::int64_t> data) {
  if (static_cast<std::int64_t>(data.size()) != shape.num_elements()) {
    throw std::invalid_argument("Literal::from_i64: size mismatch");
  }
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = DType::kI64;
  l.data_ = std::vector<std::int64_t>(data.begin(), data.end());
  return l;
}

void Literal::reshape(Shape shape) {
  if (shape.num_elements() != num_elements()) {
    throw std::invalid_argument("Literal::reshape: element count mismatch");
  }
  shape_ = std::move(shape);
}

std::span<double> Literal::f64() {
  return std::get<std::vector<double>>(data_);
}
std::span<const double> Literal::f64() const {
  return std::get<std::vector<double>>(data_);
}
std::span<std::int64_t> Literal::i64() {
  return std::get<std::vector<std::int64_t>>(data_);
}
std::span<const std::int64_t> Literal::i64() const {
  return std::get<std::vector<std::int64_t>>(data_);
}
std::span<std::uint8_t> Literal::pred() {
  return std::get<std::vector<std::uint8_t>>(data_);
}
std::span<const std::uint8_t> Literal::pred() const {
  return std::get<std::vector<std::uint8_t>>(data_);
}

double Literal::as_double(std::int64_t i) const {
  const auto idx = static_cast<std::size_t>(i);
  switch (dtype_) {
    case DType::kF64:
      return f64()[idx];
    case DType::kI64:
      return static_cast<double>(i64()[idx]);
    case DType::kPred:
      return static_cast<double>(pred()[idx]);
  }
  return 0.0;
}

Literal BufferPool::take(const Shape& shape, DType dtype) {
  const auto it = free_.find({dtype, shape.num_elements()});
  if (it == free_.end() || it->second.empty()) {
    return Literal(shape, dtype);
  }
  Literal l = std::move(it->second.back());
  it->second.pop_back();
  l.reshape(shape);
  return l;
}

void BufferPool::give(Literal l) {
  free_[{l.dtype(), l.num_elements()}].push_back(std::move(l));
}

void BufferPool::trim(std::span<const BufferClass> keep) {
  for (auto it = free_.begin(); it != free_.end();) {
    const auto [dtype, count] = it->first;
    const auto k = std::find_if(keep.begin(), keep.end(), [&](const auto& c) {
      return c.dtype == dtype && c.count == count;
    });
    const std::size_t n = k == keep.end() ? 0 : k->keep;
    if (n == 0) {
      it = free_.erase(it);
      continue;
    }
    if (it->second.size() > n) it->second.resize(n);
    ++it;
  }
}

std::size_t BufferPool::buffers() const {
  std::size_t n = 0;
  for (const auto& [cls, free] : free_) n += free.size();
  return n;
}

}  // namespace toast::xla
