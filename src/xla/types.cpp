#include "xla/types.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>

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

Literal::Literal(const Literal& other)
    : shape_(other.shape_), dtype_(other.dtype_) {
  switch (dtype_) {
    case DType::kF64: {
      const auto v = other.f64();
      data_ = std::vector<double>(v.begin(), v.end());
      break;
    }
    case DType::kI64: {
      const auto v = other.i64();
      data_ = std::vector<std::int64_t>(v.begin(), v.end());
      break;
    }
    case DType::kPred: {
      const auto v = other.pred();
      data_ = std::vector<std::uint8_t>(v.begin(), v.end());
      break;
    }
  }
}

Literal::Literal(Literal&& other) noexcept
    : shape_(std::move(other.shape_)),
      dtype_(other.dtype_),
      data_(std::move(other.data_)),
      storage_(std::exchange(other.storage_, Storage::kOwned)),
      borrowed_(std::exchange(other.borrowed_, nullptr)) {}

Literal& Literal::operator=(const Literal& other) {
  if (this != &other) {
    *this = Literal(other);
  }
  return *this;
}

Literal& Literal::operator=(Literal&& other) noexcept {
  shape_ = std::move(other.shape_);
  dtype_ = other.dtype_;
  data_ = std::move(other.data_);
  storage_ = std::exchange(other.storage_, Storage::kOwned);
  borrowed_ = std::exchange(other.borrowed_, nullptr);
  return *this;
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

Literal Literal::borrowed_view(Shape shape, DType dtype, void* data,
                               std::size_t size, Storage storage) {
  if (static_cast<std::int64_t>(size) != shape.num_elements()) {
    throw std::invalid_argument("Literal::borrow: size mismatch");
  }
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = dtype;
  l.storage_ = storage;
  l.borrowed_ = data;
  return l;
}

Literal Literal::borrow(Shape shape, std::span<const double> data) {
  return borrowed_view(std::move(shape), DType::kF64,
                       const_cast<double*>(data.data()), data.size(),
                       Storage::kReadOnly);
}

Literal Literal::borrow(Shape shape, std::span<const std::int64_t> data) {
  return borrowed_view(std::move(shape), DType::kI64,
                       const_cast<std::int64_t*>(data.data()), data.size(),
                       Storage::kReadOnly);
}

Literal Literal::borrow_writable(Shape shape, std::span<double> data) {
  return borrowed_view(std::move(shape), DType::kF64, data.data(),
                       data.size(), Storage::kWritable);
}

Literal Literal::borrow_writable(Shape shape, std::span<std::int64_t> data) {
  return borrowed_view(std::move(shape), DType::kI64, data.data(),
                       data.size(), Storage::kWritable);
}

const void* Literal::data() const {
  if (borrowed()) {
    return borrowed_;
  }
  return std::visit([](const auto& v) -> const void* { return v.data(); },
                    data_);
}

void Literal::reshape(Shape shape) {
  if (shape.num_elements() != num_elements()) {
    throw std::invalid_argument("Literal::reshape: element count mismatch");
  }
  shape_ = std::move(shape);
}

template <class T>
std::span<T> Literal::view(DType dtype, bool write) const {
  using V = std::vector<std::remove_const_t<T>>;
  if (!borrowed()) {
    return const_cast<V&>(std::get<V>(data_));
  }
  if (dtype_ != dtype) {
    throw std::bad_variant_access();
  }
  if (write && !writable()) {
    throw std::logic_error("xla: write to a read-only borrowed literal");
  }
  return {static_cast<T*>(borrowed_), static_cast<std::size_t>(num_elements())};
}

std::span<double> Literal::f64() { return view<double>(DType::kF64, true); }
std::span<const double> Literal::f64() const {
  return view<const double>(DType::kF64, false);
}
std::span<std::int64_t> Literal::i64() {
  return view<std::int64_t>(DType::kI64, true);
}
std::span<const std::int64_t> Literal::i64() const {
  return view<const std::int64_t>(DType::kI64, false);
}
std::span<std::uint8_t> Literal::pred() {
  return view<std::uint8_t>(DType::kPred, true);
}
std::span<const std::uint8_t> Literal::pred() const {
  return view<const std::uint8_t>(DType::kPred, false);
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
  if (l.borrowed()) {
    return;
  }
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
