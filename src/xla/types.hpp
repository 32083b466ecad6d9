#pragma once

// Value types for the mini-XLA: dtypes, shapes and literals (host buffers).
//
// The real XLA supports many dtypes and ranks; the TOAST kernels need F64
// timestreams, I64 indices and boolean masks, with arrays of rank 0-2.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace toast::xla {

enum class DType : std::uint8_t { kF64, kI64, kPred };

const char* to_string(DType d);
std::size_t dtype_size(DType d);

/// Array extents; rank 0 (scalar) through rank 2.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { check(); }
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
    check();
  }

  int rank() const { return static_cast<int>(dims_.size()); }
  std::int64_t dim(int i) const { return dims_.at(static_cast<size_t>(i)); }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (const auto d : dims_) n *= d;
    return n;
  }

  bool operator==(const Shape& o) const { return dims_ == o.dims_; }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string to_string() const;

 private:
  void check() const {
    if (dims_.size() > 2) {
      throw std::invalid_argument("xla: only rank 0-2 shapes supported");
    }
    for (const auto d : dims_) {
      if (d < 0) throw std::invalid_argument("xla: negative dimension");
    }
  }
  std::vector<std::int64_t> dims_;
};

/// A concrete array value: shape + dtype + host storage.  The storage is
/// owned, or *borrowed*: caller memory the literal reads in place
/// (read-only) or may also write (writable: an argument the caller
/// donates, jax.jit's donate_argnums).  Copying any literal gives an owned
/// deep copy; moving one keeps its storage, borrowed or not, and leaves
/// the source owned and empty.
class Literal {
 public:
  Literal() : dtype_(DType::kF64) {}
  Literal(Shape shape, DType dtype);
  Literal(const Literal& other);
  Literal(Literal&& other) noexcept;
  Literal& operator=(const Literal& other);
  Literal& operator=(Literal&& other) noexcept;

  static Literal scalar_f64(double v);
  static Literal scalar_i64(std::int64_t v);
  static Literal scalar_pred(bool v);
  static Literal from_f64(Shape shape, std::span<const double> data);
  static Literal from_i64(Shape shape, std::span<const std::int64_t> data);
  /// Read-only views of caller memory, which must outlive the literal and
  /// hold `shape`'s element count.
  static Literal borrow(Shape shape, std::span<const double> data);
  static Literal borrow(Shape shape, std::span<const std::int64_t> data);
  /// Writable views of caller memory.
  static Literal borrow_writable(Shape shape, std::span<double> data);
  static Literal borrow_writable(Shape shape, std::span<std::int64_t> data);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  std::int64_t num_elements() const { return shape_.num_elements(); }
  std::size_t byte_size() const {
    return static_cast<std::size_t>(num_elements()) * dtype_size(dtype_);
  }
  bool borrowed() const { return storage_ != Storage::kOwned; }
  /// Owned storage and writable borrows may be written.
  bool writable() const { return storage_ != Storage::kReadOnly; }
  /// The first byte of the storage.
  const void* data() const;

  /// Reinterpret the storage as `shape`, which must hold as many
  /// elements.
  void reshape(Shape shape);

  /// Typed views of the storage; the mutable ones throw std::logic_error
  /// on a read-only borrow.
  std::span<double> f64();
  std::span<const double> f64() const;
  std::span<std::int64_t> i64();
  std::span<const std::int64_t> i64() const;
  std::span<std::uint8_t> pred();
  std::span<const std::uint8_t> pred() const;

  /// Element as double regardless of dtype (for folding and tests).
  double as_double(std::int64_t i) const;

 private:
  enum class Storage : std::uint8_t { kOwned, kReadOnly, kWritable };

  static Literal borrowed_view(Shape shape, DType dtype, void* data,
                               std::size_t size, Storage storage);
  template <class T>
  std::span<T> view(DType dtype, bool write) const;

  Shape shape_;
  DType dtype_;
  std::variant<std::vector<double>, std::vector<std::int64_t>,
               std::vector<std::uint8_t>>
      data_;
  Storage storage_ = Storage::kOwned;
  void* borrowed_ = nullptr;  // the caller memory, when borrowed
};

/// A (dtype, element count) buffer class and how many buffers of it a
/// BufferPool may keep.
struct BufferClass {
  DType dtype = DType::kF64;
  std::int64_t count = 0;
  std::size_t keep = 0;
};

/// Dead literal buffers kept for reuse, keyed by dtype and element count,
/// the way XLA's buffer assignment and JAX's preallocated pool avoid a
/// round trip to the allocator per value.  One pool belongs to one
/// xla::Runtime; it is not shared between threads.
class BufferPool {
 public:
  /// A literal of `shape` and `dtype` with unspecified contents: a pooled
  /// buffer of that dtype and element count when one is free, else a new
  /// one.
  Literal take(const Shape& shape, DType dtype);
  /// Keep the buffer of `l` for a later take().  A borrowed literal is
  /// dropped: its memory belongs to the caller.
  void give(Literal l);
  /// Drop every buffer of a class not listed in `keep`, and all but
  /// `keep` buffers of each listed class.
  void trim(std::span<const BufferClass> keep);

  /// Buffers held, over all classes.
  std::size_t buffers() const;

 private:
  std::map<std::pair<DType, std::int64_t>, std::vector<Literal>> free_;
};

}  // namespace toast::xla
