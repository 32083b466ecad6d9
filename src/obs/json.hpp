#pragma once

// Minimal JSON value + recursive-descent parser, enough to read back the
// trace/metrics files the exporters write (toast-trace CLI, round-trip
// tests, scripts), plus the one strict typed Reader every schema parser
// (schedule, fault plan, resilience policy, schedule library, serve
// spec) reads its document through.  No external dependencies.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace toast::obs::json {

class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member or nullptr.
  const Value* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  /// Object member; throws if absent.
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    if (v == nullptr) {
      throw ParseError("missing key: " + key);
    }
    return *v;
  }
  double number_or(const std::string& key, double fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }
  /// This value as an integer of magnitude at most kMaxExactInteger;
  /// throws ParseError naming `what` for anything else.
  std::int64_t as_integer(const std::string& what) const;
  /// Integer member `key` (see as_integer), or `fallback` when absent.
  std::int64_t integer_or(const std::string& key,
                          std::int64_t fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_integer("'" + key + "'") : fallback;
  }

  /// Parse a complete JSON document; throws ParseError on malformed input,
  /// nesting deeper than 256, a repeated object key or a number that
  /// overflows a double.
  static Value parse(const std::string& text);
};

/// Escape a string for embedding in a JSON document (no quotes added).
std::string escape(const std::string& s);

/// Load and parse a JSON file; throws on I/O or parse failure.
Value load_file(const std::string& path);

/// One entry of an enum's name table: the JSON spelling and the value.
template <class E>
using Name = std::pair<const char*, E>;

/// The spelling of `value` in `names`, or "unknown".
template <class E, std::size_t N>
const char* name_of(const Name<E> (&names)[N], E value) {
  for (const auto& [name, v] : names) {
    if (v == value) {
      return name;
    }
  }
  return "unknown";
}

/// Largest integer a double holds exactly (2^53): the upper bound of
/// 64-bit integer members such as seeds.
inline constexpr std::uint64_t kMaxExactInteger = 1ull << 53;

/// Strict, typed view of one object of a schema document.
///
/// Construction rejects keys outside the known set.  Each accessor checks
/// the member's type (and range, for numbers) and returns the fallback
/// when an optional member is absent; integers are range-checked before
/// any cast.  Every error is a ParseError naming where the value lives:
/// the document, the array element holding it and the key path inside
/// that element, e.g.
///
///   serve spec: jobs[1]: 'pipeline' must be staged|overlap, got 'graph'
///   tuned.json: 'staging.prefetch' must be a boolean
///
/// A child view points at its parent, which must outlive it.  Paths are
/// rendered only when an error is thrown.
class Reader {
 public:
  using Keys = std::initializer_list<const char*>;

  /// View of a whole document: `doc` must be an object whose "schema" is
  /// `schema` and whose other keys are all in `known`.  `where` names the
  /// document in errors and must outlive the view.
  Reader(const Value& doc, const std::string& where, const char* schema,
         Keys known);

  bool has(const char* key) const { return obj_->find(key) != nullptr; }
  /// A member handed whole to another document parser (nullptr when
  /// absent); path(key) is the `where` to give it.
  const Value* find(const char* key) const { return obj_->find(key); }
  std::string path(const char* key) const;

  /// Required string.
  std::string string(const char* key) const;
  std::string string(const char* key, std::string fallback) const;
  bool boolean(const char* key, bool fallback) const;
  /// A number in [lo, hi].
  double number(const char* key, double fallback, double lo,
                double hi) const;
  /// An integer in [lo, hi]; |lo| and |hi| must not exceed
  /// kMaxExactInteger, so the checked value always fits T.
  template <class T>
  T integer(const char* key, T fallback, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi) const {
    static_assert(std::is_integral_v<T>);
    return static_cast<T>(checked_integer(key, static_cast<double>(fallback),
                                          static_cast<double>(lo),
                                          static_cast<double>(hi)));
  }
  /// A string member spelled as one of `names`; required when no
  /// fallback is given.
  template <class E, std::size_t N>
  E enumeration(const char* key, const Name<E> (&names)[N],
                std::type_identity_t<std::optional<E>> fallback = {}) const {
    const Value* m = member(key, Value::Type::kString, "a string");
    if (m == nullptr) {
      if (!fallback) {
        fail(key, "is required");
      }
      return *fallback;
    }
    for (const auto& [name, value] : names) {
      if (m->string == name) {
        return value;
      }
    }
    std::string expected;
    for (const auto& [name, value] : names) {
      if (!expected.empty()) {
        expected += '|';
      }
      expected += name;
    }
    fail(key, "must be " + expected + ", got '" + m->string + "'");
  }

  /// Optional nested object whose keys are all in `known`.
  std::optional<Reader> object(const char* key, Keys known) const;
  /// Calls `each(element)` for every element of the optional array
  /// `key`; each element must be an object whose keys are all in
  /// `known`.  Returns the element count.
  template <class F>
  std::size_t objects(const char* key, Keys known, F&& each) const {
    const Value* m = member(key, Value::Type::kArray, "an array");
    if (m == nullptr) {
      return 0;
    }
    for (std::size_t i = 0; i < m->array.size(); ++i) {
      each(Reader(m->array[i], this, key, i, &known));
    }
    return m->array.size();
  }
  /// Calls `each(name, element)` for every member of the optional object
  /// `key`, an object of objects under open names (e.g. metric
  /// categories).  Each element must be an object; its keys are open.
  template <class F>
  void named_objects(const char* key, F&& each) const {
    const Value* m = member(key, Value::Type::kObject, "an object");
    if (m == nullptr) {
      return;
    }
    const Reader group(*m, this, key, kNoIndex, nullptr);
    for (const auto& [name, element] : m->object) {
      each(name, Reader(element, &group, name.c_str(), kNoIndex, nullptr));
    }
  }
  /// Calls `each(key)` for every key of this view, in sorted order.
  template <class F>
  void for_each_key(F&& each) const {
    for (const auto& member : obj_->object) {
      each(member.first);
    }
  }

  /// Throws a ParseError naming member `key` (the view itself when
  /// nullptr) followed by `what`.
  [[noreturn]] void fail(const char* key, const std::string& what) const;

 private:
  /// A child view; `known` == nullptr leaves its keys open.
  Reader(const Value& obj, const Reader* parent, const char* key,
         std::size_t index, const Keys* known);
  void reject_unknown(Keys known, const char* schema) const;
  /// Member `key`, or nullptr when absent; a member of another type is
  /// an error.
  const Value* member(const char* key, Value::Type type,
                      const char* type_name) const;
  double checked_integer(const char* key, double fallback, double lo,
                         double hi) const;
  void locate(std::string& element, std::string& keys) const;

  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  const Value* obj_;
  const std::string* where_;
  const Reader* parent_ = nullptr;
  const char* key_ = nullptr;    ///< member key in the parent
  std::size_t index_ = kNoIndex;  ///< element index when key_ is an array
};

}  // namespace toast::obs::json
