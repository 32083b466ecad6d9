#pragma once

// Minimal JSON value + recursive-descent parser, enough to read back the
// trace/metrics files the exporters write (toast-trace CLI, round-trip
// tests, scripts).  No external dependencies.

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
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

  /// Parse a complete JSON document; throws ParseError on malformed input,
  /// nesting deeper than 256, a repeated object key or a number that
  /// overflows a double.
  static Value parse(const std::string& text);
};

/// Escape a string for embedding in a JSON document (no quotes added).
std::string escape(const std::string& s);

/// Load and parse a JSON file; throws on I/O or parse failure.
Value load_file(const std::string& path);

}  // namespace toast::obs::json
