#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace toast::obs::json {

namespace {

/// Deepest array/object nesting accepted.  Recursion depth is bounded by
/// it, so a hostile document fails with a ParseError instead of
/// overflowing the stack.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!v.object.emplace(key, parse_value()).second) {
        fail("duplicate key: " + key);
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
          }
          const unsigned long cp =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Keep it simple: encode BMP code points as UTF-8.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    Value v;
    v.type = Value::Type::kNumber;
    char* end = nullptr;
    const std::string num = text_.substr(start, pos_ - start);
    v.number = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number: " + num);
    }
    if (!std::isfinite(v.number)) {
      fail("number out of range: " + num);
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Value load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Value::parse(buf.str());
}

namespace {

std::string fmt(const char* format, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Appends `key` to a dotted key path (an empty key adds nothing).
void append(std::string& path, const char* key) {
  if (*key == '\0') {
    return;
  }
  if (!path.empty()) {
    path += '.';
  }
  path += key;
}

}  // namespace

std::int64_t Value::as_integer(const std::string& what) const {
  const double lim = static_cast<double>(kMaxExactInteger);
  if (!is_number() || !(number >= -lim && number <= lim) ||
      number != std::floor(number)) {
    throw ParseError(what + " must be an integer in [" + fmt("%.0f", -lim) +
                     ", " + fmt("%.0f", lim) + "]");
  }
  return static_cast<std::int64_t>(number);
}

Reader::Reader(const Value& doc, const std::string& where, const char* schema,
               Keys known)
    : obj_(&doc), where_(&where) {
  if (!doc.is_object()) {
    fail(nullptr, "must be an object");
  }
  const Value* tag = doc.find("schema");
  if (tag == nullptr || tag->string != schema) {
    fail("schema", std::string("must be ") + schema);
  }
  reject_unknown(known, schema);
}

Reader::Reader(const Value& obj, const Reader* parent, const char* key,
               std::size_t index, const Keys* known)
    : obj_(&obj),
      where_(parent->where_),
      parent_(parent),
      key_(key),
      index_(index) {
  if (!obj.is_object()) {
    fail(nullptr, "must be an object");
  }
  if (known != nullptr) {
    reject_unknown(*known, nullptr);
  }
}

void Reader::reject_unknown(Keys known, const char* schema) const {
  for (const auto& member : obj_->object) {
    const std::string& key = member.first;
    const auto is_key = [&key](const char* k) { return key == k; };
    if (!(schema != nullptr && key == "schema") &&
        std::none_of(known.begin(), known.end(), is_key)) {
      fail(key.c_str(), "is not a known key");
    }
  }
}

const Value* Reader::member(const char* key, Value::Type type,
                            const char* type_name) const {
  const Value* m = obj_->find(key);
  if (m != nullptr && m->type != type) {
    fail(key, std::string("must be ") + type_name);
  }
  return m;
}

std::string Reader::string(const char* key) const {
  const Value* m = member(key, Value::Type::kString, "a string");
  if (m == nullptr) {
    fail(key, "is required");
  }
  return m->string;
}

std::string Reader::string(const char* key, std::string fallback) const {
  const Value* m = member(key, Value::Type::kString, "a string");
  return m != nullptr ? m->string : std::move(fallback);
}

bool Reader::boolean(const char* key, bool fallback) const {
  const Value* m = member(key, Value::Type::kBool, "a boolean");
  return m != nullptr ? m->boolean : fallback;
}

double Reader::number(const char* key, double fallback, double lo,
                      double hi) const {
  const Value* m = member(key, Value::Type::kNumber, "a number");
  if (m == nullptr) {
    return fallback;
  }
  if (!(m->number >= lo && m->number <= hi)) {
    fail(key, hi < DBL_MAX ? "must be a number in [" + fmt("%g", lo) + ", " +
                                 fmt("%g", hi) + "]"
                           : "must be a number >= " + fmt("%g", lo));
  }
  return m->number;
}

double Reader::checked_integer(const char* key, double fallback, double lo,
                               double hi) const {
  const Value* m = member(key, Value::Type::kNumber, "a number");
  if (m == nullptr) {
    return fallback;
  }
  const double v = m->number;
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    fail(key, "must be an integer in [" + fmt("%.0f", lo) + ", " +
                  fmt("%.0f", hi) + "]");
  }
  return v;
}

std::optional<Reader> Reader::object(const char* key, Keys known) const {
  const Value* m = member(key, Value::Type::kObject, "an object");
  if (m == nullptr) {
    return std::nullopt;
  }
  return Reader(*m, this, key, kNoIndex, &known);
}

/// `element` gets the path up to the innermost array element holding
/// this view, `keys` the key path from there down to the view.
void Reader::locate(std::string& element, std::string& keys) const {
  if (parent_ == nullptr) {
    return;
  }
  parent_->locate(element, keys);
  if (index_ == kNoIndex) {
    append(keys, key_);
    return;
  }
  append(element, keys.c_str());
  keys.clear();
  append(element, key_);
  element.append("[").append(std::to_string(index_)).append("]");
}

std::string Reader::path(const char* key) const {
  std::string element;
  std::string keys;
  locate(element, keys);
  append(element, keys.c_str());
  append(element, key);
  return *where_ + ": " + element;
}

void Reader::fail(const char* key, const std::string& what) const {
  std::string element;
  std::string keys;
  locate(element, keys);
  if (key != nullptr) {
    append(keys, key);
  }
  std::string msg = *where_;
  if (!element.empty()) {
    msg += ": " + element;
  }
  if (!keys.empty()) {
    msg += ": '" + keys + "'";
  }
  throw ParseError(msg + " " + what);
}

}  // namespace toast::obs::json
