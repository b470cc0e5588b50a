// Minimal JSON support: a recursive-descent parser producing an immutable
// value tree, which reads shard manifests (src/report/shard.hpp), plus the
// string escaper the JSON writers share. Deliberately small — shard
// manifests are flat documents of strings, numbers, and short arrays — and
// dependency-free (no external JSON library in the toolchain image).
//
// Parsing limits (all produce a ConfigError, never UB): nesting depth 64,
// numbers must fit a double, \uXXXX escapes cover the BMP only (surrogate
// pairs are rejected — the documents are ASCII in practice).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace csim::json {

class Value;

/// Object members in document order (small documents: linear find beats a
/// map and keeps round-trips order-stable).
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

class Value {
 public:
  Value() : v_(nullptr) {}
  explicit Value(std::nullptr_t) : v_(nullptr) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(Array a) : v_(std::move(a)) {}
  explicit Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(v_);
  }

  // Typed accessors; precondition: the matching is_*() holds.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(v_);
  }

  /// Member lookup on an object value; null when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses one complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error). Throws ConfigError with a position-
/// annotated message on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// JSON string escaping (quotes, backslash, control characters) — the body
/// of a string literal, without the surrounding quotes.
[[nodiscard]] std::string escape(std::string_view s);

/// Convenience: `"key":` with the key escaped.
[[nodiscard]] std::string quoted(std::string_view s);

}  // namespace csim::json
