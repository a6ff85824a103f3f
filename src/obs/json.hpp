/// \file json.hpp
/// \brief Dependency-free JSON document model with a deterministic writer and
///        a strict parser.
///
/// The observability layer serializes run records to the stable
/// `veriqc-report/v1` schema; golden-file tests compare the emitted text
/// byte-for-byte. Two properties make that possible:
///  - objects preserve insertion order (stored as a vector of pairs, not a
///    hash map), so a report built in a fixed key order always serializes
///    identically, and
///  - doubles are printed in shortest round-trip form via std::to_chars,
///    which is deterministic across runs and platforms.
///
/// A node holds its value in one std::variant whose alternatives follow
/// Kind order, so a node costs its largest alternative (a std::string) plus
/// the index: 40 B on 64-bit libstdc++, and 72 B per object member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace veriqc::obs {

/// Raised by Json::parse on malformed input (with a byte offset) and by the
/// typed accessors on kind mismatches. The obs layer is dependency-free, so
/// this derives std::runtime_error directly rather than VeriqcError.
class JsonError : public std::runtime_error {
public:
  explicit JsonError(const std::string& msg) : std::runtime_error(msg) {}
};

/// One JSON value: null, boolean, number (integer or double), string, array
/// or object. Value semantics throughout; cheap enough for report-sized
/// documents (the writer and parser are not meant for bulk data).
class Json {
public:
  enum class Kind : std::uint8_t {
    Null,
    Boolean,
    Integer, ///< stored as int64; serialized without a decimal point
    Double,
    String,
    Array,
    Object,
  };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>; ///< insertion-ordered

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : value_(std::in_place_type<bool>, value) {}
  Json(double value) : value_(std::in_place_type<double>, value) {}
  Json(std::int64_t value) : value_(std::in_place_type<std::int64_t>, value) {}
  Json(int value) : Json(static_cast<std::int64_t>(value)) {}
  Json(std::size_t value) : Json(static_cast<std::int64_t>(value)) {}
  Json(const char* value) : value_(std::in_place_type<std::string>, value) {}
  Json(std::string value)
      : value_(std::in_place_type<std::string>, std::move(value)) {}
  Json(std::string_view value)
      : value_(std::in_place_type<std::string>, value) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.value_.emplace<Array>();
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.value_.emplace<Object>();
    return j;
  }

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool isNull() const noexcept { return kind() == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept {
    return kind() == Kind::Boolean;
  }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind() == Kind::Integer || kind() == Kind::Double;
  }
  [[nodiscard]] bool isInteger() const noexcept {
    return kind() == Kind::Integer;
  }
  [[nodiscard]] bool isString() const noexcept {
    return kind() == Kind::String;
  }
  [[nodiscard]] bool isArray() const noexcept { return kind() == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept {
    return kind() == Kind::Object;
  }

  /// \throws JsonError when the value is not of the requested kind.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] double asDouble() const; ///< integers widen losslessly
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Array/object element count; 0 for scalars.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Append to an array (converts a Null value into an empty array first).
  Json& push_back(Json value);

  /// Object member access, inserting a Null member when the key is absent
  /// (converts a Null value into an empty object first).
  Json& operator[](std::string_view key);

  /// True when an object has the given key (false for non-objects).
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Pointer to the member value, nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// \throws JsonError when the key is absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Structural equality; Integer and Double compare equal when the numeric
  /// values coincide (so parse(dump(x)) == x holds for integral doubles).
  friend bool operator==(const Json& lhs, const Json& rhs);

  /// Serialize. `indent` < 0 yields compact output; otherwise members and
  /// elements are broken onto lines indented by `indent` spaces per level.
  /// Non-finite doubles serialize as null (JSON has no NaN/Inf).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict JSON parser (no comments, no trailing commas).
  /// \throws JsonError on malformed input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

private:
  void dumpTo(std::string& out, int indent, int depth) const;

  /// Alternatives in Kind order: value_.index() is the Kind.
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      value_;
};

} // namespace veriqc::obs
