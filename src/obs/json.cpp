#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace veriqc::obs {

namespace {

[[noreturn]] void kindError(const char* wanted, const Json::Kind got) {
  static constexpr const char* kKindNames[] = {
      "null", "boolean", "integer", "double", "string", "array", "object"};
  throw JsonError(std::string("json: expected ") + wanted + ", got " +
                  kKindNames[static_cast<std::size_t>(got)]);
}

void escapeString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\b':
      out += "\\b";
      break;
    case '\f':
      out += "\\f";
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
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out.push_back(c);
      }
    }
  }
  out.push_back('"');
}

void appendDouble(std::string& out, const double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ptr);
  // Keep the number recognizable as a double on re-parse ("1" -> "1.0") so
  // dump/parse round trips preserve the Integer/Double distinction visually;
  // structural equality treats them as equal either way.
  if (out.find_first_of(".eE", out.size() - static_cast<std::size_t>(
                                                ptr - buf)) ==
      std::string::npos) {
    out += ".0";
  }
}

/// Strict recursive-descent parser over a string_view.
class Parser {
public:
  explicit Parser(const std::string_view text) : text_(text) {}

  Json run() {
    auto value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(const char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(const std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parseValue() {
    skipWhitespace();
    switch (peek()) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return Json(parseString());
    case 't':
      if (consumeLiteral("true")) {
        return Json(true);
      }
      fail("invalid literal");
    case 'f':
      if (consumeLiteral("false")) {
        return Json(false);
      }
      fail("invalid literal");
    case 'n':
      if (consumeLiteral("null")) {
        return Json(nullptr);
      }
      fail("invalid literal");
    default:
      return parseNumber();
    }
  }

  std::string parseString() {
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
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
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
          fail("truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4U;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("invalid hex digit in \\u escape");
          }
        }
        // Encode the code point as UTF-8 (surrogate pairs are passed through
        // as two separate 3-byte sequences; reports only emit ASCII).
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6U)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12U)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6U) & 0x3FU)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
        }
        break;
      }
      default:
        fail("invalid escape character");
      }
    }
  }

  Json parseNumber() {
    const std::size_t begin = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const auto token = text_.substr(begin, pos_ - begin);
    if (token.empty() || token == "-") {
      fail("invalid number");
    }
    // JSON forbids leading zeros ("01") — from_chars would accept them.
    const auto digits = token[0] == '-' ? token.substr(1) : token;
    if (digits.size() > 1 && digits[0] == '0' && digits[1] >= '0' &&
        digits[1] <= '9') {
      fail("leading zero in number");
    }
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Out of int64 range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  Json parseArray() {
    expect('[');
    auto out = Json::array();
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parseValue());
      skipWhitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']' in array");
    }
  }

  Json parseObject() {
    expect('{');
    auto out = Json::object();
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skipWhitespace();
      auto key = parseString();
      skipWhitespace();
      expect(':');
      out[key] = parseValue();
      skipWhitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

} // namespace

bool Json::asBool() const {
  if (!isBool()) {
    kindError("boolean", kind());
  }
  return std::get<bool>(value_);
}

std::int64_t Json::asInt() const {
  if (!isInteger()) {
    kindError("integer", kind());
  }
  return std::get<std::int64_t>(value_);
}

double Json::asDouble() const {
  if (kind() == Kind::Double) {
    return std::get<double>(value_);
  }
  if (isInteger()) {
    return static_cast<double>(std::get<std::int64_t>(value_));
  }
  kindError("number", kind());
}

const std::string& Json::asString() const {
  if (!isString()) {
    kindError("string", kind());
  }
  return std::get<std::string>(value_);
}

const Json::Array& Json::asArray() const {
  if (!isArray()) {
    kindError("array", kind());
  }
  return std::get<Array>(value_);
}

const Json::Object& Json::asObject() const {
  if (!isObject()) {
    kindError("object", kind());
  }
  return std::get<Object>(value_);
}

std::size_t Json::size() const noexcept {
  if (isArray()) {
    return std::get<Array>(value_).size();
  }
  if (isObject()) {
    return std::get<Object>(value_).size();
  }
  return 0;
}

Json& Json::push_back(Json value) {
  if (isNull()) {
    value_.emplace<Array>();
  }
  if (!isArray()) {
    kindError("array", kind());
  }
  auto& array = std::get<Array>(value_);
  array.push_back(std::move(value));
  return array.back();
}

Json& Json::operator[](const std::string_view key) {
  if (isNull()) {
    value_.emplace<Object>();
  }
  if (!isObject()) {
    kindError("object", kind());
  }
  auto& object = std::get<Object>(value_);
  for (auto& [name, value] : object) {
    if (name == key) {
      return value;
    }
  }
  object.emplace_back(std::string(key), Json{});
  return object.back().second;
}

bool Json::contains(const std::string_view key) const noexcept {
  return find(key) != nullptr;
}

const Json* Json::find(const std::string_view key) const noexcept {
  if (!isObject()) {
    return nullptr;
  }
  for (const auto& [name, value] : std::get<Object>(value_)) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const Json& Json::at(const std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw JsonError("json: missing key '" + std::string(key) + "'");
  }
  return *value;
}

bool operator==(const Json& lhs, const Json& rhs) {
  if (lhs.isNumber() && rhs.isNumber()) {
    return lhs.asDouble() == rhs.asDouble();
  }
  return lhs.value_ == rhs.value_;
}

void Json::dumpTo(std::string& out, const int indent, const int depth) const {
  const auto newline = [&](const int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind()) {
  case Kind::Null:
    out += "null";
    break;
  case Kind::Boolean:
    out += std::get<bool>(value_) ? "true" : "false";
    break;
  case Kind::Integer: {
    char buf[24];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), std::get<std::int64_t>(value_));
    out.append(buf, ptr);
    break;
  }
  case Kind::Double:
    appendDouble(out, std::get<double>(value_));
    break;
  case Kind::String:
    escapeString(out, std::get<std::string>(value_));
    break;
  case Kind::Array: {
    const auto& array = std::get<Array>(value_);
    if (array.empty()) {
      out += "[]";
      break;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      newline(depth + 1);
      array[i].dumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
    break;
  }
  case Kind::Object: {
    const auto& object = std::get<Object>(value_);
    if (object.empty()) {
      out += "{}";
      break;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < object.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      newline(depth + 1);
      escapeString(out, object[i].first);
      out.push_back(':');
      if (indent >= 0) {
        out.push_back(' ');
      }
      object[i].second.dumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
    break;
  }
  }
}

std::string Json::dump(const int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

Json Json::parse(const std::string_view text) { return Parser(text).run(); }

} // namespace veriqc::obs
