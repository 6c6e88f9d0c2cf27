// A minimal JSON value with a parser and a writer: enough for
// BENCHMARK.json, the oracle file and the benchmark's own run records.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace goofi::bench {

class Json {
 public:
  Json() = default;
  Json(bool value) : type_(Type::kBool), bool_(value) {}  // NOLINT
  Json(double value) : type_(Type::kNumber), number_(value) {}  // NOLINT
  Json(int value) : Json(static_cast<double>(value)) {}  // NOLINT
  Json(std::uint64_t value) : Json(static_cast<double>(value)) {}  // NOLINT
  Json(std::string value)  // NOLINT
      : type_(Type::kString), string_(std::move(value)) {}
  Json(const char* value) : Json(std::string(value)) {}  // NOLINT

  static Json Array() {
    Json json;
    json.type_ = Type::kArray;
    return json;
  }
  static Json Object() {
    Json json;
    json.type_ = Type::kObject;
    return json;
  }

  bool is_object() const { return type_ == Type::kObject; }
  bool is_number() const { return type_ == Type::kNumber; }

  double number() const { return number_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  // Object members in insertion order.
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  // Object lookup; a shared null for a missing key or a non-object.
  const Json& operator[](std::string_view key) const {
    static const Json kNull;
    for (const auto& [name, value] : members_) {
      if (name == key) return value;
    }
    return kNull;
  }

  Json& Set(std::string key, Json value) {
    for (auto& member : members_) {
      if (member.first == key) {
        member.second = std::move(value);
        return *this;
      }
    }
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& Push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  // Compact one-line form: numbers keep every significant digit.
  std::string Dump() const {
    std::string out;
    DumpTo(out);
    return out;
  }

  static std::optional<Json> Parse(std::string_view text) {
    Parser parser{text};
    std::optional<Json> value = parser.Value();
    parser.SkipSpace();
    if (!value.has_value() || parser.pos != text.size()) return std::nullopt;
    return value;
  }

 private:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  void DumpTo(std::string& out) const {
    switch (type_) {
      case Type::kNull:
        out += "null";
        return;
      case Type::kBool:
        out += bool_ ? "true" : "false";
        return;
      case Type::kNumber: {
        if (!std::isfinite(number_)) {
          out += "null";
          return;
        }
        char buffer[40];
        if (number_ == std::floor(number_) && std::fabs(number_) < 1e15) {
          std::snprintf(buffer, sizeof buffer, "%.0f", number_);
        } else {
          std::snprintf(buffer, sizeof buffer, "%.17g", number_);
        }
        out += buffer;
        return;
      }
      case Type::kString:
        DumpString(out, string_);
        return;
      case Type::kArray:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
          if (i != 0) out += ", ";
          items_[i].DumpTo(out);
        }
        out += ']';
        return;
      case Type::kObject:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
          if (i != 0) out += ", ";
          DumpString(out, members_[i].first);
          out += ": ";
          members_[i].second.DumpTo(out);
        }
        out += '}';
        return;
    }
  }

  static void DumpString(std::string& out, const std::string& text) {
    out += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  struct Parser {
    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;

    void SkipSpace() {
      while (pos < text.size() &&
             (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
              text[pos] == '\r')) {
        ++pos;
      }
    }
    bool Consume(std::string_view token) {
      if (text.substr(pos, token.size()) != token) return false;
      pos += token.size();
      return true;
    }
    std::optional<std::string> String() {
      if (!Consume("\"")) return std::nullopt;
      std::string out;
      while (pos < text.size() && text[pos] != '"') {
        char c = text[pos++];
        if (c == '\\') {
          if (pos >= text.size()) return std::nullopt;
          c = text[pos++];
          switch (c) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
              // Only the ASCII range occurs in the files read here.
              if (pos + 4 > text.size()) return std::nullopt;
              const std::string hex(text.substr(pos, 4));
              pos += 4;
              out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
              break;
            }
            default: out += c;
          }
        } else {
          out += c;
        }
      }
      if (!Consume("\"")) return std::nullopt;
      return out;
    }
    std::optional<Json> Value() {
      if (++depth > 64) return std::nullopt;
      SkipSpace();
      std::optional<Json> value = ValueBody();
      --depth;
      return value;
    }
    std::optional<Json> ValueBody() {
      if (pos >= text.size()) return std::nullopt;
      const char c = text[pos];
      if (c == '{') {
        ++pos;
        Json object = Json::Object();
        SkipSpace();
        if (Consume("}")) return object;
        for (;;) {
          SkipSpace();
          std::optional<std::string> key = String();
          SkipSpace();
          if (!key.has_value() || !Consume(":")) return std::nullopt;
          std::optional<Json> member = Value();
          if (!member.has_value()) return std::nullopt;
          object.Set(std::move(*key), std::move(*member));
          SkipSpace();
          if (Consume("}")) return object;
          if (!Consume(",")) return std::nullopt;
        }
      }
      if (c == '[') {
        ++pos;
        Json array = Json::Array();
        SkipSpace();
        if (Consume("]")) return array;
        for (;;) {
          std::optional<Json> item = Value();
          if (!item.has_value()) return std::nullopt;
          array.Push(std::move(*item));
          SkipSpace();
          if (Consume("]")) return array;
          if (!Consume(",")) return std::nullopt;
        }
      }
      if (c == '"') {
        std::optional<std::string> text_value = String();
        if (!text_value.has_value()) return std::nullopt;
        return Json(std::move(*text_value));
      }
      if (Consume("true")) return Json(true);
      if (Consume("false")) return Json(false);
      if (Consume("null")) return Json();
      const std::string rest(text.substr(pos, 64));
      char* end = nullptr;
      const double number = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) return std::nullopt;
      pos += static_cast<std::size_t>(end - rest.c_str());
      return Json(number);
    }
  };

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace goofi::bench
