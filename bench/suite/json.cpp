#include "json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "obs/obs.hpp"

namespace blap::bench::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> document() {
    auto v = value(0);
    skip_ws();
    if (!v || pos_ != s_.size()) return std::nullopt;
    return v;
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Value> value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    Value v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = Value::Type::kObject;
      if (eat('}')) return v;
      do {
        skip_ws();
        auto key = string();
        if (!key || !eat(':')) return std::nullopt;
        auto member = value(depth + 1);
        if (!member) return std::nullopt;
        v.object[*key] = std::move(*member);
      } while (eat(','));
      if (!eat('}')) return std::nullopt;
    } else if (c == '[') {
      ++pos_;
      v.type = Value::Type::kArray;
      if (eat(']')) return v;
      do {
        auto element = value(depth + 1);
        if (!element) return std::nullopt;
        v.array.push_back(std::move(*element));
      } while (eat(','));
      if (!eat(']')) return std::nullopt;
    } else if (c == '"') {
      auto text = string();
      if (!text) return std::nullopt;
      v.type = Value::Type::kString;
      v.string = std::move(*text);
    } else if (literal("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Value::Type::kBool;
    } else if (literal("null")) {
      v.type = Value::Type::kNull;
    } else {
      const char* begin = s_.data() + pos_;
      const char* end = s_.data() + s_.size();
      const auto [ptr, ec] = std::from_chars(begin, end, v.number);
      if (ec != std::errc() || ptr == begin) return std::nullopt;
      pos_ += static_cast<std::size_t>(ptr - begin);
      v.type = Value::Type::kNumber;
    }
    return v;
  }

  std::optional<std::string> string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Only the escapes json_escape emits (control characters).
          if (pos_ + 4 > s_.size()) return std::nullopt;
          unsigned code = 0;
          const auto [ptr, ec] = std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || ptr != s_.data() + pos_ + 4 || code > 0x7F)
            return std::nullopt;
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser parser(text);
  auto v = parser.document();
  if (!v && error != nullptr) *error = "malformed JSON near byte " + std::to_string(parser.pos());
  return v;
}

std::string number(double value) {
  char buf[32];
  // Whole numbers (counts) print as integers: shortest round-trip form
  // would write 100000 as 1e+05, which readers then take for a float.
  if (std::isfinite(value) && std::trunc(value) == value && std::abs(value) < 0x1p53) {
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(value));
    return std::string(buf, ptr);
  }
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

std::string dump(const Value& v) {
  switch (v.type) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return v.boolean ? "true" : "false";
    case Value::Type::kNumber: return number(v.number);
    case Value::Type::kString: {
      std::string out = "\"";
      out += obs::json_escape(v.string);
      return out + "\"";
    }
    case Value::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ", ";
        out += dump(v.array[i]);
      }
      return out + "]";
    }
    case Value::Type::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : v.object) {
        if (out.size() > 1) out += ", ";
        out += '"';
        out += obs::json_escape(key);
        out += "\": ";
        out += dump(member);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace blap::bench::json
