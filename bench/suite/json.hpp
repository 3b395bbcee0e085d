// json.hpp — the small JSON reader blap_bench needs to read back its own
// results files (--compare, --json append, the all-workloads run). Not a general
// library: no streaming, numbers are doubles.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace blap::bench::json {

struct Value {
  enum class Type : unsigned char { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Member lookup; nullptr when this is not an object or the key is absent.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Parse one JSON document; nullopt (and the byte offset in `error`) on
/// malformed input or trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Serialize compactly, keys in sorted order.
[[nodiscard]] std::string dump(const Value& value);

/// Shortest decimal text that reads back as exactly `value`.
[[nodiscard]] std::string number(double value);

}  // namespace blap::bench::json
