// Minimal JSON emission for the benchmark's result, provenance and
// digest lines: string escaping and shortest round-trip numbers, so a
// measured value is printed with all its digits.
#pragma once

#include <charconv>
#include <cstdio>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest decimal that reads back to the same double. Non-finite
/// values have no JSON form and print as null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string encoded) {
    fields_.emplace_back(std::string(key), std::move(encoded));
    return *this;
  }
  JsonObject& str(std::string_view key, std::string_view v) { return raw(key, json_string(v)); }
  JsonObject& num(std::string_view key, double v) { return raw(key, json_number(v)); }
  JsonObject& integer(std::string_view key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }

  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
