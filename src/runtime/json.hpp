// JSON string escaping shared by every JSON writer of the runtime: the
// trace file, the metrics JSONL exporter and the /stats.json endpoint.
// Operator and tenant names come from outside input (the XML), so control
// characters are escaped as \u00XX rather than dropped or passed through.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace ss::runtime {

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

}  // namespace ss::runtime
