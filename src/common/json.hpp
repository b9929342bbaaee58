// JSON string escaping shared by every JSON writer in the repo: the
// metrics registry dump, the Perfetto trace exporter and the bench
// harness.
#ifndef ARCANE_COMMON_JSON_HPP_
#define ARCANE_COMMON_JSON_HPP_

#include <cstdio>
#include <string>
#include <string_view>

namespace arcane {

/// `s` as the body of a JSON string literal (no surrounding quotes): quotes
/// and backslashes are escaped, `\n`/`\t` use their short forms and every
/// other control character becomes `\u00XX`.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace arcane

#endif  // ARCANE_COMMON_JSON_HPP_
