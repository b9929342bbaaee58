#include "telemetry/registry.hpp"

#include <algorithm>
#include <ostream>

#include "common/json.hpp"

namespace arcane::telemetry {

Registry::Entries Registry::collect() const {
  Entries out;
  for (const Group& g : groups_) {
    const unsigned n = g.count();
    for (unsigned i = 0; i < n; ++i) {
      std::string p = g.prefix;
      if (const auto at = p.find("<i>"); at != std::string::npos) {
        p.replace(at, 3, std::to_string(i));
      }
      g.read(i, p, out);
    }
  }
  return out;
}

std::uint64_t Registry::value(const std::string& name) const {
  for (const auto& [n, v] : collect()) {
    if (n == name) return v;
  }
  return 0;
}

Registry::Entries Registry::snapshot() const {
  Entries out = collect();
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Registry::write_json(std::ostream& os) const {
  os << "{\n  \"scalars\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot()) {
    os << (first ? "\n    " : ",\n    ") << '"' << json_escape(name)
       << "\": " << v;
    first = false;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace arcane::telemetry
