#include "trace/trace_format.hpp"

#include <cstdio>
#include <sstream>

#include "common/rng.hpp"

namespace dyngossip {

void TraceChecksum::fold(std::uint64_t x) noexcept {
  std::uint64_t mixed = state_ ^ x;
  state_ = splitmix64(mixed);
}

std::string checksum_hex(std::uint64_t checksum) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

std::map<std::string, std::string> parse_trace_metadata(const std::string& metadata) {
  std::map<std::string, std::string> out;
  std::istringstream in(metadata);
  std::string item;
  while (in >> item) {
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos && eq > 0) {
      out[item.substr(0, eq)] = item.substr(eq + 1);
    }
  }
  return out;
}

std::int64_t trace_metadata_int(const std::map<std::string, std::string>& meta,
                                const std::string& key, std::int64_t def) {
  const auto it = meta.find(key);
  if (it == meta.end()) return def;
  try {
    return static_cast<std::int64_t>(std::stoll(it->second));
  } catch (const std::exception&) {
    return def;
  }
}

}  // namespace dyngossip
