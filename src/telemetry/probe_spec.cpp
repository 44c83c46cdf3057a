#include "telemetry/probe_spec.hpp"

#include <map>

namespace dyngossip {

namespace {

constexpr const char* kFamily = "round_series";
constexpr std::size_t kFamilyLen = 12;  // strlen("round_series")

[[nodiscard]] bool known_probe_key(const std::string& key) {
  for (const SpecKey& k : probe_spec_keys()) {
    if (k.key == key) return true;
  }
  return false;
}

}  // namespace

const std::vector<SpecKey>& probe_spec_keys() {
  static const std::vector<SpecKey> keys = {
      {"out", SpecKey::Kind::kString, "probe.jsonl",
       "series output path ('-' writes to stdout)"},
      {"format", SpecKey::Kind::kString, "jsonl",
       "row encoding: jsonl | csv"},
      {"every", SpecKey::Kind::kInt, "1",
       "sample stride in rounds (1: every round; totals are always exact)"},
  };
  return keys;
}

SpecFamilyDoc probe_family_doc() {
  return {kFamily,
          "per-round structured series: coverage, learnings, messages "
          "sent/dropped/duplicated, requests issued/served, edge churn, and "
          "crashed-node count — observation never perturbs the run",
          "round_series:out=series.jsonl,every=1",
          &probe_spec_keys()};
}

ProbeSpec ProbeSpec::parse(const std::string& text) {
  if (text.empty()) {
    throw ProbeSpecError(
        "empty probe spec (expected round_series:key=value,... or the bare "
        "key=value,... shorthand — see `dyngossip probes`)");
  }
  // `--probe=out=series.csv,format=csv` shorthand: a bare parameter list is
  // treated as the (only) probe family.  Anything else must name it.
  std::string full = text;
  const bool named = text.rfind(kFamily, 0) == 0 &&
                     (text.size() == kFamilyLen || text[kFamilyLen] == ':');
  if (!named) full = std::string(kFamily) + ":" + text;

  std::string family;
  std::map<std::string, std::string> params;
  const std::string err = parse_spec_text(full, "probe", &family, &params);
  if (!err.empty()) throw ProbeSpecError(err);
  if (family != kFamily) {
    throw ProbeSpecError("bad probe spec '" + text + "': unknown family '" +
                         family +
                         "' (the only probe family is 'round_series')");
  }
  for (const auto& [key, value] : params) {
    (void)value;
    if (!known_probe_key(key)) {
      std::string known;
      for (const SpecKey& k : probe_spec_keys()) {
        if (!known.empty()) known += ", ";
        known += k.key;
      }
      throw ProbeSpecError("bad probe spec '" + text + "': unknown key '" +
                           key + "' (known: " + known + ")");
    }
  }

  SpecValues values(kFamily, params,
                    [](const std::string& msg) { throw ProbeSpecError(msg); });
  ProbeSpec spec;
  spec.out = values.get_string("out", spec.out);
  if (spec.out.empty()) {
    throw ProbeSpecError("round_series: out must not be empty");
  }
  const std::string format = values.get_string("format", "jsonl");
  if (format == "jsonl") {
    spec.format = Format::kJsonl;
  } else if (format == "csv") {
    spec.format = Format::kCsv;
  } else {
    throw ProbeSpecError("round_series: format must be jsonl or csv (got '" +
                         format + "')");
  }
  const std::int64_t every = values.get_int("every", 1);
  if (every < 1) {
    throw ProbeSpecError("round_series: every must be >= 1, got " +
                         std::to_string(every));
  }
  spec.every = static_cast<std::uint64_t>(every);
  return spec;
}

std::string ProbeSpec::to_string() const {
  std::map<std::string, std::string> params;
  if (out != "probe.jsonl") params["out"] = out;
  if (format == Format::kCsv) params["format"] = "csv";
  if (every != 1) params["every"] = std::to_string(every);
  return render_spec_text(kFamily, params);
}

bool operator==(const ProbeSpec& a, const ProbeSpec& b) {
  return a.out == b.out && a.format == b.format && a.every == b.every;
}

}  // namespace dyngossip
