#include "fault/fault_spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>

namespace dyngossip {

namespace {

constexpr const char* kFamily = "fault";

/// Shortest decimal rendering that still round-trips the exact double, so
/// canonical specs read `drop=0.05`, never `drop=0.050000000000000003`.
[[nodiscard]] std::string render_fraction(double value) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

[[nodiscard]] bool known_fault_key(const std::string& key) {
  for (const SpecKey& k : fault_spec_keys()) {
    if (k.key == key) return true;
  }
  return false;
}

}  // namespace

const std::vector<SpecKey>& fault_spec_keys() {
  static const std::vector<SpecKey> keys = {
      {"drop", SpecKey::Kind::kDouble, "0",
       "per-delivery message-loss probability in [0, 1]"},
      {"crash", SpecKey::Kind::kDouble, "0",
       "per-round crash probability of each live node"},
      {"recover", SpecKey::Kind::kDouble, "0",
       "per-round recovery probability of each crashed node"},
      {"dup", SpecKey::Kind::kDouble, "0",
       "per-delivery duplication probability (drop + dup <= 1)"},
      {"amnesia", SpecKey::Kind::kBool, "0",
       "crashed nodes lose their knowledge instead of retaining it"},
      {"seed", SpecKey::Kind::kInt, "(trial seed)",
       "pins the fault decision stream (default: the per-trial seed)"},
  };
  return keys;
}

SpecFamilyDoc fault_family_doc() {
  return {kFamily,
          "deterministic execution faults: message drop/duplication and node "
          "crash/recovery, position-keyed so runs are bit-identical at any "
          "thread count",
          "fault:drop=0.05,crash=0.001,recover=0.1,seed=7",
          &fault_spec_keys()};
}

FaultSpec FaultSpec::parse(const std::string& text) {
  if (text.empty()) {
    throw FaultSpecError(
        "empty fault spec (expected fault:key=value,... or the bare "
        "key=value,... shorthand — see `dyngossip faults`)");
  }
  // `--fault=drop=0.05,seed=7` shorthand: a bare parameter list is treated
  // as the (only) fault family.  Anything else must name the family.
  std::string full = text;
  const bool named =
      text.rfind(kFamily, 0) == 0 && (text.size() == 5 || text[5] == ':');
  if (!named) full = std::string(kFamily) + ":" + text;

  std::string family;
  std::map<std::string, std::string> params;
  const std::string err = parse_spec_text(full, "fault", &family, &params);
  if (!err.empty()) throw FaultSpecError(err);
  if (family != kFamily) {
    throw FaultSpecError("bad fault spec '" + text + "': unknown family '" +
                         family + "' (the only fault family is 'fault')");
  }
  for (const auto& [key, value] : params) {
    (void)value;
    if (!known_fault_key(key)) {
      std::string known;
      for (const SpecKey& k : fault_spec_keys()) {
        if (!known.empty()) known += ", ";
        known += k.key;
      }
      throw FaultSpecError("bad fault spec '" + text + "': unknown key '" +
                           key + "' (known: " + known + ")");
    }
  }

  SpecValues values(kFamily, params,
                    [](const std::string& msg) { throw FaultSpecError(msg); });
  FaultSpec spec;
  spec.drop = values.get_fraction("drop", 0.0);
  spec.crash = values.get_fraction("crash", 0.0);
  spec.recover = values.get_fraction("recover", 0.0);
  spec.dup = values.get_fraction("dup", 0.0);
  spec.amnesia = values.get_bool("amnesia", false);
  spec.has_seed = values.has("seed");
  if (spec.has_seed) {
    const std::int64_t s = values.get_int("seed", 0);
    if (s < 0) {
      throw FaultSpecError("fault: seed must be >= 0, got " +
                           std::to_string(s));
    }
    spec.seed = static_cast<std::uint64_t>(s);
  }
  if (spec.drop + spec.dup > 1.0) {
    throw FaultSpecError(
        "fault: drop + dup must be <= 1 (they partition one per-delivery "
        "roll), got drop=" +
        render_spec_double(spec.drop) + " dup=" + render_spec_double(spec.dup));
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::map<std::string, std::string> params;
  if (drop > 0.0) params["drop"] = render_fraction(drop);
  if (crash > 0.0) params["crash"] = render_fraction(crash);
  if (recover > 0.0) params["recover"] = render_fraction(recover);
  if (dup > 0.0) params["dup"] = render_fraction(dup);
  if (amnesia) params.emplace("amnesia", "1");
  if (has_seed) params["seed"] = std::to_string(seed);
  return render_spec_text(kFamily, params);
}

bool operator==(const FaultSpec& a, const FaultSpec& b) {
  return a.drop == b.drop && a.crash == b.crash && a.recover == b.recover &&
         a.dup == b.dup && a.amnesia == b.amnesia && a.has_seed == b.has_seed &&
         (!a.has_seed || a.seed == b.seed);
}

}  // namespace dyngossip
