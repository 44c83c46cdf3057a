// Shared `family[:key=value,...]` spec grammar.
//
// The adversary registry (PR 4) and the algorithm registry both expose the
// same textual surface: a family name plus unordered key=value parameters,
// strictly parsed, canonically rendered (keys sorted, no spaces) so
// parse(s).to_string() round-trips.  The grammar itself lives here once;
// each registry wraps it in its own spec type with its own error class so
// CLI layers can keep distinguishing "bad adversary spec" from "bad
// algorithm spec" exit paths.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace dyngossip {

/// One declared key of a spec family (documentation + validation).  Both
/// registries alias this (AdversaryKeySpec, AlgoKeySpec) so listing code is
/// shared shape-wise.
struct SpecKey {
  /// Value shape the key expects; drives CLI listing text only (parsing is
  /// strict per-getter, see SpecValues).
  enum class Kind { kInt, kDouble, kBool, kString };

  std::string key;            ///< parameter name ([a-z0-9_]+)
  Kind kind = Kind::kInt;     ///< declared value shape
  std::string default_value;  ///< rendered in the CLI listings
  std::string help;           ///< one line for `dyngossip adversaries/algorithms`
};

/// Listing entry of a single-family spec axis (`dyngossip faults` /
/// `dyngossip probes`): the family's documentation plus its declared keys.
struct SpecFamilyDoc {
  std::string name;
  std::string description;
  std::string example;
  const std::vector<SpecKey>* keys = nullptr;
};

/// Human-readable name of a SpecKey::Kind ("int", "double", ...).
[[nodiscard]] const char* spec_key_kind_name(SpecKey::Kind kind);

/// True iff `name` is a valid family or key name ([a-z0-9_]+).
[[nodiscard]] bool valid_spec_name(const std::string& name);

/// Parses `family[:key=value[,key=value...]]` into *family / *params.
/// Returns "" on success; otherwise an error message prefixed with
/// "bad <noun> spec '<text>'" naming the offending part (the caller wraps
/// it in its registry's error type).
[[nodiscard]] std::string parse_spec_text(const std::string& text, const char* noun,
                                          std::string* family,
                                          std::map<std::string, std::string>* params);

/// Canonical `family:k=v,k=v` rendering (keys sorted by map order, no
/// spaces; a param-less spec renders as the bare family name).
[[nodiscard]] std::string render_spec_text(
    const std::string& family, const std::map<std::string, std::string>& params);

/// Exact-round-trip double rendering for spec params (%.17g).
[[nodiscard]] std::string render_spec_double(double value);

/// Typed access to a parsed spec's params.  Values are parsed strictly
/// (the whole token must consume) so `rate=0.01x` is a spec error, not a
/// silent truncation.  Both registries' readers derive from this; `fail`
/// must throw the caller's spec-error type (it is invoked with a complete
/// message and never expected to return).
class SpecValues {
 public:
  /// Wraps `params` (not copied — must outlive this reader); `fail` is
  /// called with a complete message on any malformed value and must throw.
  SpecValues(std::string family, const std::map<std::string, std::string>& params,
             std::function<void(const std::string&)> fail)
      : family_(std::move(family)), params_(&params), fail_(std::move(fail)) {}

  /// True iff the spec supplied `key` explicitly.
  [[nodiscard]] bool has(const std::string& key) const {
    return params_->count(key) != 0u;
  }

  /// Raw string value, or `def` when absent.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def) const;
  /// Strictly parsed integer, or `def` when absent; fails on trailing text.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def) const;
  /// get_int plus a non-negativity check (size-shaped keys).
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t def) const;
  /// Strictly parsed double, or `def` when absent; fails on trailing text.
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  /// get_double plus [0, 1] validation — fraction-shaped keys (rate,
  /// turnover, p) would otherwise hit UB casting a negative double to
  /// size_t (and a fraction above 1 is meaningless for all of them).
  [[nodiscard]] double get_fraction(const std::string& key, double def) const;
  /// Accepts true/false/1/0, or `def` when absent.
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

 protected:
  /// Family name for error-message prefixes.
  [[nodiscard]] const std::string& spec_family() const noexcept { return family_; }
  /// Routes `msg` through the fail callback (always throws).
  [[noreturn]] void spec_fail(const std::string& msg) const;

 private:
  std::string family_;
  const std::map<std::string, std::string>* params_;
  std::function<void(const std::string&)> fail_;
};

}  // namespace dyngossip
