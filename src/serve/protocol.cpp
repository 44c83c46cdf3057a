#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "metrics/accounting.hpp"
#include "trace/trace_format.hpp"

namespace dyngossip {

namespace {

[[nodiscard]] JsonValue num(std::uint64_t v) {
  return JsonValue::number(static_cast<double>(v));
}

/// The largest integer a JSON number (a double) carries exactly.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

/// A non-negative integral field no larger than `max` (at most
/// kMaxExactInteger), checked before the caller narrows it to the field's
/// type, so an out-of-range or fractional value never wraps or truncates
/// into range.
[[nodiscard]] std::uint64_t u64_field(const JsonValue& doc, const char* name,
                                      std::uint64_t def, bool required,
                                      std::uint64_t max = kMaxExactInteger) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) {
    if (required) {
      throw std::runtime_error(std::string("request missing field '") + name +
                               "'");
    }
    return def;
  }
  // A non-number reads as -1 and fails the same check as a negative value.
  const double d = v->type() == JsonValue::Type::kNumber ? v->as_number() : -1.0;
  if (!(d >= 0) || d != std::floor(d) || d > static_cast<double>(max)) {
    throw std::runtime_error(std::string("request field '") + name +
                             "' must be an integer in [0, " +
                             std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(d);
}

[[nodiscard]] std::string str_field(const JsonValue& doc, const char* name,
                                    const std::string& def, bool required) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) {
    if (required) {
      throw std::runtime_error(std::string("request missing field '") + name +
                               "'");
    }
    return def;
  }
  if (v->type() != JsonValue::Type::kString) {
    throw std::runtime_error(std::string("request field '") + name +
                             "' must be a string");
  }
  return v->as_string();
}

}  // namespace

std::string encode_sweep_request(const SweepRequest& req) {
  JsonValue doc = JsonValue::object();
  doc.set("algo", JsonValue::str(req.algo));
  doc.set("adversary", JsonValue::str(req.adversary));
  doc.set("fault", JsonValue::str(req.fault));
  doc.set("n", num(req.n));
  doc.set("k", num(req.k));
  doc.set("sources", num(req.sources));
  doc.set("cap", num(req.cap));
  doc.set("trials", num(req.trials));
  doc.set("seed_base", num(req.seed_base));
  return doc.dump();
}

SweepRequest decode_sweep_request(const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("request is not valid JSON: ") +
                             e.what());
  }
  SweepRequest req;
  req.algo = str_field(doc, "algo", req.algo, false);
  req.adversary = str_field(doc, "adversary", "", true);
  req.fault = str_field(doc, "fault", req.fault, false);
  req.n = static_cast<std::size_t>(u64_field(doc, "n", 0, true));
  req.k = static_cast<std::uint32_t>(
      u64_field(doc, "k", 0, true, std::numeric_limits<std::uint32_t>::max()));
  req.sources = static_cast<std::size_t>(u64_field(doc, "sources", 4, false));
  req.cap = static_cast<Round>(
      u64_field(doc, "cap", 0, false, std::numeric_limits<Round>::max()));
  req.trials = static_cast<std::size_t>(u64_field(doc, "trials", 1, false));
  req.seed_base = u64_field(doc, "seed_base", 0, false);
  if (req.n < 2 || req.n > 1'000'000) {
    throw std::runtime_error("request n must be in [2, 1000000]");
  }
  if (req.k == 0 || req.k > 1'000'000) {
    throw std::runtime_error("request k must be in [1, 1000000]");
  }
  if (req.trials == 0 || req.trials > 10'000) {
    throw std::runtime_error("request trials must be in [1, 10000]");
  }
  return req;
}

std::string encode_accepted(const SweepRequest& req) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::str("accepted"));
  doc.set("algo", JsonValue::str(req.algo));
  doc.set("adversary", JsonValue::str(req.adversary));
  doc.set("fault", JsonValue::str(req.fault));
  doc.set("n", num(req.n));
  doc.set("k", num(req.k));
  doc.set("sources", num(req.sources));
  doc.set("cap", num(req.cap));
  doc.set("trials", num(req.trials));
  doc.set("seed_base", num(req.seed_base));
  return doc.dump();
}

std::string encode_row(std::size_t trial, std::uint64_t seed, bool cached,
                       const CachedResult& row) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::str("row"));
  doc.set("trial", num(trial));
  doc.set("seed", num(seed));
  doc.set("cached", JsonValue::boolean(cached));
  doc.set("k", num(row.k_realized));
  doc.set("done", JsonValue::boolean(row.metrics.completed));
  doc.set("messages", num(row.metrics.total_messages()));
  doc.set("tc", num(row.metrics.tc));
  doc.set("rounds", num(row.metrics.rounds));
  doc.set("status", JsonValue::str(run_status_name(row.metrics.status)));
  doc.set("coverage", JsonValue::number(row.metrics.coverage));
  doc.set("checksum", JsonValue::str(checksum_hex(row.checksum)));
  return doc.dump();
}

std::string encode_done(std::size_t hits, std::size_t misses) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::str("done"));
  doc.set("hits", num(hits));
  doc.set("misses", num(misses));
  return doc.dump();
}

std::string encode_error(const std::string& message) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::str("error"));
  doc.set("message", JsonValue::str(message));
  return doc.dump();
}

}  // namespace dyngossip
