// Request decoding of `dyngossip serve`: every integer field is checked
// against its type's range (and must be integral) before it is narrowed, so
// a value the field cannot hold is refused with a message naming the field
// instead of wrapping or truncating into the accepted range.
#include "serve/protocol.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

/// A valid request line with `field` set to the raw JSON `value`.
std::string request_with(const std::string& field, const std::string& value) {
  std::string line = R"({"adversary":"churn:")";
  if (field != "n") line += R"(,"n":16)";
  if (field != "k") line += R"(,"k":4)";
  return line + ",\"" + field + "\":" + value + "}";
}

/// The decode error for `line`, or "" when it decodes.
std::string decode_error(const std::string& line) {
  try {
    (void)decode_sweep_request(line);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SweepRequestDecode, RejectsValuesTheFieldCannotHold) {
  const struct {
    const char* field;
    const char* value;
  } cases[] = {
      {"k", "4294967297"},           // 2^32 + 1 would narrow to k = 1
      {"cap", "4294967301"},         // 2^32 + 5 would narrow to cap = 5
      {"k", "8.7"},                  // would truncate to k = 8
      {"cap", "0.5"},
      {"seed_base", "9007199254740994"},  // 2^53 + 2: above exact doubles
      {"seed_base", "1e20"},         // >= 2^64: an undefined cast
      {"sources", "1e20"},
      {"trials", "2.5"},
  };
  for (const auto& c : cases) {
    const std::string line = request_with(c.field, c.value);
    SCOPED_TRACE(line);
    const std::string error = decode_error(line);
    EXPECT_NE(error.find(std::string("'") + c.field + "'"), std::string::npos)
        << "error must name the field: '" << error << "'";
  }
}

TEST(SweepRequestDecode, AcceptsTheBoundaryValues) {
  const SweepRequest req = decode_sweep_request(
      R"({"adversary":"churn:","n":1000000,"k":1000000,"sources":0,)"
      R"("cap":4294967295,"trials":10000,"seed_base":9007199254740992})");
  EXPECT_EQ(req.n, 1'000'000u);
  EXPECT_EQ(req.k, 1'000'000u);
  EXPECT_EQ(req.sources, 0u);
  EXPECT_EQ(req.cap, 4'294'967'295u);
  EXPECT_EQ(req.trials, 10'000u);
  EXPECT_EQ(req.seed_base, std::uint64_t{1} << 53);

  // An integral value written with a fraction or exponent is still integral.
  EXPECT_EQ(decode_sweep_request(request_with("k", "8.0")).k, 8u);
  EXPECT_EQ(decode_sweep_request(request_with("cap", "1e3")).cap, 1000u);
}

TEST(SweepRequestDecode, RangeChecksStillApplyAfterNarrowing) {
  EXPECT_NE(decode_error(request_with("k", "1000001")).find("request k"),
            std::string::npos);
  EXPECT_NE(decode_error(request_with("k", "0")).find("request k"), std::string::npos);
  EXPECT_NE(decode_error(request_with("n", "-1")).find("'n'"), std::string::npos);
  EXPECT_NE(decode_error(request_with("cap", "\"5\"")).find("'cap'"),
            std::string::npos);
}

}  // namespace
}  // namespace dyngossip
