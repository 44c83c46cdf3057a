// Golden payload gate: every registered scenario, run in-process at
// --quick, must reproduce the SHA-256 digest pinned in
// tests/golden/quick_payloads.sha256.  The digest covers the JSON record
// `dyngossip run <name> --quick --json` writes, minus the volatile "run"
// object, serialized compactly — i.e. exactly the bytes the determinism
// contract says a behaviour-preserving change must not move.
//
// Regenerating after a deliberate payload change:
//
//   DYNGOSSIP_UPDATE_GOLDEN=1 ./build/scenarios_golden_payload_test
//
// rewrites the file in the source tree (one "<digest>  <scenario>" line per
// scenario, sorted by name); commit it together with the change and say in
// the commit message which payloads moved and why.
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenarios/scenarios.hpp"
#include "sim/runner/emit.hpp"
#include "sim/runner/scenario_registry.hpp"

namespace dyngossip {
namespace {

/// FIPS 180-4 SHA-256 of `data`, as lowercase hex.
std::string sha256_hex(const std::string& data) {
  static constexpr std::array<std::uint32_t, 64> kK = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const auto rotr = [](std::uint32_t x, int s) {
    return (x >> s) | (x << (32 - s));
  };
  std::string msg = data;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  msg.push_back(static_cast<char>(0x80));
  while (msg.size() % 64 != 56) msg.push_back('\0');
  for (int i = 7; i >= 0; --i) msg.push_back(static_cast<char>(bits >> (8 * i)));
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      for (int b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) | static_cast<std::uint8_t>(msg[off + 4 * i + b]);
      }
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      const std::uint32_t t2 = s0 + maj;
      v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint32_t word : h) {
    for (int i = 28; i >= 0; i -= 4) out.push_back(kHex[(word >> i) & 0xf]);
  }
  return out;
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path().parent_path() /
         "golden" / "quick_payloads.sha256";
}

/// scenario → digest, parsed from "<digest>  <scenario>" lines.
std::map<std::string, std::string> read_golden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(golden_path());
  std::string digest;
  std::string name;
  while (in >> digest >> name) golden[name] = digest;
  return golden;
}

/// Digest of one scenario's --quick payload (the record without "run").
std::string quick_payload_digest(const Scenario& scenario) {
  ThreadPool pool(2);
  const ScenarioContext ctx(pool, /*trials=*/0, ScenarioScale::kQuick);
  const JsonValue record = scenario_result_to_json(scenario.run(ctx), RunInfo{});
  JsonValue payload = JsonValue::object();
  for (const auto& [key, value] : record.members()) {
    if (key != "run") payload.set(key, value);
  }
  return sha256_hex(payload.dump());
}

TEST(Sha256, MatchesTheStandardTestVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(GoldenPayloads, EveryQuickScenarioPayloadMatchesItsPinnedDigest) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  if (std::getenv("DYNGOSSIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    for (const Scenario* scenario : registry.list()) {
      out << quick_payload_digest(*scenario) << "  " << scenario->name << "\n";
    }
    GTEST_SKIP() << "rewrote " << golden_path();
  }
  const std::map<std::string, std::string> golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "no digests in " << golden_path();
  EXPECT_EQ(golden.size(), registry.size())
      << "the golden file and the scenario registry list different scenarios";
  for (const Scenario* scenario : registry.list()) {
    const auto it = golden.find(scenario->name);
    if (it == golden.end()) {
      ADD_FAILURE() << scenario->name << ": no pinned digest in " << golden_path();
      continue;
    }
    EXPECT_EQ(quick_payload_digest(*scenario), it->second)
        << scenario->name << ": --quick payload changed";
  }
}

}  // namespace
}  // namespace dyngossip
