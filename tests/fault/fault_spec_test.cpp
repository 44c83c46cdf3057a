// Tests for FaultSpec: grammar, strict validation, canonical rendering.
#include "fault/fault_spec.hpp"

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

TEST(FaultSpec, ParsesFullSpec) {
  const FaultSpec s = FaultSpec::parse(
      "fault:drop=0.01,crash=0.0005,recover=0.1,dup=0.002,amnesia=1,seed=7");
  EXPECT_DOUBLE_EQ(s.drop, 0.01);
  EXPECT_DOUBLE_EQ(s.crash, 0.0005);
  EXPECT_DOUBLE_EQ(s.recover, 0.1);
  EXPECT_DOUBLE_EQ(s.dup, 0.002);
  EXPECT_TRUE(s.amnesia);
  EXPECT_TRUE(s.has_seed);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_TRUE(s.active());
}

TEST(FaultSpec, BareParameterListIsFaultShorthand) {
  const FaultSpec s = FaultSpec::parse("drop=0.05,seed=7");
  EXPECT_DOUBLE_EQ(s.drop, 0.05);
  EXPECT_TRUE(s.has_seed);
  EXPECT_EQ(s.seed, 7u);
  // The shorthand and the explicit family parse identically.
  EXPECT_TRUE(s == FaultSpec::parse("fault:drop=0.05,seed=7"));
}

TEST(FaultSpec, ToStringRoundTripsCanonically) {
  const char* canonical = "fault:crash=0.001,drop=0.05,recover=0.1";
  const FaultSpec s = FaultSpec::parse(canonical);
  EXPECT_EQ(s.to_string(), canonical);
  EXPECT_TRUE(FaultSpec::parse(s.to_string()) == s);
  // Keys render sorted regardless of input order; defaults are omitted.
  EXPECT_EQ(FaultSpec::parse("fault:recover=0.1,drop=0.05,crash=0.001").to_string(),
            canonical);
  EXPECT_EQ(FaultSpec::parse("fault:drop=0,amnesia=0").to_string(), "fault");
  EXPECT_EQ(FaultSpec{}.to_string(), "fault");
}

TEST(FaultSpec, AllZeroRatesAreInactive) {
  EXPECT_FALSE(FaultSpec::parse("fault").active());
  EXPECT_FALSE(FaultSpec::parse("fault:drop=0,crash=0").active());
  // recover/amnesia/seed alone never alter a run: nothing crashes.
  EXPECT_FALSE(FaultSpec::parse("fault:recover=0.5,amnesia=1,seed=3").active());
  EXPECT_TRUE(FaultSpec::parse("fault:dup=0.001").active());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultSpec::parse("fault:bogus=1"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("faults:drop=0.1"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("fault:drop=1.5"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("fault:drop=-0.1"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("fault:drop=abc"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("fault:amnesia=2"), FaultSpecError);
  // drop + dup is one delivery roll; the probabilities cannot exceed 1.
  EXPECT_THROW((void)FaultSpec::parse("fault:drop=0.7,dup=0.4"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse(""), FaultSpecError);
}

TEST(FaultSpec, FamilyDocListsEveryKey) {
  const FaultFamilyDoc doc = fault_family_doc();
  EXPECT_EQ(doc.name, "fault");
  ASSERT_NE(doc.keys, nullptr);
  EXPECT_EQ(doc.keys, &fault_spec_keys());
  // The documented example must itself parse (the listing is executable).
  EXPECT_NO_THROW((void)FaultSpec::parse(doc.example));
  bool saw_drop = false;
  for (const SpecKey& key : *doc.keys) saw_drop = saw_drop || key.key == "drop";
  EXPECT_TRUE(saw_drop);
}

}  // namespace
}  // namespace dyngossip
