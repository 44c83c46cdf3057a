// Probe-spec grammar: shared family[:key=value,...] parsing, the bare
// key=value shorthand, canonical rendering round-trips, and strict
// rejection of unknown keys/values — the same contract the adversary,
// algorithm, and fault axes enforce.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/probe_spec.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

TEST(ProbeSpec, DefaultsAndBareFamily) {
  const ProbeSpec spec = ProbeSpec::parse("round_series");
  EXPECT_EQ(spec.out, "probe.jsonl");
  EXPECT_EQ(spec.format, ProbeSpec::Format::kJsonl);
  EXPECT_EQ(spec.every, 1u);
  // All-default spec renders as the bare family name.
  EXPECT_EQ(spec.to_string(), "round_series");
  EXPECT_EQ(ProbeSpec::parse("round_series:"), spec);
}

TEST(ProbeSpec, ParseToStringRoundTrips) {
  const char* specs[] = {
      "round_series",
      "round_series:out=series.csv,format=csv",
      "round_series:every=5",
      "round_series:every=3,format=csv,out=-",
  };
  for (const char* text : specs) {
    const ProbeSpec spec = ProbeSpec::parse(text);
    EXPECT_EQ(ProbeSpec::parse(spec.to_string()), spec) << text;
  }
}

TEST(ProbeSpec, BareParameterListIsRoundSeriesShorthand) {
  const ProbeSpec spec = ProbeSpec::parse("out=x.jsonl,every=4");
  EXPECT_EQ(spec.out, "x.jsonl");
  EXPECT_EQ(spec.every, 4u);
  EXPECT_EQ(spec, ProbeSpec::parse("round_series:out=x.jsonl,every=4"));
}

TEST(ProbeSpec, StrictRejection) {
  EXPECT_THROW(ProbeSpec::parse("round_series:bogus=1"), ProbeSpecError);
  EXPECT_THROW(ProbeSpec::parse("no_such_family:out=x"), ProbeSpecError);
  EXPECT_THROW(ProbeSpec::parse("round_series:format=xml"), ProbeSpecError);
  EXPECT_THROW(ProbeSpec::parse("round_series:every=0"), ProbeSpecError);
  EXPECT_THROW(ProbeSpec::parse("round_series:every=-2"), ProbeSpecError);
}

TEST(ProbeSpec, FamilyDocListsEveryKey) {
  const SpecFamilyDoc doc = probe_family_doc();
  EXPECT_EQ(doc.name, std::string("round_series"));
  EXPECT_FALSE(doc.description.empty());
  // Every grammar key is documented (the CLI listing renders these).
  EXPECT_EQ(doc.keys->size(), probe_spec_keys().size());
}

TEST(ProbeSink, JsonlRowsAndTotalsPerSeries) {
  ProbeSpec spec;
  spec.every = 1;
  ProbeSink sink(spec);
  RoundProbeSample s1;
  s1.round = 1;
  s1.sent = 7;
  s1.learned = 2;
  RunMetrics totals;
  totals.unicast.token = 7;
  totals.learnings = 2;
  totals.rounds = 1;
  sink.add_series("demo trial=0", {s1}, totals);
  ASSERT_EQ(sink.series_count(), 1u);

  std::ostringstream os;
  sink.write_to(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"total\""), std::string::npos);
  EXPECT_NE(text.find("\"series\":\"demo trial=0\""), std::string::npos);
}

TEST(ProbeSink, CsvHeaderAndRows) {
  ProbeSpec spec;
  spec.format = ProbeSpec::Format::kCsv;
  ProbeSink sink(spec);
  RoundProbeSample s1;
  s1.round = 3;
  s1.coverage = 0.5;
  sink.add_series("csv run", {s1}, RunMetrics{});

  std::ostringstream os;
  sink.write_to(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("series,round,coverage,", 0), 0u);
  EXPECT_NE(text.find("csv run,3,"), std::string::npos);
}

}  // namespace
}  // namespace dyngossip
