#include "core/ringspec.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace hring::core {
namespace {

TEST(RingSpecTest, MinimalSpec) {
  const auto result = parse_ringspec("ring = 1,2,2\n");
  ASSERT_TRUE(result.spec.has_value())
      << result.error->to_string();
  EXPECT_EQ(result.spec->ring.to_string(), "1.2.2");
  EXPECT_EQ(result.spec->config.algorithm.id, election::AlgorithmId::kAk);
  // k defaults to the ring's actual multiplicity.
  EXPECT_EQ(result.spec->config.algorithm.k, 2u);
}

TEST(RingSpecTest, FullSpec) {
  const auto result = parse_ringspec(
      "# full example\n"
      "ring   = 1,3,1,3,2,2,1,2\n"
      "algo   = Bk\n"
      "k      = 3\n"
      "engine = event\n"
      "delay  = uniform\n"
      "sched  = convoy\n"
      "seed   = 99\n"
      "budget = 123456\n");
  ASSERT_TRUE(result.spec.has_value()) << result.error->to_string();
  const auto& spec = *result.spec;
  EXPECT_EQ(spec.ring.size(), 8u);
  EXPECT_EQ(spec.config.algorithm.id, election::AlgorithmId::kBk);
  EXPECT_EQ(spec.config.algorithm.k, 3u);
  EXPECT_EQ(spec.config.engine, EngineKind::kEvent);
  EXPECT_EQ(spec.config.delay, DelayKind::kUniformRandom);
  EXPECT_EQ(spec.config.scheduler, SchedulerKind::kConvoy);
  EXPECT_EQ(spec.config.seed, 99u);
  EXPECT_EQ(spec.config.budget, 123456u);
}

TEST(RingSpecTest, CommentsAndBlankLinesIgnored) {
  const auto result = parse_ringspec(
      "\n# comment\n   \nring = 2,1\n# trailing comment\n");
  ASSERT_TRUE(result.spec.has_value());
  EXPECT_EQ(result.spec->ring.size(), 2u);
}

TEST(RingSpecTest, WhitespaceTolerant) {
  const auto result =
      parse_ringspec("  ring =  1 , 2 , 3  \r\n  algo=Peterson\r\n");
  ASSERT_TRUE(result.spec.has_value()) << result.error->to_string();
  EXPECT_EQ(result.spec->ring.to_string(), "1.2.3");
  EXPECT_EQ(result.spec->config.algorithm.id,
            election::AlgorithmId::kPeterson);
}

TEST(RingSpecTest, MissingRingIsAnError) {
  const auto result = parse_ringspec("algo = Ak\n");
  ASSERT_TRUE(result.error.has_value());
  EXPECT_NE(result.error->to_string().find("missing required key"),
            std::string::npos);
}

TEST(RingSpecTest, ErrorsCarryLineNumbers) {
  const auto result = parse_ringspec("ring = 1,2\nalgo = NoSuch\n");
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->line, 2u);
  EXPECT_NE(result.error->message.find("unknown algorithm"),
            std::string::npos);
}

TEST(RingSpecTest, RejectsBadLabels) {
  EXPECT_TRUE(parse_ringspec("ring = 1,x,3\n").error.has_value());
  EXPECT_TRUE(parse_ringspec("ring = 1\n").error.has_value());
  EXPECT_TRUE(parse_ringspec("ring = \n").error.has_value());
}

TEST(RingSpecTest, RejectsMalformedLines) {
  EXPECT_TRUE(parse_ringspec("ring 1,2\n").error.has_value());
  EXPECT_TRUE(parse_ringspec("ring = 1,2\nwhat = ever\n").error
                  .has_value());
  EXPECT_TRUE(parse_ringspec("ring = 1,2\nk = 0\n").error.has_value());
  EXPECT_TRUE(parse_ringspec("ring = 1,2\nseed = -4\n").error.has_value());
  EXPECT_TRUE(
      parse_ringspec("ring = 1,2\nengine = quantum\n").error.has_value());
}

TEST(RingSpecTest, EveryKindParsesBackFromItsPrintedName) {
  const auto parse = [](const std::string& line) {
    const auto result = parse_ringspec("ring = 1,2\n" + line + "\n");
    EXPECT_TRUE(result.spec.has_value()) << line;
    return result.spec.has_value() ? result.spec->config : ElectionConfig{};
  };
  for (const auto kind : {EngineKind::kStep, EngineKind::kEvent}) {
    EXPECT_EQ(parse(std::string("engine = ") + engine_kind_name(kind)).engine,
              kind);
  }
  for (const auto kind :
       {SchedulerKind::kSynchronous, SchedulerKind::kRoundRobin,
        SchedulerKind::kRandomSingle, SchedulerKind::kRandomSubset,
        SchedulerKind::kConvoy}) {
    EXPECT_EQ(
        parse(std::string("sched = ") + scheduler_kind_name(kind)).scheduler,
        kind);
  }
  for (const auto kind : {DelayKind::kWorstCase, DelayKind::kUniformRandom,
                          DelayKind::kSlowLink}) {
    EXPECT_EQ(parse(std::string("delay = ") + delay_kind_name(kind)).delay,
              kind);
  }
}

TEST(RingSpecTest, ParsedSpecActuallyRuns) {
  const auto result = parse_ringspec(
      "ring = 1,2,2\nalgo = Bk\nk = 2\nsched = round-robin\n");
  ASSERT_TRUE(result.spec.has_value());
  const auto m = measure(result.spec->ring, result.spec->config);
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(0));
}

}  // namespace
}  // namespace hring::core
