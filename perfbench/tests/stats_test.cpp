// Unit tests of the benchmark's own arithmetic: span self time, the
// percentile rule, max_rate_ok rung selection and error_rate counting.
#include <gtest/gtest.h>

#include <limits>

#include "stats.hpp"

namespace perfbench {
namespace {

SpanRecord span(const char* name, std::uint32_t parent, std::int64_t start,
                std::int64_t end) {
  SpanRecord s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

constexpr std::uint32_t kRoot = SpanRecord::kNoParent;

TEST(SelfTime, LeafSpanOwnsItsWholeDuration) {
  const auto self = self_times({span("pass.apply", kRoot, 10, 35)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 25);
}

TEST(SelfTime, ParentLosesTheIntervalsItsChildrenCover) {
  // apply [0,100) with submits [10,30) and [50,90): self 100-20-40 = 40.
  const auto self = self_times({span("pass.apply", kRoot, 0, 100),
                                span("session.submit", 0, 10, 30),
                                span("session.submit", 0, 50, 90)});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, GrandchildrenCountOnlyAgainstTheirOwnParent) {
  const auto self = self_times({span("pass.apply", kRoot, 0, 100),
                                span("session.submit", 0, 0, 60),
                                span("lsb.seal", 1, 10, 50)});
  EXPECT_EQ(self[0], 40);  // only the child's 60 ns leave the root
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClippedToTheParent) {
  const auto self = self_times({span("frontend.pump", kRoot, 100, 200),
                                span("session.submit", 0, 90, 130),
                                span("session.submit", 0, 120, 150),
                                span("session.submit", 0, 190, 260)});
  // Covered inside [100,200): [100,150) and [190,200) = 60.
  EXPECT_EQ(self[0], 40);
}

TEST(SelfTime, SpanLayerIsTheNamePrefix) {
  EXPECT_EQ(span_layer("session.submit+cleaner"), "session");
  EXPECT_EQ(span_layer("aws"), "aws");
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, kP99), 10u);
  EXPECT_EQ(tail_quantile(1000), kP99);
  EXPECT_EQ(samples_beyond(999, kP99), 9u);
  EXPECT_EQ(tail_quantile(999), kP90);
}

TEST(PercentileRule, LadderFromP50ToP999) {
  EXPECT_EQ(tail_quantile(0), 0u);
  EXPECT_EQ(tail_quantile(19), 0u);
  EXPECT_EQ(tail_quantile(20), kP50);
  EXPECT_EQ(tail_quantile(99), kP50);
  EXPECT_EQ(tail_quantile(100), kP90);
  EXPECT_EQ(tail_quantile(9999), kP99);
  EXPECT_EQ(tail_quantile(10000), kP999);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(values, kP50), 500.0);
  EXPECT_EQ(percentile(values, kP99), 990.0);
  EXPECT_EQ(percentile({}, kP99), 0.0);
  EXPECT_EQ(percentile({7.0}, kP99), 7.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(MaxRateOk, HighestPassingRungWins) {
  const std::vector<Rung> rungs = {{100, 1e5, false},
                                   {200, 2e5, false},
                                   {400, 9e5, false},
                                   {800, 5e6, true}};
  EXPECT_EQ(max_rate_ok(rungs, 1e6), 400.0);
  EXPECT_EQ(max_rate_ok(rungs, 1.5e5), 100.0);
}

TEST(MaxRateOk, GrowingBacklogDisqualifiesAFastRung) {
  const std::vector<Rung> rungs = {{100, 1e5, false}, {200, 1e5, true}};
  EXPECT_EQ(max_rate_ok(rungs, 1e6), 100.0);
}

TEST(MaxRateOk, RefusalsAsInfinityNeverPassAndNoRungGivesZero) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Rung> rungs = {{100, inf, false}, {200, 3e6, false}};
  EXPECT_EQ(max_rate_ok(rungs, 1e6), 0.0);
  // A lower rung may fail (a storm) while a higher one passes.
  EXPECT_EQ(max_rate_ok({{100, inf, false}, {200, 1e5, false}}, 1e6), 200.0);
}

TEST(Backlog, TrendIsTheLeastSquaresSlope) {
  EXPECT_EQ(trend({}), 0.0);
  EXPECT_EQ(trend({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(trend({1.0, 3.0, 5.0, 7.0}), 2.0);
  EXPECT_DOUBLE_EQ(trend({4.0, 4.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(trend({0.0, 10.0, 0.0, 10.0, 0.0}), 0.0);
}

TEST(Backlog, GrowingMeansFallingBehindByMoreThanFivePercent) {
  // 100/s offered: growing means a trend above 5 closes per second.
  EXPECT_FALSE(backlog_growing({20, 24, 28, 32}, 100.0));  // +4/s
  EXPECT_TRUE(backlog_growing({20, 26, 32, 38}, 100.0));   // +6/s
  EXPECT_FALSE(backlog_growing({300, 200, 100}, 100.0));   // draining
  EXPECT_FALSE(backlog_growing({50, 90, 10, 60}, 100.0));  // noisy, flat
}

TEST(ErrorRate, CountsFailedRefusedAndShedOverAttempted) {
  OpCounts c;
  EXPECT_EQ(error_rate(c), 0.0);  // nothing attempted
  c.attempted = 200;
  EXPECT_EQ(error_rate(c), 0.0);
  c.failed = 1;
  c.refused = 6;
  c.shed = 3;
  EXPECT_DOUBLE_EQ(error_rate(c), 10.0 / 200.0);
}

}  // namespace
}  // namespace perfbench
