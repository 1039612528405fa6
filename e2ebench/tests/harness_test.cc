// Copyright 2026 The ARSP Authors.
//
// Self-tests of the benchmark harness: the percentile definition, the
// error-rate accounting, the answer oracle and span self time. Run with
// `python3 e2ebench/run.py --self-test`.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/harness.h"

namespace e2ebench {
namespace {

TEST(NearestRank, IsTheCeilRankedSample) {
  // 10 samples: p50 is the 5th smallest, p90 the 9th, p100 the max.
  const std::vector<double> s = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(NearestRank(s, 0.5), 5);
  EXPECT_EQ(NearestRank(s, 0.9), 9);
  EXPECT_EQ(NearestRank(s, 1.0), 10);
  // 11 samples: ceil(0.9 · 11) = 10th smallest, not an interpolation.
  std::vector<double> eleven(s);
  eleven.push_back(11);
  EXPECT_EQ(NearestRank(eleven, 0.9), 10);
  EXPECT_EQ(NearestRank(eleven, 0.5), 6);
}

TEST(NearestRank, SmallAndEmptySamples) {
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_EQ(NearestRank({42}, 0.9), 42);
  // With fewer than 10 samples p90 is the max: the sample count, which
  // the report prints next to p90, is what tells the reader so.
  EXPECT_EQ(NearestRank({3, 1, 2}, 0.9), 3);
  EXPECT_EQ(NearestRank({3, 1, 2}, 0.0), 1);
}

TEST(Tally, EveryKindOfFailureCountsAgainstErrorRate) {
  Tally tally;
  tally.Add(Outcome::kCorrect);
  tally.Add(Outcome::kCorrect);
  tally.Add(Outcome::kCorrect);
  tally.Add(Outcome::kCorrect);
  tally.Add(Outcome::kFailed);
  tally.Add(Outcome::kRetryLater);
  tally.Add(Outcome::kWrong);
  EXPECT_EQ(tally.attempted, 7);
  EXPECT_EQ(tally.correct, 4);
  EXPECT_EQ(tally.failed, 1);
  EXPECT_EQ(tally.retry_later, 1);
  EXPECT_EQ(tally.wrong, 1);
  EXPECT_EQ(tally.not_correct(), 3);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 3.0 / 7.0);

  Tally other;
  other.Add(Outcome::kWrong);
  tally.Merge(other);
  EXPECT_EQ(tally.attempted, 8);
  EXPECT_EQ(tally.not_correct(), 4);
  EXPECT_EQ(Tally{}.error_rate(), 0.0);
}

TEST(Tally, RetryLaterIsRecognisedFromTheClientStatus) {
  EXPECT_EQ(OutcomeOf(arsp::Status::Unavailable("overloaded")),
            Outcome::kRetryLater);
  EXPECT_EQ(OutcomeOf(arsp::Status::Internal("connection reset")),
            Outcome::kFailed);
  EXPECT_EQ(OutcomeOf(arsp::Status::NotFound("unknown dataset")),
            Outcome::kFailed);
}

TEST(Oracle, RejectsOnePerturbedProbability) {
  const std::vector<double> reference = {0.5, 0.25, 0.125, 0.0, 1.0};
  std::vector<double> answer = reference;
  EXPECT_TRUE(SameBits(answer, reference));
  answer[2] = std::nextafter(answer[2], 1.0);  // one ulp
  EXPECT_FALSE(SameBits(answer, reference));
  EXPECT_TRUE(WithinTolerance(answer, reference, 1e-9));
  answer[2] += 1e-6;
  EXPECT_FALSE(WithinTolerance(answer, reference, 1e-9));
  // Length mismatches never pass.
  EXPECT_FALSE(SameBits({0.5}, reference));
  EXPECT_FALSE(WithinTolerance({0.5}, reference, 1.0));
  // NaN never passes the tolerance check.
  answer = reference;
  answer[0] = std::nan("");
  EXPECT_FALSE(WithinTolerance(answer, reference, 1.0));
}

TEST(Oracle, RankingComparesIdsAndProbabilityBits) {
  const std::vector<std::pair<int, double>> want = {{7, 0.9}, {3, 0.4}};
  std::vector<arsp::net::RankedEntry> got(2);
  got[0].object_id = 7;
  got[0].prob = 0.9;
  got[1].object_id = 3;
  got[1].prob = 0.4;
  EXPECT_TRUE(SameRanking(want, got));
  got[1].prob = std::nextafter(0.4, 1.0);
  EXPECT_FALSE(SameRanking(want, got));
  got[1].prob = 0.4;
  got[1].object_id = 4;
  EXPECT_FALSE(SameRanking(want, got));
  got.pop_back();
  EXPECT_FALSE(SameRanking(want, got));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecord parent;
  parent.start_ns = 0;
  parent.end_ns = 10'000'000;  // 10 ms
  SpanRecord a;
  a.start_ns = 1'000'000;
  a.end_ns = 5'000'000;
  SpanRecord b;  // overlaps a: together they cover 1..6 ms
  b.start_ns = 3'000'000;
  b.end_ns = 6'000'000;
  SpanRecord late;  // runs past the parent: clipped to 8..10 ms
  late.start_ns = 8'000'000;
  late.end_ns = 12'000'000;
  EXPECT_DOUBLE_EQ(SelfTimeMs(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(parent, {&a, &b}), 5.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(parent, {&b, &a, &late}), 3.0);
}

TEST(Spans, StoreRecordsOnlyWhileEnabled) {
  SpanStore store;
  SpanRecord span;
  span.id = store.NewId();
  store.Add(span);
  EXPECT_TRUE(store.Snapshot().empty());
  store.Enable(true);
  store.Add(span);
  EXPECT_EQ(store.Snapshot().size(), 1u);
  EXPECT_NE(store.NewId(), span.id);
}

}  // namespace
}  // namespace e2ebench
