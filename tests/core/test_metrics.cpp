#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace tme::core {
namespace {

TEST(Metrics, ThresholdCoversRequestedTraffic) {
    // Demands 10, 5, 3, 1, 1 (total 20).  90% -> need 10+5+3 = 18.
    const linalg::Vector s{10.0, 5.0, 3.0, 1.0, 1.0};
    const double thr = threshold_for_coverage(s, 0.9);
    const auto big = demands_above(s, thr);
    EXPECT_EQ(big.size(), 3u);
    EXPECT_EQ(big[0], 0u);
    EXPECT_EQ(big[1], 1u);
    EXPECT_EQ(big[2], 2u);
}

TEST(Metrics, ThresholdFullCoverageIncludesAll) {
    const linalg::Vector s{3.0, 1.0, 2.0};
    const double thr = threshold_for_coverage(s, 1.0);
    EXPECT_EQ(demands_above(s, thr).size(), 3u);
}

TEST(Metrics, ThresholdValidation) {
    EXPECT_THROW(threshold_for_coverage({}, 0.9), std::invalid_argument);
    EXPECT_THROW(threshold_for_coverage({0.0}, 0.9), std::invalid_argument);
    EXPECT_THROW(threshold_for_coverage({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(threshold_for_coverage({1.0}, 1.5), std::invalid_argument);
}

TEST(Metrics, MreExactMatchIsZero) {
    const linalg::Vector s{5.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(mean_relative_error(s, s, 0.0), 0.0);
}

TEST(Metrics, MreOnlyCountsLargeDemands) {
    const linalg::Vector truth{10.0, 1.0};
    const linalg::Vector est{5.0, 100.0};  // small demand wildly wrong
    // Threshold 5: only the first demand counts: |5-10|/10 = 0.5.
    EXPECT_DOUBLE_EQ(mean_relative_error(truth, est, 5.0), 0.5);
}

TEST(Metrics, MreAveragesRelativeErrors) {
    const linalg::Vector truth{10.0, 4.0};
    const linalg::Vector est{11.0, 3.0};  // 10% and 25%
    EXPECT_NEAR(mean_relative_error(truth, est, 0.0), 0.175, 1e-12);
}

TEST(Metrics, MreValidation) {
    EXPECT_THROW(mean_relative_error({1.0}, {1.0, 2.0}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(mean_relative_error({1.0}, {1.0}, 5.0),
                 std::invalid_argument);
}

TEST(Metrics, MreAtCoverageMatchesManual) {
    const linalg::Vector truth{10.0, 5.0, 3.0, 1.0, 1.0};
    linalg::Vector est = truth;
    est[0] = 12.0;  // 20% error on the largest
    const double mre = mre_at_coverage(truth, est, 0.9);
    EXPECT_NEAR(mre, 0.2 / 3.0, 1e-12);
}

TEST(Metrics, DemandsAboveSortedDescending) {
    const linalg::Vector s{1.0, 9.0, 4.0, 6.0};
    const auto idx = demands_above(s, 2.0);
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 3u);
    EXPECT_EQ(idx[2], 2u);
}

}  // namespace
}  // namespace tme::core
