#include "core/tomo_direct.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/bayesian.hpp"
#include "core/metrics.hpp"
#include "test_helpers.hpp"

namespace tme::core {
namespace {

using testing::SmallNetwork;
using testing::tiny_network;

// A fast estimator for the reduced problems (Bayesian instead of the
// slower entropy default).
ReducedEstimator fast_estimator() {
    return [](const SnapshotProblem& problem, const linalg::Vector& prior) {
        BayesianOptions options;
        options.regularization = 1e5;
        return bayesian_estimate(problem, prior, options);
    };
}

TEST(TomoDirect, MeasuredEntriesAreExact) {
    const SmallNetwork net = tiny_network(2);
    linalg::Vector prior(net.truth.size(), 1.0);
    const std::vector<std::size_t> measured{0, 4, 7};
    const linalg::Vector est = estimate_with_measured(
        net.snapshot(), prior, net.truth, measured, fast_estimator());
    for (std::size_t p : measured) {
        EXPECT_DOUBLE_EQ(est[p], net.truth[p]);
    }
}

TEST(TomoDirect, MeasuringAllPairsIsExact) {
    const SmallNetwork net = tiny_network(3);
    linalg::Vector prior(net.truth.size(), 1.0);
    std::vector<std::size_t> all(net.truth.size());
    std::iota(all.begin(), all.end(), 0);
    const linalg::Vector est = estimate_with_measured(
        net.snapshot(), prior, net.truth, all, fast_estimator());
    for (std::size_t p = 0; p < net.truth.size(); ++p) {
        EXPECT_DOUBLE_EQ(est[p], net.truth[p]);
    }
}

TEST(TomoDirect, BadPairIndexThrows) {
    const SmallNetwork net = tiny_network();
    linalg::Vector prior(net.truth.size(), 1.0);
    EXPECT_THROW(
        estimate_with_measured(net.snapshot(), prior, net.truth, {999},
                               fast_estimator()),
        std::invalid_argument);
}

TEST(TomoDirect, GreedyCurveIsMonotoneIsh) {
    // Greedy picks the best improvement each step, so the curve must be
    // non-increasing (up to estimator jitter).
    const SmallNetwork net = tiny_network(5);
    linalg::Vector prior(net.truth.size(), 1.0);
    DirectMeasurementOptions options;
    options.max_measured = 6;
    options.estimator = fast_estimator();
    const DirectMeasurementCurve curve = greedy_direct_measurements(
        net.snapshot(), prior, net.truth, options);
    ASSERT_EQ(curve.mre.size(), curve.measured.size() + 1);
    for (std::size_t i = 1; i < curve.mre.size(); ++i) {
        EXPECT_LE(curve.mre[i], curve.mre[i - 1] + 1e-6);
    }
}

TEST(TomoDirect, GreedyNotWorseThanLargestFirst) {
    const SmallNetwork net = tiny_network(7);
    linalg::Vector prior(net.truth.size(), 1.0);
    DirectMeasurementOptions options;
    options.max_measured = 5;
    options.estimator = fast_estimator();
    const DirectMeasurementCurve greedy = greedy_direct_measurements(
        net.snapshot(), prior, net.truth, options);
    const DirectMeasurementCurve size_based =
        largest_first_direct_measurements(net.snapshot(), prior, net.truth,
                                          options);
    // At every step the greedy (oracle) curve is at least as good.
    for (std::size_t i = 0; i < greedy.mre.size(); ++i) {
        EXPECT_LE(greedy.mre[i], size_based.mre[i] + 1e-6);
    }
}

TEST(TomoDirect, LargestFirstMeasuresBySize) {
    const SmallNetwork net = tiny_network(9);
    linalg::Vector prior(net.truth.size(), 1.0);
    DirectMeasurementOptions options;
    options.max_measured = 3;
    options.estimator = fast_estimator();
    const DirectMeasurementCurve curve =
        largest_first_direct_measurements(net.snapshot(), prior, net.truth,
                                          options);
    const auto order = demands_above(net.truth, 0.0);
    ASSERT_GE(curve.measured.size(), 3u);
    EXPECT_EQ(curve.measured[0], order[0]);
    EXPECT_EQ(curve.measured[1], order[1]);
    EXPECT_EQ(curve.measured[2], order[2]);
}

TEST(TomoDirect, NoMeasurementsMatchesPlainEstimator) {
    const SmallNetwork net = tiny_network(1);
    linalg::Vector prior(net.truth.size(), 1.0);
    const linalg::Vector direct = estimate_with_measured(
        net.snapshot(), prior, net.truth, {}, fast_estimator());
    const linalg::Vector plain =
        fast_estimator()(net.snapshot(), prior);
    for (std::size_t p = 0; p < direct.size(); ++p) {
        EXPECT_NEAR(direct[p], plain[p], 1e-9);
    }
}

}  // namespace
}  // namespace tme::core
