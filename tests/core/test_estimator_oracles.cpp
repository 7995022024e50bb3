// Paper-scale equivalence gates: the Gram-free production paths of the
// Bayesian, Vardi and fanout estimators against the dense reference
// solves in dense_oracles.hpp, on the Europe and USA scenarios.
//
//  * Bayesian (lambda in {1, 1e2, 1e3, 1e4, 1e5}), Vardi (w in
//    {0, 0.01, 1}, window 12) and fanout fed the engine's sliding-window
//    aggregates (windows {1, 3, 8, 12, 40}) generate exactly the dense
//    oracle's matrix entries, so the estimates must be bitwise equal.
//  * Fanout without aggregates builds its source-totals matrix once
//    instead of accumulating the Hessian per sample; the rounding
//    differs, so it is gated to 1e-9 relative.
//  * The sparse Gram the oracles are built from equals densify + gram
//    bitwise on both routing matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/bayesian.hpp"
#include "core/dense_oracles.hpp"
#include "core/fanout.hpp"
#include "core/gravity.hpp"
#include "core/vardi.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "scenario/scenario.hpp"

namespace tme::core {
namespace {

using testing::bayesian_dense_oracle;
using testing::fanout_dense_oracle;
using testing::vardi_dense_oracle;

/// Built once per network: the USA scenario is the expensive part.
const scenario::Scenario& scenario_for(scenario::Network network) {
    static const scenario::Scenario europe =
        scenario::make_scenario(scenario::Network::europe);
    static const scenario::Scenario usa =
        scenario::make_scenario(scenario::Network::usa);
    return network == scenario::Network::europe ? europe : usa;
}

/// Number of coordinates whose bits differ (sizes must match).
std::size_t bitwise_mismatches(const linalg::Vector& a,
                               const linalg::Vector& b) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++count;
    }
    return count;
}

double relative_diff(const linalg::Vector& a, const linalg::Vector& b) {
    double scale = 1.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        scale = std::max(scale, std::abs(b[i]));
        diff = std::max(diff, std::abs(a[i] - b[i]));
    }
    return diff / scale;
}

class EstimatorOracles
    : public ::testing::TestWithParam<scenario::Network> {};

TEST_P(EstimatorOracles, BayesianBitwiseEqualsDenseNnls) {
    const scenario::Scenario& sc = scenario_for(GetParam());
    const SnapshotProblem snap = sc.busy_snapshot();
    const linalg::Vector prior = gravity_estimate(snap);
    for (const double lambda : {1.0, 1e2, 1e3, 1e4, 1e5}) {
        BayesianOptions options;
        options.regularization = lambda;
        const linalg::Vector est = bayesian_estimate(snap, prior, options);
        const linalg::Vector ref = bayesian_dense_oracle(snap, prior, options);
        ASSERT_EQ(est.size(), ref.size());
        EXPECT_EQ(bitwise_mismatches(est, ref), 0u)
            << sc.name << " lambda " << lambda << ", max rel diff "
            << relative_diff(est, ref);
    }
}

TEST_P(EstimatorOracles, VardiBitwiseEqualsDenseNnls) {
    const scenario::Scenario& sc = scenario_for(GetParam());
    const SeriesProblem series = sc.busy_series_window(12);
    for (const double w : {0.0, 0.01, 1.0}) {
        VardiOptions options;
        options.second_moment_weight = w;
        const linalg::Vector est = vardi_estimate(series, options).lambda;
        const linalg::Vector ref = vardi_dense_oracle(series, options);
        ASSERT_EQ(est.size(), ref.size());
        EXPECT_EQ(bitwise_mismatches(est, ref), 0u)
            << sc.name << " w " << w << ", max rel diff "
            << relative_diff(est, ref);
    }
}

TEST_P(EstimatorOracles, FanoutMatchesDenseQp) {
    const scenario::Scenario& sc = scenario_for(GetParam());
    for (const std::size_t window : {1u, 3u, 8u, 12u, 40u}) {
        const SeriesProblem series = sc.busy_series_window(window);
        const FanoutOptions options;
        const linalg::Vector est = fanout_estimate(series, options).fanouts;
        const linalg::Vector ref = fanout_dense_oracle(series, options);
        ASSERT_EQ(est.size(), ref.size());
        EXPECT_EQ(bitwise_mismatches(est, ref), 0u)
            << sc.name << " window " << window << ", max rel diff "
            << relative_diff(est, ref);
    }
}

TEST_P(EstimatorOracles, SparseGramEqualsDenseGramBitwise) {
    // The oracles' input: the sparse Gram accumulation must equal
    // densify + dense gram bitwise on the paper routing matrices.
    const scenario::Scenario& sc = scenario_for(GetParam());
    EXPECT_EQ(linalg::gram_sparse(sc.routing),
              linalg::gram(sc.routing.to_dense()))
        << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetworks, EstimatorOracles,
    ::testing::Values(scenario::Network::europe, scenario::Network::usa),
    [](const ::testing::TestParamInfo<scenario::Network>& network) {
        return std::string(network.param == scenario::Network::europe
                               ? "Europe"
                               : "Usa");
    });

}  // namespace
}  // namespace tme::core
