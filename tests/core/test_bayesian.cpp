#include "core/bayesian.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>

#include "core/dense_oracles.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace tme::core {
namespace {

using testing::europe_network;
using testing::SmallNetwork;
using testing::tiny_network;

TEST(Bayesian, TruePriorIsFixedPoint) {
    const SmallNetwork net = tiny_network();
    BayesianOptions options;
    options.regularization = 100.0;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), net.truth, options);
    for (std::size_t p = 0; p < net.truth.size(); ++p) {
        EXPECT_NEAR(est[p], net.truth[p], 1e-6);
    }
}

TEST(Bayesian, SmallRegularizationSticksToPrior) {
    const SmallNetwork net = tiny_network();
    linalg::Vector prior(net.truth.size(), 1.0);
    BayesianOptions options;
    options.regularization = 1e-9;  // w huge -> prior dominates
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    for (std::size_t p = 0; p < prior.size(); ++p) {
        EXPECT_NEAR(est[p], prior[p], 1e-3);
    }
}

TEST(Bayesian, LargeRegularizationMatchesLoads) {
    const SmallNetwork net = tiny_network();
    linalg::Vector prior(net.truth.size(), 1.0);
    BayesianOptions options;
    options.regularization = 1e8;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    const linalg::Vector pred = net.routing.multiply(est);
    const SnapshotProblem snap = net.snapshot();
    for (std::size_t l = 0; l < pred.size(); ++l) {
        EXPECT_NEAR(pred[l], snap.loads[l], 1e-4 * (1.0 + snap.loads[l]));
    }
}

TEST(Bayesian, EstimatesAreNonNegative) {
    const SmallNetwork net = tiny_network(9);
    // Deliberately bad prior with big values.
    linalg::Vector prior(net.truth.size(), 10.0);
    const linalg::Vector est = bayesian_estimate(net.snapshot(), prior);
    for (double v : est) EXPECT_GE(v, 0.0);
}

TEST(Bayesian, ImprovesOnScaledPrior) {
    // Prior = truth * 0.5: the link data fixes most of the scale error.
    const SmallNetwork net = tiny_network(5);
    linalg::Vector prior = net.truth;
    for (double& v : prior) v *= 0.5;
    BayesianOptions options;
    options.regularization = 1e6;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    EXPECT_LT(mre_at_coverage(net.truth, est, 0.9),
              mre_at_coverage(net.truth, prior, 0.9));
}

TEST(Bayesian, Validation) {
    const SmallNetwork net = tiny_network();
    EXPECT_THROW(
        bayesian_estimate(net.snapshot(), linalg::Vector(3, 1.0)),
        std::invalid_argument);
    BayesianOptions bad;
    bad.regularization = 0.0;
    EXPECT_THROW(bayesian_estimate(net.snapshot(), net.truth, bad),
                 std::invalid_argument);
}

TEST(Bayesian, WorksWithoutTopology) {
    // The Bayesian estimator needs only (R, t).
    const SmallNetwork net = tiny_network();
    SnapshotProblem snap = net.snapshot();
    snap.topo = nullptr;
    const linalg::Vector est = bayesian_estimate(snap, net.truth);
    EXPECT_EQ(est.size(), net.truth.size());
}

class BayesianMonotonicity : public ::testing::TestWithParam<unsigned> {};

TEST_P(BayesianMonotonicity, ResidualDecreasesWithRegularization) {
    const SmallNetwork net = tiny_network(GetParam());
    linalg::Vector prior(net.truth.size(), 1.0);
    const SnapshotProblem snap = net.snapshot();
    double prev_resid = 1e300;
    for (double lam : {1e-3, 1e0, 1e3, 1e6}) {
        BayesianOptions options;
        options.regularization = lam;
        const linalg::Vector est = bayesian_estimate(snap, prior, options);
        const double resid =
            linalg::nrm2(linalg::sub(net.routing.multiply(est), snap.loads));
        EXPECT_LE(resid, prev_resid + 1e-9);
        prev_resid = resid;
    }
}

TEST(Bayesian, ForcedCgPathMatchesDenseOracle) {
    // dense_kkt_limit = 0 sends the MAP system through the operator
    // QP's projected-CG branch (the generated-backbone path); the
    // system is strictly convex, so it must land on the dense NNLS
    // oracle's minimizer — cold and warm-started alike.
    const SmallNetwork net = tiny_network(3);
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const BayesianOptions defaults;
    const linalg::Vector oracle =
        testing::bayesian_dense_oracle(snap, prior, defaults);
    double scale = 1.0;
    for (double v : oracle) scale = std::max(scale, v);

    BayesianOptions options;
    options.qp.dense_kkt_limit = 0;
    const linalg::Vector cg_path = bayesian_estimate(snap, prior, options);
    ASSERT_EQ(cg_path.size(), oracle.size());
    for (std::size_t p = 0; p < oracle.size(); ++p) {
        EXPECT_NEAR(cg_path[p], oracle[p], 1e-6 * scale) << "pair " << p;
    }

    BayesianOptions warm = options;
    warm.qp.warm_start = &cg_path;
    const linalg::Vector warm_path = bayesian_estimate(snap, prior, warm);
    for (std::size_t p = 0; p < oracle.size(); ++p) {
        EXPECT_NEAR(warm_path[p], oracle[p], 1e-6 * scale) << "pair " << p;
    }
}

TEST(Bayesian, WarmStartMatchesDenseOracleBitwise) {
    // The exact-LU regime (every paper-scale problem) replays the dense
    // NNLS; a warm seed only shortens the active-set path, and the
    // oracle seeded the same way must agree bit for bit.
    const SmallNetwork net = europe_network();
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const linalg::Vector cold = bayesian_estimate(snap, prior);
    linalg::Vector seed = cold;
    for (std::size_t p = 0; p < seed.size(); p += 3) seed[p] = 0.0;
    BayesianOptions warm;
    warm.qp.warm_start = &seed;
    const linalg::Vector warm_path = bayesian_estimate(snap, prior, warm);
    const linalg::Vector oracle =
        testing::bayesian_dense_oracle(snap, prior, warm);
    ASSERT_EQ(warm_path.size(), oracle.size());
    double scale = 1.0;
    for (double v : cold) scale = std::max(scale, v);
    for (std::size_t p = 0; p < oracle.size(); ++p) {
        EXPECT_EQ(warm_path[p], oracle[p]) << "pair " << p;
        EXPECT_NEAR(warm_path[p], cold[p], 1e-9 * scale) << "pair " << p;
    }
}

TEST(Bayesian, SharedRoutingTransposeIdenticalAndChecked) {
    const SmallNetwork net = tiny_network(3);
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const linalg::Vector plain = bayesian_estimate(snap, prior);

    const linalg::SparseMatrix rt = linalg::transpose(net.routing);
    BayesianOptions options;
    options.shared_routing_transpose = &rt;
    const linalg::Vector shared = bayesian_estimate(snap, prior, options);
    ASSERT_EQ(shared.size(), plain.size());
    for (std::size_t p = 0; p < plain.size(); ++p) {
        EXPECT_EQ(shared[p], plain[p]);
    }

    const linalg::SparseMatrix wrong(3, 3, {});
    BayesianOptions bad;
    bad.shared_routing_transpose = &wrong;
    EXPECT_THROW(bayesian_estimate(snap, prior, bad),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BayesianMonotonicity,
                         ::testing::Values(1u, 2u, 3u, 4u));

// Prior bound: with consistent loads t = R s and a truth s >= 0, the
// exact MAP estimate is the proximal point of the prior under a convex
// function the truth minimizes, so it is no further from the truth than
// the prior, ||s_hat - s||_2 <= ||p - s||_2, for every lambda.  Checked
// on the uncapped solve (default caps) of generated backbones: 25 PoPs
// (600 pairs) runs the NNLS path, 50 PoPs (2450 pairs) the operator-QP
// projected-CG path.  Parameters: PoPs, seed, lambda.
class BayesianPriorBound
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, unsigned, double>> {};

TEST_P(BayesianPriorBound, EstimateIsNoFurtherFromTruthThanPrior) {
    const auto [pops, seed, lambda] = GetParam();
    scenario::GeneratedScenarioConfig config;
    config.pops = pops;
    config.seed = seed;
    config.samples = 8;
    const scenario::Scenario sc = scenario::make_generated_scenario(config);
    constexpr std::size_t kSample = 7;
    SnapshotProblem snap;
    snap.topo = &sc.topo;
    snap.routing = &sc.routing;
    snap.loads = sc.loads.at(kSample);
    const linalg::Vector& truth = sc.demands.at(kSample);
    const linalg::Vector prior = gravity_estimate(snap);

    BayesianOptions options;
    options.regularization = lambda;
    const linalg::Vector est = bayesian_estimate(snap, prior, options);

    const double estimate_error = linalg::nrm2(linalg::sub(est, truth));
    const double prior_error = linalg::nrm2(linalg::sub(prior, truth));
    ASSERT_GT(prior_error, 0.0);
    EXPECT_LE(estimate_error, prior_error)
        << "ratio " << estimate_error / prior_error;
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedBackbones, BayesianPriorBound,
    ::testing::Combine(::testing::Values(std::size_t{25}, std::size_t{50}),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1.0, 1000.0)));

}  // namespace
}  // namespace tme::core
