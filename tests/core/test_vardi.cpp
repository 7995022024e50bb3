#include "core/vardi.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/metrics.hpp"
#include "test_helpers.hpp"
#include "traffic/generator.hpp"

namespace tme::core {
namespace {

using testing::SmallNetwork;
using testing::tiny_network;

// Poisson demands in count units (scale 1) so that variance == mean, the
// exact model Vardi assumes.  `boost` lifts the rates into a regime with
// realistic relative noise.
SeriesProblem poisson_series(const SmallNetwork& net, double boost,
                             std::size_t samples, unsigned seed,
                             linalg::Vector* lambda_out = nullptr) {
    linalg::Vector lambda = net.truth;
    for (double& v : lambda) v *= boost;
    if (lambda_out != nullptr) *lambda_out = lambda;
    const auto demands =
        traffic::generate_poisson_series(lambda, 1.0, samples, seed);
    return net.series(demands);
}

TEST(Vardi, FirstMomentsOnlyFitsMeanLoads) {
    const SmallNetwork net = tiny_network();
    const SeriesProblem series = poisson_series(net, 100.0, 30, 1);
    VardiOptions options;
    options.second_moment_weight = 0.0;
    const VardiResult r = vardi_estimate(series, options);
    EXPECT_LT(r.first_moment_residual, 1e-6);
    for (double v : r.lambda) EXPECT_GE(v, 0.0);
}

TEST(Vardi, RecoversPoissonTrafficWithLargeWindow) {
    // On genuinely Poisson traffic with many samples the second moments
    // identify lambda (paper Fig. 12's premise).
    const SmallNetwork net = tiny_network(2);
    linalg::Vector lambda;
    const SeriesProblem series = poisson_series(net, 200.0, 800, 3, &lambda);
    VardiOptions options;
    options.second_moment_weight = 1.0;
    const VardiResult r = vardi_estimate(series, options);
    EXPECT_LT(mre_at_coverage(lambda, r.lambda, 0.95), 0.30);
}

TEST(Vardi, MoreSamplesImproveEstimate) {
    const SmallNetwork net = tiny_network(4);
    VardiOptions options;
    options.second_moment_weight = 1.0;
    linalg::Vector lambda;
    const VardiResult small =
        vardi_estimate(poisson_series(net, 200.0, 20, 5, &lambda), options);
    const VardiResult large =
        vardi_estimate(poisson_series(net, 200.0, 1500, 5), options);
    EXPECT_LT(mre_at_coverage(lambda, large.lambda, 0.95),
              mre_at_coverage(lambda, small.lambda, 0.95) + 1e-9);
}

TEST(Vardi, ResidualDiagnosticsPopulated) {
    const SmallNetwork net = tiny_network();
    const SeriesProblem series = poisson_series(net, 50.0, 40, 7);
    VardiOptions options;
    options.second_moment_weight = 0.5;
    const VardiResult r = vardi_estimate(series, options);
    EXPECT_GT(r.second_moment_residual, 0.0);
    EXPECT_GE(r.first_moment_residual, 0.0);
}

TEST(Vardi, RejectsNegativeWeight) {
    const SmallNetwork net = tiny_network();
    const SeriesProblem series = poisson_series(net, 50.0, 5, 1);
    VardiOptions bad;
    bad.second_moment_weight = -0.1;
    EXPECT_THROW(vardi_estimate(series, bad), std::invalid_argument);
}

TEST(Vardi, RejectsEmptyWindow) {
    const SmallNetwork net = tiny_network();
    SeriesProblem series;
    series.topo = &net.topo;
    series.routing = &net.routing;
    EXPECT_THROW(vardi_estimate(series), std::invalid_argument);
}

TEST(Vardi, GramShortcutMatchesNaiveOnMiniProblem) {
    // Cross-check the closed-form Gram construction against an explicit
    // stacked least-squares matrix on a 2-link, 2-demand system.
    // R = [1 0; 1 1]; demands d; loads t = R d.
    linalg::SparseMatrix r = linalg::SparseMatrix::from_dense(
        linalg::Matrix{{1.0, 0.0}, {1.0, 1.0}});
    topology::Topology dummy;  // not used by vardi_estimate
    SeriesProblem series;
    series.topo = nullptr;
    series.routing = &r;
    std::mt19937_64 rng(8);
    std::poisson_distribution<int> d0(40.0);
    std::poisson_distribution<int> d1(10.0);
    for (int k = 0; k < 2000; ++k) {
        const double a = d0(rng);
        const double b = d1(rng);
        series.loads.push_back({a, a + b});
    }
    VardiOptions options;
    options.second_moment_weight = 1.0;
    const VardiResult res = vardi_estimate(series, options);
    EXPECT_NEAR(res.lambda[0], 40.0, 4.0);
    EXPECT_NEAR(res.lambda[1], 10.0, 2.5);
}

TEST(Vardi, SharedRoutingTransposeIdenticalAndChecked) {
    const SmallNetwork net = tiny_network(3);
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> dist(0.8, 1.2);
    std::vector<linalg::Vector> demands;
    for (std::size_t k = 0; k < 6; ++k) {
        linalg::Vector s = net.truth;
        for (double& v : s) v *= dist(rng);
        demands.push_back(std::move(s));
    }
    const SeriesProblem series = net.series(demands);
    const VardiResult plain = vardi_estimate(series);

    const linalg::SparseMatrix rt = linalg::transpose(net.routing);
    VardiOptions options;
    options.shared_routing_transpose = &rt;
    const VardiResult shared = vardi_estimate(series, options);
    ASSERT_EQ(shared.lambda.size(), plain.lambda.size());
    for (std::size_t p = 0; p < plain.lambda.size(); ++p) {
        EXPECT_EQ(shared.lambda[p], plain.lambda[p]);
    }

    const linalg::SparseMatrix wrong(3, 3, {});
    VardiOptions bad;
    bad.shared_routing_transpose = &wrong;
    EXPECT_THROW(vardi_estimate(series, bad), std::invalid_argument);
}

}  // namespace
}  // namespace tme::core
