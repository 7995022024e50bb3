#include "core/fanout.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/stats.hpp"

#include "core/metrics.hpp"
#include "test_helpers.hpp"
#include "traffic/traffic_matrix.hpp"

namespace tme::core {
namespace {

using testing::SmallNetwork;
using testing::tiny_network;

// Builds a window of demands with EXACTLY constant fanouts and varying
// per-source totals — the model the estimator assumes.
SeriesProblem constant_fanout_series(const SmallNetwork& net,
                                     std::size_t samples, unsigned seed,
                                     std::vector<linalg::Vector>* out) {
    const std::size_t nodes = net.topo.pop_count();
    const linalg::Vector alpha =
        traffic::fanouts_from_demands(nodes, net.truth);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    std::vector<linalg::Vector> demands;
    for (std::size_t k = 0; k < samples; ++k) {
        linalg::Vector totals(nodes);
        for (double& v : totals) v = dist(rng);
        demands.push_back(
            traffic::demands_from_fanouts(nodes, alpha, totals));
    }
    if (out != nullptr) *out = demands;
    return net.series(demands);
}

TEST(Fanout, RecoversConstantFanoutsExactly) {
    const SmallNetwork net = tiny_network(2);
    const SeriesProblem series = constant_fanout_series(net, 6, 3, nullptr);
    // Exact-recovery checks use the paper's pure formulation (the data
    // here is rich: totals vary a lot, so no tie-break is needed).
    FanoutOptions pure;
    pure.gravity_tiebreak_weight = 0.0;
    const FanoutResult r = fanout_estimate(series, pure);
    const linalg::Vector alpha =
        traffic::fanouts_from_demands(net.topo.pop_count(), net.truth);
    for (std::size_t p = 0; p < alpha.size(); ++p) {
        EXPECT_NEAR(r.fanouts[p], alpha[p], 1e-4);
    }
    EXPECT_LT(r.equality_violation, 1e-5);
}

TEST(Fanout, FanoutsSumToOnePerSource) {
    const SmallNetwork net = tiny_network(7);
    const SeriesProblem series = constant_fanout_series(net, 4, 9, nullptr);
    const FanoutResult r = fanout_estimate(series);
    const topology::Topology& t = net.topo;
    for (std::size_t n = 0; n < t.pop_count(); ++n) {
        double row = 0.0;
        for (std::size_t m = 0; m < t.pop_count(); ++m) {
            if (m != n) row += r.fanouts[t.pair_index(n, m)];
        }
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Fanout, MeanDemandsMatchTruthOnConstantFanoutData) {
    const SmallNetwork net = tiny_network(4);
    std::vector<linalg::Vector> demands;
    const SeriesProblem series = constant_fanout_series(net, 8, 5, &demands);
    FanoutOptions pure;
    pure.gravity_tiebreak_weight = 0.0;
    const FanoutResult r = fanout_estimate(series, pure);
    const linalg::Vector mean = linalg::sample_mean(demands);
    for (std::size_t p = 0; p < mean.size(); ++p) {
        EXPECT_NEAR(r.mean_demands[p], mean[p], 1e-3 * (1.0 + mean[p]));
    }
}

TEST(Fanout, SingleSnapshotStillProducesEstimate) {
    // Window of 1 (paper Fig. 10 left panel): underdetermined but the
    // QP still returns a feasible fanout vector.
    const SmallNetwork net = tiny_network(6);
    const SeriesProblem series = constant_fanout_series(net, 1, 2, nullptr);
    const FanoutResult r = fanout_estimate(series);
    for (double v : r.fanouts) EXPECT_GE(v, -1e-10);
    EXPECT_LT(r.equality_violation, 1e-5);
}

TEST(Fanout, NonNegativeFanouts) {
    const SmallNetwork net = tiny_network(12);
    const SeriesProblem series = constant_fanout_series(net, 5, 1, nullptr);
    const FanoutResult r = fanout_estimate(series);
    for (double v : r.fanouts) EXPECT_GE(v, 0.0);
}

TEST(Fanout, SnapshotDemandReconstruction) {
    const SmallNetwork net = tiny_network(3);
    const linalg::Vector alpha =
        traffic::fanouts_from_demands(net.topo.pop_count(), net.truth);
    const linalg::Vector demands =
        demands_from_fanout_snapshot(net.snapshot(), alpha);
    for (std::size_t p = 0; p < net.truth.size(); ++p) {
        EXPECT_NEAR(demands[p], net.truth[p], 1e-9);
    }
    EXPECT_THROW(
        demands_from_fanout_snapshot(net.snapshot(),
                                     linalg::Vector(2, 0.5)),
        std::invalid_argument);
}

TEST(Fanout, RequiresTopology) {
    const SmallNetwork net = tiny_network();
    SeriesProblem series = constant_fanout_series(net, 2, 1, nullptr);
    series.topo = nullptr;
    EXPECT_THROW(fanout_estimate(series), std::invalid_argument);
}

TEST(Fanout, SharedConstraintsIdentical) {
    const SmallNetwork net = tiny_network(5);
    const SeriesProblem series = constant_fanout_series(net, 5, 8, nullptr);
    const FanoutResult plain = fanout_estimate(series);

    const FanoutConstraints constraints =
        FanoutConstraints::build(net.topo);
    FanoutOptions options;
    options.shared_constraints = &constraints;
    const FanoutResult shared = fanout_estimate(series, options);
    // Same constraint values, same deterministic QP path: bit-for-bit.
    ASSERT_EQ(shared.fanouts.size(), plain.fanouts.size());
    for (std::size_t p = 0; p < plain.fanouts.size(); ++p) {
        EXPECT_EQ(shared.fanouts[p], plain.fanouts[p]);
    }

    FanoutConstraints wrong = constraints;
    wrong.source_of.pop_back();
    FanoutOptions bad;
    bad.shared_constraints = &wrong;
    EXPECT_THROW(fanout_estimate(series, bad), std::invalid_argument);
}

TEST(Fanout, SharedRoutingTransposeIdenticalAndChecked) {
    const SmallNetwork net = tiny_network(6);
    const SeriesProblem series = constant_fanout_series(net, 5, 13, nullptr);
    const FanoutResult plain = fanout_estimate(series);

    const linalg::SparseMatrix rt = linalg::transpose(net.routing);
    FanoutOptions options;
    options.shared_routing_transpose = &rt;
    const FanoutResult shared = fanout_estimate(series, options);
    ASSERT_EQ(shared.fanouts.size(), plain.fanouts.size());
    for (std::size_t p = 0; p < plain.fanouts.size(); ++p) {
        EXPECT_EQ(shared.fanouts[p], plain.fanouts[p]);
    }

    const linalg::SparseMatrix wrong(2, 2, {});
    FanoutOptions bad;
    bad.shared_routing_transpose = &wrong;
    EXPECT_THROW(fanout_estimate(series, bad), std::invalid_argument);
}

TEST(Fanout, ForcedCgQpPathStaysCloseToExact) {
    // Routing the factored QP through the projected-CG branch (as a
    // 100+ PoP backbone would) must reproduce the exact-LU fanouts to
    // solver precision.
    const SmallNetwork net = tiny_network(8);
    const SeriesProblem series = constant_fanout_series(net, 6, 7, nullptr);
    const FanoutResult exact = fanout_estimate(series);
    FanoutOptions options;
    options.qp.dense_kkt_limit = 0;
    const FanoutResult cg = fanout_estimate(series, options);
    EXPECT_GT(cg.qp_cg_iterations, 0u);
    EXPECT_EQ(exact.qp_cg_iterations, 0u);
    for (std::size_t p = 0; p < exact.fanouts.size(); ++p) {
        EXPECT_NEAR(cg.fanouts[p], exact.fanouts[p], 1e-6);
    }
    EXPECT_LT(cg.equality_violation, 1e-8);
}

TEST(Fanout, WarmStartSameEstimate) {
    const SmallNetwork net = tiny_network(9);
    const SeriesProblem series = constant_fanout_series(net, 6, 4, nullptr);
    const FanoutResult cold = fanout_estimate(series);

    // Warm start from the cold solution's active set: the QP verifies
    // the seed and must land on the same minimizer in fewer KKT solves.
    FanoutOptions options;
    options.qp.warm_start = &cold.fanouts;
    const FanoutResult warm = fanout_estimate(series, options);
    EXPECT_TRUE(warm.warm_accepted);
    EXPECT_LE(warm.qp_iterations, cold.qp_iterations);
    for (std::size_t p = 0; p < cold.fanouts.size(); ++p) {
        EXPECT_NEAR(warm.fanouts[p], cold.fanouts[p], 1e-9);
        EXPECT_NEAR(warm.mean_demands[p], cold.mean_demands[p], 1e-9);
    }

    const linalg::Vector wrong_size(3, 0.5);
    FanoutOptions bad;
    bad.qp.warm_start = &wrong_size;
    EXPECT_THROW(fanout_estimate(series, bad), std::invalid_argument);
}

TEST(Fanout, WarmStartFromDifferentWindowStillMatchesCold) {
    // Seed window B's solve with window A's fanouts (the engine's
    // streaming pattern); the estimate must equal B's cold solve.
    const SmallNetwork net = tiny_network(11);
    const SeriesProblem a = constant_fanout_series(net, 6, 21, nullptr);
    const SeriesProblem b = constant_fanout_series(net, 6, 22, nullptr);
    const FanoutResult seed = fanout_estimate(a);
    const FanoutResult cold = fanout_estimate(b);
    FanoutOptions options;
    options.qp.warm_start = &seed.fanouts;
    const FanoutResult warm = fanout_estimate(b, options);
    for (std::size_t p = 0; p < cold.fanouts.size(); ++p) {
        EXPECT_NEAR(warm.fanouts[p], cold.fanouts[p], 1e-9);
    }
}

}  // namespace
}  // namespace tme::core
