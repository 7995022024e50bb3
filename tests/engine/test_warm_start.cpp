// Warm-start equivalence: the reuse hooks must not change any estimate.
// All warm-started problems here have a unique minimizer (positive
// definite Gram, or strictly convex KL objective), so warm and cold runs
// converge to the same point; only the iteration path differs.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/bayesian.hpp"
#include "core/entropy.hpp"
#include "core/gravity.hpp"
#include "core/route_change.hpp"
#include "core/test_helpers.hpp"
#include "core/vardi.hpp"
#include "engine/engine.hpp"
#include "linalg/nnls.hpp"
#include "scenario/scenario.hpp"

namespace tme::engine {
namespace {

using core::testing::SmallNetwork;
using core::testing::tiny_network;

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
    EXPECT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    return worst;
}

TEST(WarmStart, NnlsGramSameSolution) {
    // Random PD system with an active non-negativity boundary.
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t n = 20;
    linalg::Matrix a(n + 5, n, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    const linalg::Matrix g = linalg::gram(a);
    linalg::Vector atb(n);
    for (double& v : atb) v = dist(rng);

    const linalg::NnlsResult cold = linalg::nnls_gram(g, atb);
    ASSERT_TRUE(cold.converged);

    // Warm start from the exact solution: converges immediately.
    linalg::NnlsOptions exact;
    exact.warm_start = &cold.x;
    const linalg::NnlsResult warm = linalg::nnls_gram(g, atb, 0.0, exact);
    ASSERT_TRUE(warm.converged);
    EXPECT_EQ(warm.iterations, 0u);
    EXPECT_LT(max_abs_diff(warm.x, cold.x), 1e-10);

    // Warm start from a perturbed support: same minimizer.
    linalg::Vector perturbed = cold.x;
    perturbed[0] += 1.0;
    perturbed[n - 1] = 0.0;
    linalg::NnlsOptions off;
    off.warm_start = &perturbed;
    const linalg::NnlsResult warm2 = linalg::nnls_gram(g, atb, 0.0, off);
    ASSERT_TRUE(warm2.converged);
    EXPECT_LT(max_abs_diff(warm2.x, cold.x), 1e-10);

    linalg::Vector wrong_size(n + 1, 1.0);
    linalg::NnlsOptions bad;
    bad.warm_start = &wrong_size;
    EXPECT_THROW(linalg::nnls_gram(g, atb, 0.0, bad),
                 std::invalid_argument);
}

TEST(WarmStart, BayesianSameEstimate) {
    const SmallNetwork net = tiny_network();
    const core::SnapshotProblem snap = net.snapshot();
    const linalg::Vector prior = core::gravity_estimate(snap);

    const linalg::Vector cold = core::bayesian_estimate(snap, prior);

    // Warm start from a deliberately different point (the prior).
    core::BayesianOptions warm_options;
    warm_options.qp.warm_start = &prior;
    const linalg::Vector warm =
        core::bayesian_estimate(snap, prior, warm_options);
    EXPECT_LT(max_abs_diff(warm, cold), 1e-9);

    // Warm start from the cold solution.
    core::BayesianOptions exact_options;
    exact_options.qp.warm_start = &cold;
    const linalg::Vector warm2 =
        core::bayesian_estimate(snap, prior, exact_options);
    EXPECT_LT(max_abs_diff(warm2, cold), 1e-9);
}

TEST(WarmStart, EntropyWarmNeverWorseAndNearby) {
    const SmallNetwork net = tiny_network();
    const core::SnapshotProblem snap = net.snapshot();
    const linalg::Vector prior = core::gravity_estimate(snap);

    core::EntropyOptions options;  // defaults: regularization 1000
    const linalg::Vector cold = core::entropy_estimate(snap, prior, options);

    core::EntropyOptions warm_options = options;
    warm_options.solver.initial = &cold;
    const linalg::Vector warm =
        core::entropy_estimate(snap, prior, warm_options);

    // The objective is strictly convex with a unique minimizer, but the
    // exponentiated-gradient solver terminates at first-order accuracy,
    // so coordinates agree to solver precision rather than machine
    // precision.  Restarting from the cold solution must never move to
    // a worse point.
    const double w = 1.0 / options.regularization;
    const auto objective = [&](const linalg::Vector& s) {
        const linalg::Vector r =
            linalg::sub(net.routing.multiply(s), snap.loads);
        return linalg::dot(r, r) + w * linalg::generalized_kl(s, prior);
    };
    EXPECT_LE(objective(warm), objective(cold) * (1.0 + 1e-12) + 1e-15);
    EXPECT_LT(max_abs_diff(warm, cold), 1e-2);
}

TEST(WarmStart, VardiSameEstimate) {
    const SmallNetwork net = tiny_network();
    std::mt19937_64 rng(21);
    std::uniform_real_distribution<double> dist(0.8, 1.2);
    std::vector<linalg::Vector> demands;
    for (std::size_t k = 0; k < 8; ++k) {
        linalg::Vector s = net.truth;
        for (double& v : s) v *= dist(rng);
        demands.push_back(std::move(s));
    }
    const core::SeriesProblem series = net.series(demands);

    const core::VardiResult cold = core::vardi_estimate(series);

    core::VardiOptions options;
    options.warm_start = &cold.lambda;
    const core::VardiResult warm = core::vardi_estimate(series, options);
    EXPECT_LT(max_abs_diff(warm.lambda, cold.lambda), 1e-8);
}

TEST(WarmStart, EngineWarmMatchesColdOverStream) {
    // Stream the same samples through a warm-starting engine and a cold
    // one; every window's estimates must agree.
    const SmallNetwork net = tiny_network();
    EngineConfig warm_config;
    warm_config.window_size = 5;
    warm_config.methods = {Method::gravity, Method::bayesian,
                           Method::vardi, Method::fanout};
    warm_config.warm_start = true;
    EngineConfig cold_config = warm_config;
    cold_config.warm_start = false;

    OnlineEngine warm_engine(net.topo, net.routing, warm_config);
    OnlineEngine cold_engine(net.topo, net.routing, cold_config);

    std::mt19937_64 rng(33);
    std::uniform_real_distribution<double> dist(0.7, 1.3);
    for (std::size_t k = 0; k < 12; ++k) {
        linalg::Vector s = net.truth;
        for (double& v : s) v *= dist(rng);
        const linalg::Vector loads = net.routing.multiply(s);
        const WindowResult warm_result = warm_engine.ingest(k, loads);
        const WindowResult cold_result = cold_engine.ingest(k, loads);
        ASSERT_EQ(warm_result.runs.size(), cold_result.runs.size());
        for (std::size_t i = 0; i < warm_result.runs.size(); ++i) {
            const MethodRun& w = warm_result.runs[i];
            const MethodRun& c = cold_result.runs[i];
            ASSERT_EQ(w.method, c.method);
            EXPECT_LT(max_abs_diff(w.estimate, c.estimate), 1e-9)
                << "method " << method_name(w.method) << " at sample " << k;
        }
    }
    // The warm engine actually warm-started something, and the fanout
    // QP's active-set seeds were verified and accepted.
    const MethodStats& stats =
        warm_engine.metrics().methods.at(Method::bayesian);
    EXPECT_GT(stats.warm_runs, 0u);
    const MethodStats& fanout_stats =
        warm_engine.metrics().methods.at(Method::fanout);
    EXPECT_GT(fanout_stats.warm_runs, 0u);
    EXPECT_GT(fanout_stats.warm_accepted_runs, 0u);
}

TEST(WarmStart, FanoutWarmMatchesColdAcrossMidDayReroute) {
    // Replay a scenario day with a routing change in the middle through
    // a warm-starting engine and a cold one: the fanout estimates must
    // agree to 1e-9 on every window, including the windows right after
    // the reroute (where the warm state was flushed and the QP restarts
    // cold on a fresh epoch).
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(sc.topo, 0.8, 5);
    constexpr std::size_t kChangeAt = 60;
    constexpr std::size_t kSamples = 120;

    EngineConfig warm_config;
    warm_config.window_size = 12;
    warm_config.methods = {Method::fanout, Method::vardi};
    warm_config.warm_start = true;
    EngineConfig cold_config = warm_config;
    cold_config.warm_start = false;
    OnlineEngine warm_engine(sc.topo, sc.routing, warm_config);
    OnlineEngine cold_engine(sc.topo, sc.routing, cold_config);

    for (std::size_t k = 0; k < kSamples; ++k) {
        if (k == kChangeAt) {
            warm_engine.set_routing(rerouted);
            cold_engine.set_routing(rerouted);
        }
        const linalg::SparseMatrix& r =
            k < kChangeAt ? sc.routing : rerouted;
        const linalg::Vector loads = r.multiply(sc.demands[k]);
        const WindowResult warm_result = warm_engine.ingest(k, loads);
        const WindowResult cold_result = cold_engine.ingest(k, loads);
        ASSERT_EQ(warm_result.runs.size(), cold_result.runs.size());
        for (std::size_t i = 0; i < warm_result.runs.size(); ++i) {
            const MethodRun& w = warm_result.runs[i];
            const MethodRun& c = cold_result.runs[i];
            ASSERT_EQ(w.method, c.method);
            EXPECT_LT(max_abs_diff(w.estimate, c.estimate), 1e-9)
                << "method " << method_name(w.method) << " at sample "
                << k;
        }
    }
    EXPECT_EQ(warm_engine.metrics().epoch_changes, 1u);
    const MethodStats& stats =
        warm_engine.metrics().methods.at(Method::fanout);
    EXPECT_GT(stats.warm_accepted_runs, 0u);
    // The reroute flushed the warm state, so at least two runs (the
    // first of each epoch) were cold.
    EXPECT_LE(stats.warm_runs + 2, stats.runs());
}

TEST(WarmStart, DuplicateMethodsAreRejected) {
    // Each method owns one warm-start slot (fanout writes its slot from
    // inside the pool task), so scheduling a method twice would race.
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.methods = {Method::gravity, Method::fanout, Method::fanout};
    EXPECT_THROW(OnlineEngine(net.topo, net.routing, config),
                 std::invalid_argument);
}

TEST(WarmStart, AllQuietTruthWindowScoresNaNInsteadOfThrowing) {
    // A truth provider that reports zero traffic must not let the MRE
    // metric throw out of the engine; the run is scored NaN and
    // stays out of the per-method MRE aggregates.
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.window_size = 4;
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(net.topo, net.routing, config);
    engine.set_truth([&net](std::size_t) {
        return linalg::Vector(net.topo.pair_count(), 0.0);
    });

    const linalg::Vector loads = net.routing.multiply(net.truth);
    for (std::size_t k = 0; k < 3; ++k) {
        const WindowResult result = engine.ingest(k, loads);
        for (const MethodRun& run : result.runs) {
            EXPECT_TRUE(std::isnan(run.mre));
        }
    }
    EXPECT_GT(engine.metrics().mre_skipped_runs, 0u);
    for (const auto& [method, stats] : engine.metrics().methods) {
        EXPECT_EQ(stats.mre_count, 0u) << method_name(method);
        EXPECT_TRUE(std::isnan(stats.mean_mre()));
    }
}

}  // namespace
}  // namespace tme::engine
