// Bitwise determinism gates for the pooled operator kernels: the
// row-blocked R x / R' y products, fanout_estimate and
// bayesian_estimate in the projected-CG regime, and both engines, all
// give the same bits on a ThreadPool of 0, 1, 2, 3 or 7 workers as with
// no pool at all.  The 40-PoP backbone (1560 pairs) sits above
// dense_kkt_limit, so the Hessian applies really run through the
// blocked kernels.  Labelled `engine`, so the TSan lane runs it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <random>
#include <vector>

#include "core/bayesian.hpp"
#include "core/fanout.hpp"
#include "core/gravity.hpp"
#include "engine/engine.hpp"
#include "engine/pipeline.hpp"
#include "engine/replay.hpp"
#include "engine/thread_pool.hpp"
#include "linalg/blocked_spmv.hpp"
#include "scenario/scenario.hpp"

namespace tme::engine {
namespace {

const std::vector<std::size_t> kPoolSizes = {0, 1, 2, 3, 7};

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Leaves every worker in its hot-idle spin, so the next regions are
/// shared with helpers instead of running on the caller alone: a region
/// first (workers spin only in pools that have opened one), then tasks
/// long enough for the OS to spread the workers over CPUs.
void warm(ThreadPool& pool) {
    pool.run(2, [](std::size_t, std::size_t) {});
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {
        const auto end =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < end) {
        }
    });
    pool.run_batch(std::move(tasks));
}

const scenario::Scenario& backbone() {
    static const scenario::Scenario sc = [] {
        scenario::GeneratedScenarioConfig config;
        config.pops = 40;
        config.seed = 1;
        config.samples = 8;
        return scenario::make_generated_scenario(config);
    }();
    return sc;
}

TEST(ParallelDeterminism, BlockedKernelsOnPoolsMatchSerial) {
    const linalg::SparseMatrix& r = backbone().routing;
    const linalg::RoutingOperator op(r);
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    linalg::Vector x(r.cols()), t(r.rows());
    for (double& v : x) v = u(rng) < -0.6 ? 0.0 : u(rng);
    for (double& v : t) v = u(rng) < -0.6 ? 0.0 : u(rng);
    const std::size_t window = 4;
    const scenario::Scenario& sc = backbone();
    std::vector<std::size_t> source_of(r.cols());
    for (std::size_t p = 0; p < r.cols(); ++p) {
        source_of[p] = sc.topo.pair_nodes(p).first;
    }
    std::vector<double> weights(sc.topo.pop_count() * window);
    for (double& v : weights) v = u(rng) < -0.5 ? 0.0 : 10.0 * u(rng);

    const linalg::Vector rx = r.multiply(x);
    const linalg::Vector rtt = r.multiply_transpose(t);
    linalg::WeightedNormalScratch scratch;
    linalg::Vector hx;
    op.weighted_normal(x, source_of, weights, window, scratch, hx, nullptr);
    for (std::size_t n : kPoolSizes) {
        ThreadPool pool(n);
        warm(pool);
        for (int rep = 0; rep < 20; ++rep) {
            linalg::Vector got;
            op.multiply(x, got, &pool);
            ASSERT_TRUE(bitwise_equal(got, rx)) << n << " workers";
            op.multiply_transpose(t, got, &pool);
            ASSERT_TRUE(bitwise_equal(got, rtt)) << n << " workers";
            op.weighted_normal(x, source_of, weights, window, scratch, got,
                               &pool);
            ASSERT_TRUE(bitwise_equal(got, hx)) << n << " workers";
        }
    }
}

TEST(ParallelDeterminism, OperatorEstimatorsOnPoolsMatchSerial) {
    const scenario::Scenario& sc = backbone();
    ASSERT_GT(sc.routing.cols(), linalg::EqQpNonnegOptions{}.dense_kkt_limit);
    const linalg::SparseMatrix rt = linalg::transpose(sc.routing);
    core::SeriesProblem series;
    series.topo = &sc.topo;
    series.routing = &sc.routing;
    series.loads.assign(sc.loads.begin(), sc.loads.begin() + 4);
    const core::SnapshotProblem snap = series.snapshot(3);
    const linalg::Vector prior = core::gravity_estimate(snap);

    core::FanoutOptions fopt;
    fopt.operator_form = true;
    fopt.shared_routing_transpose = &rt;
    fopt.qp.cg_max_iterations = 80;
    fopt.qp.max_active_set_rounds = 6;
    core::BayesianOptions bopt;
    bopt.operator_form = true;
    bopt.shared_routing_transpose = &rt;
    bopt.qp.cg_max_iterations = 80;
    bopt.qp.max_active_set_rounds = 4;

    const core::FanoutResult fanout_ref = core::fanout_estimate(series, fopt);
    obs::SolverCounters bayes_ref_counters;
    bopt.counters = &bayes_ref_counters;
    const linalg::Vector bayes_ref = core::bayesian_estimate(snap, prior, bopt);
    ASSERT_GT(fanout_ref.qp_cg_iterations, 0u);
    ASSERT_GT(bayes_ref_counters.qp_cg_iterations, 0u);

    for (std::size_t n : kPoolSizes) {
        ThreadPool pool(n);
        fopt.qp.parallel = &pool;
        warm(pool);
        const core::FanoutResult fanout = core::fanout_estimate(series, fopt);
        EXPECT_TRUE(bitwise_equal(fanout.fanouts, fanout_ref.fanouts))
            << n << " workers";
        EXPECT_TRUE(bitwise_equal(fanout.mean_demands, fanout_ref.mean_demands))
            << n << " workers";
        EXPECT_EQ(fanout.qp_cg_iterations, fanout_ref.qp_cg_iterations);
        EXPECT_EQ(fanout.qp_iterations, fanout_ref.qp_iterations);

        obs::SolverCounters counters;
        bopt.counters = &counters;
        bopt.qp.parallel = &pool;
        warm(pool);
        const linalg::Vector bayes = core::bayesian_estimate(snap, prior, bopt);
        EXPECT_TRUE(bitwise_equal(bayes, bayes_ref)) << n << " workers";
        EXPECT_EQ(counters.qp_cg_iterations, bayes_ref_counters.qp_cg_iterations);
        EXPECT_EQ(counters.qp_active_set_rounds,
                  bayes_ref_counters.qp_active_set_rounds);
    }
}

EngineConfig backbone_config(std::size_t threads) {
    EngineConfig config;
    config.window_size = 3;
    config.min_series_window = 2;
    config.methods = {Method::gravity, Method::kruithof, Method::bayesian,
                      Method::fanout};
    config.threads = threads;
    config.method_options.kruithof.max_iterations = 20;
    config.method_options.bayesian.qp.cg_max_iterations = 60;
    config.method_options.bayesian.qp.max_active_set_rounds = 4;
    config.method_options.fanout.qp.cg_max_iterations = 60;
    config.method_options.fanout.qp.max_active_set_rounds = 6;
    return config;
}

/// Estimates, solver counters and warm-start flags, window by window.
/// Bitwise-equal estimates under warm starts also pin the warm seeds:
/// every window is seeded by the previous one's solution.
void expect_same_windows(const std::vector<WindowResult>& a,
                         const std::vector<WindowResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w].runs.size(), b[w].runs.size()) << "window " << w;
        for (std::size_t m = 0; m < a[w].runs.size(); ++m) {
            const MethodRun& ra = a[w].runs[m];
            const MethodRun& rb = b[w].runs[m];
            ASSERT_EQ(ra.method, rb.method);
            EXPECT_TRUE(bitwise_equal(ra.estimate, rb.estimate))
                << method_name(ra.method) << " window " << w;
            EXPECT_EQ(ra.warm_started, rb.warm_started);
            EXPECT_EQ(ra.warm_accepted, rb.warm_accepted);
            EXPECT_EQ(ra.solver.qp_cg_iterations, rb.solver.qp_cg_iterations);
            EXPECT_EQ(ra.solver.qp_active_set_rounds,
                      rb.solver.qp_active_set_rounds);
            EXPECT_EQ(ra.solve_outcome, rb.solve_outcome);
            EXPECT_EQ(ra.quality, EstimateQuality::exact);
        }
    }
}

TEST(ParallelDeterminism, EnginesOnPoolsMatchSerialEngine) {
    const scenario::Scenario& sc = backbone();
    OnlineEngine serial(sc.topo, sc.routing, backbone_config(0));
    const ReplayResult want = replay_scenario(serial, sc);
    ASSERT_FALSE(want.windows.empty());

    OnlineEngine pooled(sc.topo, sc.routing, backbone_config(4));
    expect_same_windows(replay_scenario(pooled, sc).windows, want.windows);

    PipelineOptions pipeline;
    pipeline.depth = 2;
    PipelinedEngine piped(sc.topo, sc.routing, backbone_config(4), pipeline);
    expect_same_windows(replay_scenario(piped, sc).windows, want.windows);
}

}  // namespace
}  // namespace tme::engine
