// Bitwise determinism gates for the pooled operator kernels: the
// row-blocked R x / R' y products, fanout_estimate and
// bayesian_estimate in the projected-CG regime, and the engine (a
// four-method schedule and fanout-only / Bayesian-only ones, whose
// solves get helpers only through the solve scope), all give the same
// bits on a ThreadPool of 0, 1, 2, 3 or 7 workers as with no pool at
// all, estimates and warm seeds alike.  The 40-PoP backbone (1560
// pairs) sits above dense_kkt_limit, so the Hessian applies really run
// through the blocked kernels.  Also checks that pooled windows report
// helper blocks in EngineMetrics.  Labelled `engine`, so the TSan lane
// runs it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/bayesian.hpp"
#include "core/fanout.hpp"
#include "core/gravity.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_cache.hpp"
#include "engine/replay.hpp"
#include "engine/thread_pool.hpp"
#include "engine/window.hpp"
#include "linalg/blocked_spmv.hpp"
#include "scenario/scenario.hpp"

namespace tme::engine {
namespace {

const std::vector<std::size_t> kPoolSizes = {0, 1, 2, 3, 7};
const std::vector<std::size_t> kWorkerCounts = {1, 2, 3, 7};

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Tasks long enough for the OS to spread the workers over CPUs
/// (freshly woken threads may all start on one).  Inside a solve scope
/// the workers then spin, ready for regions; a solve in the CG regime
/// opens its own scope.
void warm(ThreadPool& pool) {
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {
        const auto end =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < end) {
        }
    });
    pool.run_batch(std::move(tasks));
}

scenario::Scenario make_backbone(std::size_t samples) {
    scenario::GeneratedScenarioConfig config;
    config.pops = 40;
    config.seed = 1;
    config.samples = samples;
    return scenario::make_generated_scenario(config);
}

const scenario::Scenario& backbone() {
    static const scenario::Scenario sc = make_backbone(8);
    return sc;
}

/// Five samples (four windows per replay) for the gates that replay
/// many times; keeps the ThreadSanitizer lane short.
const scenario::Scenario& short_backbone() {
    static const scenario::Scenario sc = make_backbone(5);
    return sc;
}

TEST(ParallelDeterminism, BlockedKernelsOnPoolsMatchSerial) {
    const linalg::SparseMatrix& r = backbone().routing;
    const linalg::RoutingOperator op(r);
    const linalg::SparseMatrix rt = linalg::transpose(r);
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
    op.weighted_normal(x, rt, source_of, weights, window, scratch, hx,
                       nullptr);
    for (std::size_t n : kPoolSizes) {
        ThreadPool pool(n);
        const linalg::SolveScope scope(&pool);
        warm(pool);
        for (int rep = 0; rep < 20; ++rep) {
            linalg::Vector got;
            op.multiply(x, got, &pool);
            ASSERT_TRUE(bitwise_equal(got, rx)) << n << " workers";
            op.multiply_transpose(t, got, &pool);
            ASSERT_TRUE(bitwise_equal(got, rtt)) << n << " workers";
            op.weighted_normal(x, rt, source_of, weights, window, scratch,
                               got, &pool);
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
    fopt.shared_routing_transpose = &rt;
    fopt.qp.cg_max_iterations = 80;
    fopt.qp.max_active_set_rounds = 6;
    core::BayesianOptions bopt;
    bopt.shared_routing_transpose = &rt;
    bopt.qp.cg_max_iterations = 80;
    bopt.qp.max_active_set_rounds = 4;

    const core::FanoutResult fanout_ref = core::fanout_estimate(series, fopt);
    obs::SolverCounters bayes_ref_counters;
    bopt.qp.counters = &bayes_ref_counters;
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
        bopt.qp.counters = &counters;
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

TEST(ParallelDeterminism, EngineOnPoolMatchesInlineEngine) {
    const scenario::Scenario& sc = backbone();
    OnlineEngine serial(sc.topo, sc.routing, backbone_config(0));
    const ReplayResult want = replay_scenario(serial, sc);
    ASSERT_FALSE(want.windows.empty());

    OnlineEngine pooled(sc.topo, sc.routing, backbone_config(4));
    expect_same_windows(replay_scenario(pooled, sc).windows, want.windows);
}

EngineConfig single_method_config(Method m, std::size_t threads) {
    EngineConfig config = backbone_config(threads);
    config.methods = {m};
    // Bayesian's first round is the CG one; later rounds pin enough
    // coordinates to drop into the exact-LU regime, which runs no
    // kernel region and costs 0.1-0.3 s each on this backbone.
    config.method_options.bayesian.qp.max_active_set_rounds = 1;
    return config;
}

// A fanout-only or Bayesian-only schedule: the one solve task runs on a
// worker and every other worker is idle from the start, so helpers
// join only through the solve scope (begin_solve wakes them).
TEST(ParallelDeterminism, SingleOperatorMethodEnginesOnPoolsMatchSerial) {
    const scenario::Scenario& sc = short_backbone();
    for (const Method m : {Method::fanout, Method::bayesian}) {
        OnlineEngine serial(sc.topo, sc.routing, single_method_config(m, 0));
        const ReplayResult want = replay_scenario(serial, sc);
        ASSERT_FALSE(want.windows.empty());
        std::size_t cg_iterations = 0;
        for (const WindowResult& w : want.windows) {
            for (const MethodRun& run : w.runs) {
                cg_iterations += run.solver.qp_cg_iterations;
            }
        }
        ASSERT_GT(cg_iterations, 0u)
            << method_name(m) << " never reached the CG regime";
        for (std::size_t n : kWorkerCounts) {
            SCOPED_TRACE(std::string(method_name(m)) + ", " +
                         std::to_string(n) + " workers");
            OnlineEngine pooled(sc.topo, sc.routing,
                                single_method_config(m, n));
            expect_same_windows(replay_scenario(pooled, sc).windows,
                                want.windows);
        }
    }
}

/// The (estimate, warm seed) pair of every window of a warm-started
/// execute_method chain for `m` over the backbone's samples, as the
/// engine runs it, with `pool` lending its workers.
std::vector<MethodExecution> warm_chain(Method m, ThreadPool* pool) {
    const scenario::Scenario& sc = short_backbone();
    const EngineConfig config = single_method_config(m, 0);
    RoutingEpochCache cache;
    const std::shared_ptr<const RoutingEpoch> epoch =
        cache.acquire_shared(sc.routing);
    SlidingWindow window(&sc.topo, &sc.routing, config.window_size);
    std::vector<MethodExecution> chain;
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        window.push(k, sc.loads[k]);
        if (window.size() < config.min_series_window) continue;
        const WindowContext ctx = WindowContext::capture(
            window, epoch, config.methods, config.min_series_window, k);
        const linalg::Vector* seed =
            chain.empty() ? nullptr : &chain.back().warm_next;
        chain.push_back(execute_method(m, ctx, config.method_options, seed,
                                       /*collect_warm=*/true, pool));
    }
    return chain;
}

TEST(ParallelDeterminism, WarmSeedsOnPoolsMatchSerial) {
    for (const Method m : {Method::fanout, Method::bayesian}) {
        const std::vector<MethodExecution> want = warm_chain(m, nullptr);
        ASSERT_GT(want.size(), 2u);
        ASSERT_TRUE(want.front().warm_next_valid);
        ASSERT_GT(want.front().run.solver.qp_cg_iterations, 0u);
        for (std::size_t n : kWorkerCounts) {
            ThreadPool pool(n);
            const std::vector<MethodExecution> got = warm_chain(m, &pool);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t w = 0; w < got.size(); ++w) {
                EXPECT_TRUE(bitwise_equal(got[w].run.estimate,
                                          want[w].run.estimate))
                    << method_name(m) << ", " << n << " workers, window " << w;
                EXPECT_TRUE(bitwise_equal(got[w].warm_next, want[w].warm_next))
                    << method_name(m) << ", " << n << " workers, window " << w;
                EXPECT_EQ(got[w].run.warm_accepted, want[w].run.warm_accepted);
            }
        }
    }
}

// EngineMetrics shows helper engagement: a pooled CG-regime replay
// reports helper blocks (retried, like the region tests, so a
// descheduled worker cannot fail it), threads = 0 reports none.
TEST(ParallelDeterminism, PooledWindowsReportHelperBlocks) {
    const scenario::Scenario& sc = short_backbone();
    OnlineEngine serial(sc.topo, sc.routing,
                        single_method_config(Method::fanout, 0));
    replay_scenario(serial, sc);
    EXPECT_GT(serial.metrics().kernel_regions.load(), 0u);
    EXPECT_EQ(serial.metrics().kernel_regions_shared.load(), 0u);
    EXPECT_EQ(serial.metrics().kernel_helper_blocks.load(), 0u);

    bool helped = false;
    for (int attempt = 0; attempt < 5 && !helped; ++attempt) {
        OnlineEngine pooled(sc.topo, sc.routing,
                            single_method_config(Method::fanout, 3));
        replay_scenario(pooled, sc);
        const EngineMetrics& metrics = pooled.metrics();
        EXPECT_EQ(metrics.kernel_regions.load(),
                  serial.metrics().kernel_regions.load());
        EXPECT_LE(metrics.kernel_regions_shared.load(),
                  metrics.kernel_regions.load());
        helped = helped || metrics.kernel_helper_blocks > 0;
        const obs::Json j = metrics.to_json();
        ASSERT_NE(j.find("kernel_helper_blocks"), nullptr);
        EXPECT_EQ(j.find("kernel_helper_blocks")->as_int(),
                  static_cast<long long>(metrics.kernel_helper_blocks.load()));
    }
    EXPECT_TRUE(helped) << "no helper block";
}

}  // namespace
}  // namespace tme::engine
