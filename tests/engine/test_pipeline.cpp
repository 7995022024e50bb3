// Pooled window passes: deterministic equivalence against the inline
// engine.  Every concurrency claim is pinned here: pools of 0/1/2/4
// workers reproduce the inline estimates bit for bit for every method
// on Europe and USA days with a mid-day reroute, with exactly the
// inline warm-run pattern (no stale seeding across the reroute);
// cold Vardi and fanout estimates are bitwise the batch estimators';
// windows come back in submission order; and a window with a failed
// stage is neither counted nor published, inline and pooled.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/fanout.hpp"
#include "core/route_change.hpp"
#include "core/vardi.hpp"
#include "engine/replay.hpp"

namespace tme::engine {
namespace {

/// Replay length for the full equivalence sweep.  Overridable so slow
/// instrumented runs (ThreadSanitizer CI) can shorten the day without
/// losing any of the concurrency coverage.
std::size_t sweep_samples() {
    if (const char* env = std::getenv("TME_REPLAY_SAMPLES")) {
        const long v = std::atol(env);
        if (v >= 8) return static_cast<std::size_t>(v);
    }
    return 80;
}

scenario::Scenario day_scenario(scenario::Network network,
                                std::size_t samples) {
    scenario::Scenario sc = scenario::make_scenario(network);
    if (sc.demands.size() > samples) {
        sc.demands.resize(samples);
        sc.loads.resize(samples);
    }
    return sc;
}

EngineConfig all_method_config(std::size_t threads) {
    EngineConfig config;
    config.window_size = 8;
    config.min_series_window = 3;
    config.methods = {Method::gravity, Method::kruithof, Method::entropy,
                      Method::bayesian, Method::vardi,   Method::fanout};
    config.threads = threads;
    config.warm_start = true;
    // The equivalence claim is about scheduling, not solver depth: cap
    // the iterative solvers so whole-day sweeps stay fast.  Both sides
    // of every comparison share these options, so estimates still
    // match bit for bit.
    config.method_options.entropy.solver.max_iterations = 200;
    config.method_options.entropy.solver.tolerance = 1e-6;
    config.method_options.kruithof.max_iterations = 100;
    config.method_options.kruithof.tolerance = 1e-8;
    return config;
}

double worst_estimate_diff(const std::vector<WindowResult>& a,
                           const std::vector<WindowResult>& b) {
    EXPECT_EQ(a.size(), b.size());
    if (a.size() != b.size()) return 1e300;
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].runs.size(), b[k].runs.size()) << "window " << k;
        if (a[k].runs.size() != b[k].runs.size()) return 1e300;
        EXPECT_EQ(a[k].epoch_fingerprint, b[k].epoch_fingerprint)
            << "window " << k;
        EXPECT_EQ(a[k].window_start_sample, b[k].window_start_sample);
        EXPECT_EQ(a[k].window_size, b[k].window_size);
        for (std::size_t m = 0; m < a[k].runs.size(); ++m) {
            const MethodRun& ra = a[k].runs[m];
            const MethodRun& rb = b[k].runs[m];
            EXPECT_EQ(ra.method, rb.method) << "window " << k;
            EXPECT_EQ(ra.estimate.size(), rb.estimate.size());
            if (ra.method != rb.method ||
                ra.estimate.size() != rb.estimate.size()) {
                return 1e300;
            }
            for (std::size_t p = 0; p < ra.estimate.size(); ++p) {
                worst = std::max(
                    worst, std::abs(ra.estimate[p] - rb.estimate[p]));
            }
            // MRE is a pure function of the estimate, so it must track.
            if (std::isnan(ra.mre)) {
                EXPECT_TRUE(std::isnan(rb.mre)) << "window " << k;
            } else {
                worst = std::max(worst, std::abs(ra.mre - rb.mre));
            }
        }
    }
    return worst;
}

TEST(EnginePipeline, PooledEnginesMatchInlineEngineWithMidDayReroute) {
    for (const scenario::Network network :
         {scenario::Network::europe, scenario::Network::usa}) {
        const scenario::Scenario sc = day_scenario(network, sweep_samples());
        const std::size_t change_at = sc.demands.size() / 2;
        const linalg::SparseMatrix rerouted =
            core::perturbed_routing(sc.topo, 0.8, 5);
        ReplayOptions options;
        options.events = {{change_at, &rerouted}};

        OnlineEngine serial(sc.topo, sc.routing, all_method_config(0));
        const ReplayResult reference =
            replay_scenario(serial, sc, options);
        ASSERT_EQ(reference.windows.size(), sc.demands.size());
        ASSERT_EQ(serial.metrics().epoch_changes.load(), 1u);

        for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
            OnlineEngine engine(sc.topo, sc.routing,
                                all_method_config(threads));
            const ReplayResult result =
                replay_scenario(engine, sc, options);
            EXPECT_EQ(worst_estimate_diff(reference.windows, result.windows),
                      0.0)
                << sc.name << " " << threads << " threads";

            // Warm starts replicate the inline warm pattern exactly:
            // same number of runs and warm(-accepted) runs per method,
            // including the cold restart after the reroute — a seed
            // from the wrong window would break these counts.
            for (const auto& [method, stats] : serial.metrics().methods) {
                const auto it = engine.metrics().methods.find(method);
                ASSERT_NE(it, engine.metrics().methods.end());
                EXPECT_EQ(it->second.runs.load(), stats.runs.load())
                    << method_name(method) << " " << threads << " threads";
                EXPECT_EQ(it->second.warm_runs.load(),
                          stats.warm_runs.load())
                    << method_name(method) << " " << threads << " threads";
                EXPECT_EQ(it->second.warm_accepted_runs.load(),
                          stats.warm_accepted_runs.load())
                    << method_name(method) << " " << threads << " threads";
            }
        }
    }
}

TEST(EnginePipeline, ColdSeriesEstimatesAreBitwiseTheBatchEstimators) {
    // The engine computes a window's aggregates from its samples with
    // the functions the batch estimators call, so with warm starts off
    // every Vardi and fanout estimate is bitwise vardi_estimate /
    // fanout_estimate on that window's samples — across the reroute's
    // window flush and on a pool.
    for (const scenario::Network network :
         {scenario::Network::europe, scenario::Network::usa}) {
        const scenario::Scenario sc =
            day_scenario(network, std::min<std::size_t>(sweep_samples(), 40));
        const std::size_t change_at = sc.demands.size() / 2;
        const linalg::SparseMatrix rerouted =
            core::perturbed_routing(sc.topo, 0.8, 5);
        ReplayOptions options;
        options.events = {{change_at, &rerouted}};
        std::vector<const linalg::SparseMatrix*> routing_of;
        std::vector<linalg::Vector> loads_of;
        scenario::replay(sc, options.events,
                         [&](std::size_t, const linalg::SparseMatrix& r,
                             const linalg::Vector& loads,
                             const linalg::Vector&) {
                             routing_of.push_back(&r);
                             loads_of.push_back(loads);
                         });

        EngineConfig config;
        config.window_size = 8;
        config.min_series_window = 3;
        config.methods = {Method::vardi, Method::fanout};
        config.warm_start = false;
        config.threads = 0;
        OnlineEngine inline_engine(sc.topo, sc.routing, config);
        const ReplayResult inline_result =
            replay_scenario(inline_engine, sc, options);
        config.threads = 2;
        OnlineEngine pooled_engine(sc.topo, sc.routing, config);
        const ReplayResult pooled_result =
            replay_scenario(pooled_engine, sc, options);
        ASSERT_EQ(inline_result.windows.size(), sc.demands.size());
        ASSERT_EQ(pooled_result.windows.size(), sc.demands.size());

        std::size_t compared = 0;
        for (std::size_t k = 0; k < sc.demands.size(); ++k) {
            const WindowResult& window = inline_result.windows[k];
            if (window.runs.empty()) continue;
            core::SeriesProblem series;
            series.topo = &sc.topo;
            series.routing = routing_of[window.window_end_sample];
            for (std::size_t s = window.window_start_sample;
                 s <= window.window_end_sample; ++s) {
                series.loads.push_back(loads_of[s]);
            }
            ASSERT_EQ(series.loads.size(), window.window_size);
            const linalg::Vector vardi = core::vardi_estimate(series).lambda;
            const linalg::Vector fanout =
                core::fanout_estimate(series).mean_demands;
            for (const WindowResult* engine_window :
                 {&window, &pooled_result.windows[k]}) {
                const MethodRun* vardi_run =
                    engine_window->find(Method::vardi);
                const MethodRun* fanout_run =
                    engine_window->find(Method::fanout);
                ASSERT_NE(vardi_run, nullptr);
                ASSERT_NE(fanout_run, nullptr);
                const char* side =
                    engine_window == &window ? "inline" : "pooled";
                EXPECT_EQ(vardi_run->estimate, vardi)
                    << sc.name << " " << side << ", window "
                    << window.window_start_sample << "-"
                    << window.window_end_sample;
                EXPECT_EQ(fanout_run->estimate, fanout)
                    << sc.name << " " << side << ", window "
                    << window.window_start_sample << "-"
                    << window.window_end_sample;
            }
            ++compared;
        }
        // Every window from the third sample on, less the two
        // post-reroute warm-up windows.
        EXPECT_EQ(compared, sc.demands.size() - 4) << sc.name;
    }
}

TEST(EnginePipeline, PooledWindowsArriveInSubmissionOrder) {
    const scenario::Scenario sc =
        day_scenario(scenario::Network::europe, 40);
    OnlineEngine engine(sc.topo, sc.routing, all_method_config(2));
    const ReplayResult result = replay_scenario(engine, sc);
    EXPECT_EQ(result.windows.size(), sc.demands.size());
    for (std::size_t k = 0; k < result.windows.size(); ++k) {
        EXPECT_EQ(result.windows[k].window_end_sample, k);
    }
}

TEST(EnginePipeline, SetRoutingToContentIdenticalCopyKeepsTheWindow) {
    // Swapping to a new, content-identical routing object keeps the
    // epoch and the window, and rebinds the window off the old object:
    // the caller may free it once the next submit has returned.
    const scenario::Scenario sc =
        day_scenario(scenario::Network::europe, 16);
    EngineConfig config = all_method_config(2);
    config.methods = {Method::gravity, Method::bayesian, Method::fanout};
    OnlineEngine engine(sc.topo, sc.routing, config);
    for (std::size_t k = 0; k < 8; ++k) {
        engine.submit(k, sc.loads[k]);
    }
    {
        // Content-identical copy in a fresh object, as a caller
        // replacing its matrix would produce.
        const linalg::SparseMatrix copy = sc.routing;
        engine.set_routing(copy);
        EXPECT_EQ(engine.metrics().windows_run.load(), 8u);
        for (std::size_t k = 8; k < 12; ++k) {
            engine.submit(k, sc.loads[k]);
        }
        const std::vector<WindowResult> results = engine.finish();
        EXPECT_EQ(results.size(), 12u);
        // Same fingerprint: no epoch change, window kept growing.
        EXPECT_EQ(engine.metrics().epoch_changes.load(), 0u);
        EXPECT_EQ(engine.metrics().window_flushes.load(), 0u);
        // Swap back and rebind the window off `copy` with one more
        // submit while it is still alive; after that the copy can die.
        engine.set_routing(sc.routing);
        engine.submit(12, sc.loads[12]);
        const std::vector<WindowResult> tail = engine.finish();
        EXPECT_EQ(tail.size(), 1u);
    }
    EXPECT_EQ(engine.metrics().window_flushes.load(), 0u);
    EXPECT_EQ(engine.metrics().windows_run.load(), 13u);
}

TEST(EnginePipeline, SeriesOnlyConfigCompletesWarmupWindows) {
    // Regression: a window where EVERY scheduled method is a series
    // method still below min_series_window has zero stages — it must
    // still complete, with an empty run list.
    const scenario::Scenario sc =
        day_scenario(scenario::Network::europe, 8);
    EngineConfig config;
    config.window_size = 6;
    config.min_series_window = 3;
    config.methods = {Method::vardi, Method::fanout};
    config.threads = 2;
    OnlineEngine engine(sc.topo, sc.routing, config);
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        engine.submit(k, sc.loads[k]);
    }
    const std::vector<WindowResult> results = engine.finish();
    ASSERT_EQ(results.size(), sc.loads.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
        if (k + 1 < config.min_series_window) {
            EXPECT_TRUE(results[k].runs.empty()) << "window " << k;
        } else {
            EXPECT_EQ(results[k].runs.size(), 2u) << "window " << k;
        }
    }
    EXPECT_EQ(engine.metrics().windows_run.load(), sc.loads.size());
}

TEST(EnginePipeline, ReusableAfterFinishAndValidatesConfig) {
    const scenario::Scenario sc =
        day_scenario(scenario::Network::europe, 12);
    EngineConfig config = all_method_config(1);
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(sc.topo, sc.routing, config);
    for (std::size_t k = 0; k < 6; ++k) {
        engine.submit(k, sc.loads[k]);
    }
    const std::vector<WindowResult> first = engine.finish();
    EXPECT_EQ(first.size(), 6u);
    // finish() clears the buffer; the engine keeps streaming.
    for (std::size_t k = 6; k < 12; ++k) {
        engine.submit(k, sc.loads[k]);
    }
    const std::vector<WindowResult> second = engine.finish();
    ASSERT_EQ(second.size(), 6u);
    EXPECT_EQ(second.front().window_end_sample, 6u);
    EXPECT_EQ(engine.metrics().windows_run.load(), 12u);

    // Config validation is typed.
    EngineConfig bad = config;
    bad.methods = {Method::gravity, Method::gravity};
    EXPECT_THROW(OnlineEngine(sc.topo, sc.routing, bad),
                 SchedulerConfigException);
}

// A stage that throws a non-degradable error (std::invalid_argument
// from an invalid solver option) fails its window: the window is
// neither counted nor published, ingest() / finish() rethrow, and the
// engine keeps streaming — inline and on a pool.
TEST(EnginePipeline, FailedStageWindowIsNeitherCountedNorPublished) {
    const scenario::Scenario sc =
        day_scenario(scenario::Network::europe, 8);
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(sc.topo, 0.8, 5);
    for (const std::size_t threads : {0u, 2u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        std::size_t published = 0;
        const WindowSink count = [&](const WindowResult&) {
            ++published;
        };

        // Every window fails: Bayesian rejects a zero regularization.
        EngineConfig bad_bayes = all_method_config(threads);
        bad_bayes.methods = {Method::gravity, Method::bayesian};
        bad_bayes.method_options.bayesian.regularization = 0.0;
        OnlineEngine failing(sc.topo, sc.routing, bad_bayes);
        failing.set_window_sink(count);
        EXPECT_THROW(failing.ingest(0, sc.loads[0]),
                     std::invalid_argument);
        failing.submit(1, sc.loads[1]);
        failing.submit(2, sc.loads[2]);
        EXPECT_THROW(failing.finish(), std::invalid_argument);
        EXPECT_EQ(published, 0u);
        EXPECT_EQ(failing.metrics().windows_run.load(), 0u);
        EXPECT_EQ(failing.metrics().samples_ingested.load(), 3u);

        // Only windows that reach Vardi fail (min_series_window 2);
        // a reroute flushes the window back below it.
        EngineConfig bad_vardi = all_method_config(threads);
        bad_vardi.methods = {Method::gravity, Method::vardi};
        bad_vardi.min_series_window = 2;
        bad_vardi.method_options.vardi.second_moment_weight = -1.0;
        OnlineEngine engine(sc.topo, sc.routing, bad_vardi);
        engine.set_window_sink(count);
        EXPECT_EQ(engine.ingest(0, sc.loads[0]).runs.size(), 1u);
        EXPECT_THROW(engine.ingest(1, sc.loads[1]),
                     std::invalid_argument);
        EXPECT_EQ(published, 1u);
        EXPECT_EQ(engine.metrics().windows_run.load(), 1u);
        engine.set_routing(rerouted);
        EXPECT_EQ(engine.ingest(2, sc.loads[2]).runs.size(), 1u);
        EXPECT_EQ(published, 2u);

        engine.submit(3, sc.loads[3]);
        EXPECT_THROW(engine.finish(), std::invalid_argument);
        EXPECT_EQ(published, 2u);
        EXPECT_EQ(engine.metrics().windows_run.load(), 2u);
        engine.set_routing(sc.routing);
        engine.submit(4, sc.loads[4]);
        const std::vector<WindowResult> tail = engine.finish();
        ASSERT_EQ(tail.size(), 1u);
        EXPECT_EQ(tail[0].window_end_sample, 4u);
        EXPECT_EQ(published, 3u);
        EXPECT_EQ(engine.metrics().windows_run.load(), 3u);
        const MethodStats& vardi =
            engine.metrics().methods.at(Method::vardi);
        EXPECT_EQ(vardi.runs.load(), 0u);
    }
}

}  // namespace
}  // namespace tme::engine
