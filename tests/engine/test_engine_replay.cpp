// Engine integration: full-day scenario replays, multi-threaded
// scheduling, mid-day route changes (stale-cache proof), and telemetry
// ingestion with lost polls.
#include "engine/replay.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/gravity.hpp"
#include "core/route_change.hpp"
#include "telemetry/poller.hpp"

namespace tme::engine {
namespace {

TEST(EngineReplay, MultiThreadedFullDaySmoke) {
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    EngineConfig config;
    config.window_size = 12;
    config.methods = {Method::gravity, Method::bayesian, Method::vardi,
                      Method::fanout};
    config.threads = 4;
    OnlineEngine engine(sc.topo, sc.routing, config);

    const ReplayResult result = replay_scenario(engine, sc);
    ASSERT_EQ(result.windows.size(), sc.demands.size());
    EXPECT_EQ(engine.metrics().samples_ingested, sc.demands.size());
    EXPECT_EQ(engine.metrics().windows_run, sc.demands.size());
    EXPECT_EQ(engine.metrics().epoch_changes, 0u);
    // One cache miss on the first sample, hits ever after.
    EXPECT_EQ(engine.metrics().cache_misses, 1u);
    EXPECT_EQ(engine.metrics().cache_hits, sc.demands.size() - 1);

    for (const WindowResult& window : result.windows) {
        for (const MethodRun& run : window.runs) {
            ASSERT_EQ(run.estimate.size(), sc.topo.pair_count());
            EXPECT_TRUE(linalg::all_finite(run.estimate));
            EXPECT_FALSE(std::isnan(run.mre));
        }
    }
    // Sanity on accuracy: gravity on the near-gravity Europe scenario
    // must beat 60% MRE, and the regularized methods must not be wildly
    // off either.
    ASSERT_TRUE(result.mean_mre.count(Method::gravity));
    EXPECT_LT(result.mean_mre.at(Method::gravity), 0.6);
    ASSERT_TRUE(result.mean_mre.count(Method::bayesian));
    EXPECT_LT(result.mean_mre.at(Method::bayesian), 1.0);
}

TEST(EngineReplay, MidDayRouteChangeNeverServesStaleEpoch) {
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(sc.topo, 0.8, 5);
    ASSERT_NE(core::routing_fingerprint(rerouted),
              core::routing_fingerprint(sc.routing));

    constexpr std::size_t change_at = 150;
    EngineConfig config;
    config.window_size = 8;
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(sc.topo, sc.routing, config);

    ReplayOptions options;
    options.events = {{change_at, &rerouted}};
    const ReplayResult result = replay_scenario(engine, sc, options);
    ASSERT_EQ(result.windows.size(), sc.demands.size());

    EXPECT_EQ(engine.metrics().epoch_changes, 1u);
    EXPECT_EQ(engine.metrics().window_flushes, 1u);

    const std::uint64_t fp_before = core::routing_fingerprint(sc.routing);
    const std::uint64_t fp_after = core::routing_fingerprint(rerouted);
    for (const WindowResult& window : result.windows) {
        // Every window must be tagged with the epoch of the routing
        // that was actually active — a stale fingerprint after the
        // change would mean cached data from the old R was served.
        const std::uint64_t expected =
            window.window_end_sample < change_at ? fp_before : fp_after;
        EXPECT_EQ(window.epoch_fingerprint, expected)
            << "sample " << window.window_end_sample;
        // No window may straddle the routing change.
        if (window.window_end_sample >= change_at) {
            EXPECT_GE(window.window_start_sample, change_at);
        }
    }

    // The first post-change window was rebuilt from scratch.
    const WindowResult& first_after = result.windows[change_at];
    EXPECT_EQ(first_after.window_size, 1u);
    EXPECT_EQ(first_after.window_start_sample, change_at);

    // The reroute retires the warm start: Bayesian runs warm right up
    // to the change and cold on the first window after it.
    const MethodRun* bayes_before =
        result.windows[change_at - 1].find(Method::bayesian);
    const MethodRun* bayes_after = first_after.find(Method::bayesian);
    ASSERT_NE(bayes_before, nullptr);
    ASSERT_NE(bayes_after, nullptr);
    EXPECT_TRUE(bayes_before->warm_started);
    EXPECT_FALSE(bayes_after->warm_started);

    // Post-change estimates are computed against the NEW routing: the
    // engine's gravity estimate must equal a direct computation from
    // the rerouted loads, bit for bit.
    core::SnapshotProblem snap;
    snap.topo = &sc.topo;
    snap.routing = &rerouted;
    snap.loads = rerouted.multiply(sc.demands[change_at]);
    const linalg::Vector direct = core::gravity_estimate(snap);
    const MethodRun* gravity = first_after.find(Method::gravity);
    ASSERT_NE(gravity, nullptr);
    ASSERT_EQ(gravity->estimate.size(), direct.size());
    for (std::size_t p = 0; p < direct.size(); ++p) {
        EXPECT_EQ(gravity->estimate[p], direct[p]);
    }

    // Flapping back to the original routing hits the epoch cache.
    const std::size_t hits_before = engine.metrics().cache_hits;
    engine.set_routing(sc.routing);
    const WindowResult flapped =
        engine.ingest(sc.demands.size(), sc.loads[0]);
    EXPECT_EQ(engine.metrics().cache_misses, 2u);  // still only two builds
    EXPECT_EQ(engine.metrics().cache_hits, hits_before + 1);
    // A->B->A: the second A epoch cold-starts too, although its
    // derived data came from the cache.
    const MethodRun* bayes_flapped = flapped.find(Method::bayesian);
    ASSERT_NE(bayes_flapped, nullptr);
    EXPECT_FALSE(bayes_flapped->warm_started);
}

TEST(EngineReplay, TelemetryIngestionFlagsGaps) {
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    const std::size_t links = sc.topo.link_count();
    const std::size_t intervals = 24;

    // True per-link rates from the first day's samples.
    std::vector<std::vector<double>> true_rates(intervals);
    for (std::size_t k = 0; k < intervals; ++k) {
        true_rates[k] = sc.loads[k];
    }
    telemetry::PollerConfig poller;
    poller.loss_probability = 0.2;
    poller.backup_recovery_probability = 0.5;
    poller.seed = 11;
    const telemetry::PollingOutcome outcome =
        telemetry::simulate_polling(true_rates, poller);
    ASSERT_EQ(outcome.store.objects(), links);
    ASSERT_GT(outcome.polls_lost, 0u);

    // Inline, and on a pool: the outcome replays the same.
    std::vector<WindowResult> inline_windows;
    for (const std::size_t threads : {0u, 2u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        EngineConfig config;
        config.window_size = 6;
        config.methods = {Method::gravity, Method::bayesian};
        config.threads = threads;
        OnlineEngine engine(sc.topo, sc.routing, config);
        const std::vector<WindowResult> windows =
            engine.ingest_outcome(outcome);
        EXPECT_EQ(windows.size(), intervals);
        EXPECT_EQ(engine.metrics().samples_ingested, intervals);
        EXPECT_EQ(engine.metrics().windows_run, intervals);
        // Lost polls surfaced as gap-flagged samples.
        EXPECT_GT(engine.metrics().gap_samples, 0u);
        EXPECT_EQ(engine.window().gap_count(),
                  engine.metrics().gap_samples);
        for (std::size_t k = 0; k < windows.size(); ++k) {
            for (std::size_t m = 0; m < windows[k].runs.size(); ++m) {
                const MethodRun& run = windows[k].runs[m];
                EXPECT_TRUE(linalg::all_finite(run.estimate));
                if (!inline_windows.empty()) {
                    EXPECT_EQ(run.estimate,
                              inline_windows[k].runs.at(m).estimate)
                        << "window " << k;
                }
            }
        }
        if (inline_windows.empty()) inline_windows = windows;

        // Object-count mismatch is rejected.
        telemetry::TimeSeriesStore tiny(3, 2);
        EXPECT_THROW(engine.ingest_interval(tiny, 0),
                     std::invalid_argument);
        EXPECT_THROW(engine.ingest_outcome({tiny}), std::invalid_argument);
    }
}

TEST(EngineReplay, MetricsSummaryMentionsEveryMethod) {
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    EngineConfig config;
    config.window_size = 6;
    config.methods = {Method::gravity, Method::kruithof, Method::entropy,
                      Method::bayesian, Method::vardi, Method::fanout};
    config.threads = 2;
    OnlineEngine engine(sc.topo, sc.routing, config);
    engine.set_truth(
        [&sc](std::size_t sample) { return sc.demands.at(sample); });
    for (std::size_t k = 0; k < 6; ++k) {
        engine.ingest(k, sc.loads[k]);
    }
    const std::string summary = engine.metrics().summary();
    for (Method m : config.methods) {
        EXPECT_NE(summary.find(method_name(m)), std::string::npos)
            << summary;
    }
    EXPECT_NE(summary.find("hit rate"), std::string::npos);
    EXPECT_NE(summary.find("mean_mre"), std::string::npos);
}

}  // namespace
}  // namespace tme::engine
