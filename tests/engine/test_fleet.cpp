// FleetDriver: concurrent multi-scenario replays over one topology
// sharing a single epoch cache.  Estimates must match solo serial runs
// bit for bit, the shared cache must build each distinct epoch exactly
// once, per-job metrics must aggregate into the fleet report, and a
// crashing job must be retried and quarantined without disturbing its
// siblings.
#include "engine/fleet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/route_change.hpp"

namespace tme::engine {
namespace {

scenario::Scenario short_scenario(std::size_t samples, unsigned seed = 1) {
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe, seed);
    if (sc.demands.size() > samples) {
        sc.demands.resize(samples);
        sc.loads.resize(samples);
    }
    return sc;
}

EngineConfig small_config(std::size_t window_size) {
    EngineConfig config;
    config.window_size = window_size;
    config.methods = {Method::gravity, Method::bayesian, Method::vardi,
                      Method::fanout};
    config.threads = 0;
    return config;
}

TEST(FleetDriver, MatchesSoloRunsAndBuildsSharedEpochOnce) {
    constexpr std::size_t kSamples = 40;
    const scenario::Scenario sc = short_scenario(kSamples);

    // One scenario, three engine configurations (a config sweep over
    // the same day — all jobs share the scenario's routing epoch).
    const std::size_t windows[] = {6, 10, 14};
    std::vector<FleetJob> jobs(3);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].name = "w" + std::to_string(windows[j]);
        jobs[j].scenario = &sc;
        jobs[j].engine = small_config(windows[j]);
    }

    FleetConfig config;
    config.engine = small_config(12);
    config.concurrency = 3;
    config.keep_windows = true;
    FleetDriver driver(sc.topo, config);
    const FleetReport report = driver.run(jobs);

    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_EQ(report.total_windows, 3 * kSamples);
    // The scenario has one routing epoch; three concurrent engines on
    // the shared cache build it exactly once, and each acquires it once.
    EXPECT_EQ(report.cache_misses, 1u);
    EXPECT_EQ(report.cache_hits, 2u);
    EXPECT_GT(report.wall_seconds, 0.0);
    EXPECT_GT(report.windows_per_second(), 0.0);
    EXPECT_NE(report.summary().find("3 jobs"), std::string::npos);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const FleetJobReport& job = report.jobs[j];
        EXPECT_EQ(job.name, jobs[j].name);
        EXPECT_EQ(job.windows, kSamples);
        ASSERT_EQ(job.window_results.size(), kSamples);
        EXPECT_EQ(job.metrics.samples_ingested.load(), kSamples);
        ASSERT_TRUE(job.mean_mre.count(Method::bayesian));

        // Solo serial run with a private cache must agree to the bit.
        OnlineEngine solo(sc.topo, sc.routing, *jobs[j].engine);
        const ReplayResult reference = replay_scenario(solo, sc);
        ASSERT_EQ(reference.windows.size(), kSamples);
        for (std::size_t k = 0; k < kSamples; ++k) {
            const WindowResult& a = reference.windows[k];
            const WindowResult& b = job.window_results[k];
            ASSERT_EQ(a.runs.size(), b.runs.size());
            for (std::size_t m = 0; m < a.runs.size(); ++m) {
                ASSERT_EQ(a.runs[m].estimate.size(),
                          b.runs[m].estimate.size());
                for (std::size_t p = 0; p < a.runs[m].estimate.size();
                     ++p) {
                    EXPECT_EQ(a.runs[m].estimate[p],
                              b.runs[m].estimate[p])
                        << job.name << " window " << k;
                }
            }
        }
        EXPECT_EQ(job.mean_mre.at(Method::bayesian),
                  reference.mean_mre.at(Method::bayesian));
    }
}

TEST(FleetDriver, PerJobRouteChangesKeepEpochsApart) {
    constexpr std::size_t kSamples = 24;
    const scenario::Scenario sc = short_scenario(kSamples);
    const linalg::SparseMatrix reroute_a =
        core::perturbed_routing(sc.topo, 0.8, 3);
    const linalg::SparseMatrix reroute_b =
        core::perturbed_routing(sc.topo, 0.8, 9);
    ASSERT_NE(core::routing_fingerprint(reroute_a),
              core::routing_fingerprint(reroute_b));

    std::vector<FleetJob> jobs(2);
    jobs[0].name = "reroute-a";
    jobs[0].scenario = &sc;
    jobs[0].replay.events = {{kSamples / 2, &reroute_a}};
    jobs[1].name = "reroute-b";
    jobs[1].scenario = &sc;
    jobs[1].replay.events = {{kSamples / 2, &reroute_b}};

    FleetConfig config;
    config.engine = small_config(6);
    config.cache_capacity = 4;  // base + two reroutes fit side by side
    FleetDriver driver(sc.topo, config);
    const FleetReport report = driver.run(jobs);

    // Three distinct epochs were built: the shared base routing once,
    // plus each job's private reroute.
    EXPECT_EQ(report.cache_misses, 3u);
    EXPECT_EQ(report.cache_evictions, 0u);
    for (const FleetJobReport& job : report.jobs) {
        EXPECT_EQ(job.metrics.epoch_changes.load(), 1u);
        EXPECT_EQ(job.metrics.window_flushes.load(), 1u);
        EXPECT_EQ(job.windows, kSamples);
    }

    // The cache outlives the run: a second fleet over the same
    // routings starts warm (no new builds).
    const FleetReport again = driver.run(jobs);
    EXPECT_EQ(again.cache_misses, 3u);
}

TEST(FleetDriver, CrashingJobIsQuarantinedWhileSiblingMatchesSoloRun) {
    constexpr std::size_t kSamples = 12;
    const scenario::Scenario sc = short_scenario(kSamples);
    std::vector<FleetJob> jobs(2);
    jobs[0].name = "crashing";
    jobs[0].scenario = &sc;
    jobs[0].window_sink = [](const WindowResult&) {
        throw std::runtime_error("sink down");
    };
    jobs[1].name = "healthy";
    jobs[1].scenario = &sc;

    FleetConfig config;
    config.engine = small_config(6);
    config.concurrency = 2;
    config.keep_windows = true;
    FleetDriver driver(sc.topo, config);
    const FleetReport report = driver.run(jobs);

    const FleetJobReport& crashing = report.jobs[0];
    EXPECT_EQ(crashing.attempts, 3u);
    EXPECT_FALSE(crashing.completed);
    EXPECT_TRUE(crashing.quarantined);
    EXPECT_EQ(crashing.error, "sink down");
    EXPECT_NE(report.summary().find("QUARANTINED after 3 attempts"),
              std::string::npos);

    const FleetJobReport& healthy = report.jobs[1];
    EXPECT_EQ(healthy.attempts, 1u);
    EXPECT_TRUE(healthy.completed);
    EXPECT_FALSE(healthy.quarantined);
    EXPECT_TRUE(healthy.error.empty());
    EXPECT_EQ(report.quarantined_jobs, 1u);

    OnlineEngine solo(sc.topo, sc.routing, config.engine);
    const ReplayResult reference = replay_scenario(solo, sc);
    ASSERT_EQ(healthy.window_results.size(), reference.windows.size());
    for (std::size_t k = 0; k < kSamples; ++k) {
        const WindowResult& a = reference.windows[k];
        const WindowResult& b = healthy.window_results[k];
        ASSERT_EQ(a.runs.size(), b.runs.size());
        for (std::size_t m = 0; m < a.runs.size(); ++m) {
            EXPECT_EQ(a.runs[m].estimate, b.runs[m].estimate)
                << "window " << k;
        }
    }
}

TEST(FleetDriver, SharedCacheEvictionChurnDoesNotFlushSiblings) {
    // Regression: when sibling engines' routing churn evicts this
    // engine's epoch from the SHARED cache, the rebuilt epoch (same
    // content, fresh serial) must not read as a routing change — a
    // mid-day window flush would silently change this job's estimates
    // versus a solo run.
    constexpr std::size_t kSamples = 12;
    const scenario::Scenario sc = short_scenario(kSamples);
    const linalg::SparseMatrix other =
        core::perturbed_routing(sc.topo, 0.8, 11);

    const auto cache = std::make_shared<RoutingEpochCache>(1);
    EngineConfig config = small_config(6);
    OnlineEngine churned(sc.topo, sc.routing, config, cache);
    OnlineEngine solo(sc.topo, sc.routing, config);  // private cache
    for (std::size_t k = 0; k < kSamples; ++k) {
        // A "sibling" evicts the shared engine's epoch between every
        // two ingests (capacity 1 makes the churn maximal).
        cache->acquire_shared(other);
        const WindowResult a = churned.ingest(k, sc.loads[k]);
        const WindowResult b = solo.ingest(k, sc.loads[k]);
        ASSERT_EQ(a.runs.size(), b.runs.size());
        for (std::size_t m = 0; m < a.runs.size(); ++m) {
            for (std::size_t p = 0; p < a.runs[m].estimate.size(); ++p) {
                EXPECT_EQ(a.runs[m].estimate[p], b.runs[m].estimate[p])
                    << "window " << k;  // bit-identical to the solo run
            }
        }
    }
    EXPECT_GT(cache->evictions(), 0u);
    EXPECT_EQ(churned.metrics().epoch_changes.load(), 0u);
    EXPECT_EQ(churned.metrics().window_flushes.load(), 0u);
    EXPECT_EQ(churned.window().size(), config.window_size);
}

TEST(FleetDriver, TypedValidationErrors) {
    const scenario::Scenario sc = short_scenario(6);
    FleetConfig config;
    config.engine = small_config(4);

    // Duplicate methods in the fleet template are rejected up front
    // with the engine's typed error.
    FleetConfig bad = config;
    bad.engine.methods = {Method::gravity, Method::gravity};
    try {
        FleetDriver driver(sc.topo, bad);
        FAIL() << "duplicate methods not rejected";
    } catch (const SchedulerConfigException& e) {
        EXPECT_EQ(e.check().error,
                  SchedulerConfigError::duplicate_method);
        EXPECT_EQ(e.check().offender, Method::gravity);
    }

    FleetDriver driver(sc.topo, config);
    // Null scenarios and per-job duplicate methods are rejected before
    // any worker starts.
    EXPECT_THROW(driver.run({FleetJob{}}), std::invalid_argument);
    FleetJob job;
    job.name = "dup";
    job.scenario = &sc;
    job.engine = small_config(4);
    job.engine->methods = {Method::vardi, Method::vardi};
    EXPECT_THROW(driver.run({job}), SchedulerConfigException);
}

}  // namespace
}  // namespace tme::engine
