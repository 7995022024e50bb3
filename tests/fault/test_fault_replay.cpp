// Acceptance replay for the robustness stack: a seeded fault schedule
// (solver stall + NaN measurement in one job, a crash-looping
// allocation failure in another) driven through a FleetDriver must
//   * leave every healthy job bitwise identical to a fault-free run,
//   * quarantine exactly the poisoned job after bounded retries,
//   * flag the wobbly job's degraded window in EngineMetrics::to_json()
//     and in the served EstimateSnapshot.
// Requires TME_FAULT_INJECTION=ON (the `fault` preset); skips
// otherwise.
#include "engine/fleet.hpp"

#include <gtest/gtest.h>

#include "fault/injection.hpp"
#include "serve/snapshot.hpp"

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

void expect_bitwise_equal(const FleetJobReport& a, const FleetJobReport& b) {
    ASSERT_EQ(a.window_results.size(), b.window_results.size()) << a.name;
    for (std::size_t k = 0; k < a.window_results.size(); ++k) {
        const WindowResult& wa = a.window_results[k];
        const WindowResult& wb = b.window_results[k];
        ASSERT_EQ(wa.runs.size(), wb.runs.size()) << a.name;
        for (std::size_t m = 0; m < wa.runs.size(); ++m) {
            ASSERT_EQ(wa.runs[m].estimate.size(),
                      wb.runs[m].estimate.size());
            for (std::size_t p = 0; p < wa.runs[m].estimate.size(); ++p) {
                ASSERT_EQ(wa.runs[m].estimate[p], wb.runs[m].estimate[p])
                    << a.name << " window " << k << " method "
                    << method_name(wa.runs[m].method);
            }
            ASSERT_EQ(wa.runs[m].quality, wb.runs[m].quality) << a.name;
        }
    }
}

// A replay with one fully dropped poll (measurement_drop) completes:
// the sample without exiting traffic degrades its snapshot methods
// instead of stopping the stream.
TEST(FaultReplay, DroppedPollDoesNotStopTheReplay) {
    if (!fault::compiled()) {
        GTEST_SKIP() << "needs TME_FAULT_INJECTION=ON (fault preset)";
    }
    constexpr std::size_t kSamples = 8;
    const scenario::Scenario sc = short_scenario(kSamples);
    OnlineEngine engine(sc.topo, sc.routing, small_config(4));

    fault::arm({fault::FaultSpec{fault::FaultSite::measurement_drop, "", 3,
                                 1}},
               2026);
    ReplayResult replay;
    EXPECT_NO_THROW(replay = replay_scenario(engine, sc));
    const fault::FaultStats stats = fault::stats();
    fault::disarm();

    EXPECT_EQ(stats.fires[static_cast<std::size_t>(
                  fault::FaultSite::measurement_drop)],
              1u);
    ASSERT_EQ(replay.windows.size(), kSamples);
    EXPECT_EQ(engine.metrics().gap_samples.load(), 1u);
    EXPECT_EQ(engine.metrics().stale_runs(), 2u);  // gravity, Bayesian
    const WindowResult& dropped = replay.windows[3];
    EXPECT_EQ(dropped.find(Method::vardi)->quality, EstimateQuality::exact);
    EXPECT_EQ(dropped.find(Method::fanout)->quality,
              EstimateQuality::exact);
}

TEST(FaultReplay, SeededScheduleIsolatesFaultsToTargetedJobs) {
    if (!fault::compiled()) {
        GTEST_SKIP() << "needs TME_FAULT_INJECTION=ON (fault preset)";
    }
    constexpr std::size_t kSamples = 12;
    const scenario::Scenario sc1 = short_scenario(kSamples, 1);
    const scenario::Scenario sc2 = short_scenario(kSamples, 2);

    std::vector<FleetJob> jobs(4);
    jobs[0].name = "clean-a";
    jobs[0].scenario = &sc1;
    jobs[1].name = "clean-b";
    jobs[1].scenario = &sc2;
    jobs[2].name = "wobbly";
    jobs[2].scenario = &sc1;
    jobs[3].name = "poisoned";
    jobs[3].scenario = &sc1;

    FleetConfig config;
    config.engine = small_config(4);
    config.concurrency = 2;
    config.keep_windows = true;

    // Fault-free reference fleet.
    fault::disarm();
    FleetDriver reference_driver(sc1.topo, config);
    const FleetReport reference = reference_driver.run(jobs);
    ASSERT_EQ(reference.quarantined_jobs, 0u);
    for (const FleetJobReport& job : reference.jobs) {
        ASSERT_TRUE(job.completed) << job.name;
        ASSERT_EQ(job.attempts, 1u) << job.name;
    }

    // Seeded schedule: one wedged solve and one NaN measurement inside
    // "wobbly" (degradation, not failure), and an allocation failure
    // that fires on every ingest attempt of "poisoned" (a crash loop no
    // retry can outlast).
    fault::arm(
        {
            fault::FaultSpec{fault::FaultSite::solver_stall, "wobbly", 0,
                             1},
            fault::FaultSpec{fault::FaultSite::measurement_nan, "wobbly",
                             3, 1},
            fault::FaultSpec{fault::FaultSite::alloc_failure, "poisoned",
                             0, 1000000},
        },
        2026);

    FleetDriver driver(sc1.topo, config);
    const FleetReport report = driver.run(jobs);
    const fault::FaultStats stats = fault::stats();
    fault::disarm();

    ASSERT_EQ(report.jobs.size(), 4u);
    const FleetJobReport& clean_a = report.jobs[0];
    const FleetJobReport& clean_b = report.jobs[1];
    const FleetJobReport& wobbly = report.jobs[2];
    const FleetJobReport& poisoned = report.jobs[3];

    // Healthy jobs: untouched, single attempt, bitwise identical to the
    // fault-free fleet.
    for (const FleetJobReport* job : {&clean_a, &clean_b}) {
        EXPECT_TRUE(job->completed) << job->name;
        EXPECT_FALSE(job->quarantined) << job->name;
        EXPECT_EQ(job->attempts, 1u) << job->name;
        EXPECT_TRUE(job->error.empty()) << job->name;
        EXPECT_EQ(job->windows, kSamples) << job->name;
        EXPECT_EQ(job->metrics.degraded_runs(), 0u) << job->name;
        EXPECT_EQ(job->metrics.corrupt_samples.load(), 0u) << job->name;
    }
    expect_bitwise_equal(clean_a, reference.jobs[0]);
    expect_bitwise_equal(clean_b, reference.jobs[1]);

    // Poisoned job: bounded retries, then quarantine — siblings already
    // proved undisturbed above.
    EXPECT_FALSE(poisoned.completed);
    EXPECT_TRUE(poisoned.quarantined);
    EXPECT_EQ(poisoned.attempts, 3u);
    EXPECT_FALSE(poisoned.error.empty());
    EXPECT_EQ(poisoned.windows, 0u);
    EXPECT_EQ(report.quarantined_jobs, 1u);
    EXPECT_EQ(report.total_windows, 3 * kSamples);
    EXPECT_NE(report.summary().find("QUARANTINED"), std::string::npos);
    // One crash per attempt, no more.
    EXPECT_EQ(
        stats.fires[static_cast<std::size_t>(
            fault::FaultSite::alloc_failure)],
        3u);
    EXPECT_EQ(
        stats.fires[static_cast<std::size_t>(fault::FaultSite::solver_stall)],
        1u);
    EXPECT_EQ(
        stats.fires[static_cast<std::size_t>(
            fault::FaultSite::measurement_nan)],
        1u);

    // Wobbly job: completed, but degraded — the stalled solve is
    // flagged budget_exhausted and the injected NaN was repaired by the
    // ingest sanitizer.
    EXPECT_TRUE(wobbly.completed);
    EXPECT_FALSE(wobbly.quarantined);
    EXPECT_EQ(wobbly.windows, kSamples);
    EXPECT_GE(wobbly.metrics.degraded_runs(), 1u);
    EXPECT_GE(wobbly.metrics.budget_exhausted_runs(), 1u);
    EXPECT_EQ(wobbly.metrics.corrupt_samples.load(), 1u);
    const obs::Json j = wobbly.metrics.to_json();
    const obs::Json* degr = j.find("degradation");
    ASSERT_NE(degr, nullptr);
    EXPECT_GE(degr->find("degraded_runs")->as_int(), 1);
    EXPECT_EQ(degr->find("corrupt_samples")->as_int(), 1);
    ASSERT_FALSE(degr->find("records")->items().empty());

    // The degraded window is flagged all the way into the served
    // snapshot JSON.
    bool found_degraded_snapshot = false;
    for (const WindowResult& window : wobbly.window_results) {
        for (const MethodRun& run : window.runs) {
            if (run.quality == EstimateQuality::exact) continue;
            const serve::EstimateSnapshot snap =
                serve::EstimateSnapshot::from_window(window);
            const serve::MethodEstimate* me = snap.find(run.method);
            ASSERT_NE(me, nullptr);
            EXPECT_NE(me->quality, EstimateQuality::exact);
            const obs::Json snap_json = snap.to_json();
            const obs::Json* methods = snap_json.find("methods");
            ASSERT_NE(methods, nullptr);
            EXPECT_NE(methods->find(method_name(run.method))
                          ->find("quality")
                          ->as_string(),
                      "exact");
            found_degraded_snapshot = true;
        }
        if (found_degraded_snapshot) break;
    }
    EXPECT_TRUE(found_degraded_snapshot);
}

}  // namespace
}  // namespace tme::engine
