// EngineMetrics under concurrency: counters are atomics and the
// per-method map is pre-populated, so a reader polling (or copying)
// the metrics while another thread ingests must never see torn values,
// only monotonically growing counters.  Run under ThreadSanitizer this
// also proves the absence of data races on the metrics path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/fleet.hpp"
#include "engine/replay.hpp"

namespace tme::engine {
namespace {

TEST(EngineMetricsStress, ConcurrentReadersSeeMonotonicUntornCounters) {
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    constexpr std::size_t kSamples = 60;
    sc.demands.resize(kSamples);
    sc.loads.resize(kSamples);

    EngineConfig config;
    config.window_size = 6;
    config.methods = {Method::gravity, Method::bayesian, Method::fanout};
    OnlineEngine engine(sc.topo, sc.routing, config);
    const EngineMetrics& live = engine.metrics();

    std::atomic<bool> done{false};
    std::atomic<std::size_t> reads{0};
    auto reader = [&] {
        std::size_t last_samples = 0;
        std::size_t last_windows = 0;
        std::size_t last_bayesian_runs = 0;
        while (!done.load(std::memory_order_acquire)) {
            // Snapshot by copy while the writer is mid-flight: the
            // copy itself must be race-free (atomic loads per field).
            const EngineMetrics snap = live;
            const std::size_t samples = snap.samples_ingested.load();
            const std::size_t windows = snap.windows_run();
            // Monotonicity: a torn or half-written counter would show
            // up as a value jumping backwards or past the stream end.
            EXPECT_GE(samples, last_samples);
            EXPECT_GE(windows, last_windows);
            EXPECT_LE(samples, kSamples);
            EXPECT_LE(windows, samples);
            last_samples = samples;
            last_windows = windows;
            const auto it = snap.methods.find(Method::bayesian);
            // Pre-populated map: every scheduled method is present
            // from construction, even before its first run.
            ASSERT_NE(it, snap.methods.end());
            const std::size_t runs = it->second.runs();
            EXPECT_GE(runs, last_bayesian_runs);
            EXPECT_LE(runs, kSamples);
            last_bayesian_runs = runs;
            EXPECT_GE(it->second.total_seconds(), 0.0);
            // summary() walks everything; it must be safe mid-stream.
            EXPECT_FALSE(snap.summary().empty());
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) readers.emplace_back(reader);
    const ReplayResult result = replay_scenario(engine, sc);
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(result.windows.size(), kSamples);
    EXPECT_GT(reads.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(live.samples_ingested.load(), kSamples);
    EXPECT_EQ(live.windows_run(), kSamples);
    EXPECT_EQ(live.methods.at(Method::bayesian).runs(), kSamples);
}

TEST(EngineMetricsStress, FleetAggregationReadsLiveEngines) {
    // The fleet path: metrics snapshots are taken per job while other
    // jobs' engines are still writing theirs — every copy below
    // happens concurrently with live updates elsewhere in the fleet.
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    sc.demands.resize(24);
    sc.loads.resize(24);
    FleetConfig config;
    config.engine.window_size = 6;
    config.engine.methods = {Method::gravity, Method::bayesian};
    config.concurrency = 3;
    FleetDriver driver(sc.topo, config);
    std::vector<FleetJob> jobs(3);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].name = "job" + std::to_string(j);
        jobs[j].scenario = &sc;
    }
    const FleetReport report = driver.run(jobs);
    for (const FleetJobReport& job : report.jobs) {
        EXPECT_EQ(job.metrics.samples_ingested.load(), 24u);
        EXPECT_EQ(job.metrics.windows_run(), 24u);
    }
}

// Hand-built metrics with known values: pins the exact summary()
// rendering (field order, millisecond formatting, warm ratio, solver
// iteration suffix) so a formatting regression is caught as a string
// diff, not by eyeballing bench logs.  Counts, totals and maxima come
// from the latency histograms, whose percentiles read bucket lower
// bounds (3.93 ms for a 4 ms run).
TEST(EngineMetricsGolden, SummaryMatchesGoldenString) {
    EngineMetrics m;
    m.samples_ingested.store(10);
    m.gap_samples.store(1);
    m.window_flushes.store(2);
    m.epoch_changes.store(3);
    m.cache_hits.store(8);
    m.cache_misses.store(2);
    for (int k = 0; k < 10; ++k) m.window_latency.record(0.15);
    m.last_window_seconds.store(0.002);

    MethodStats& gravity = m.methods[Method::gravity];
    for (int k = 0; k < 5; ++k) gravity.latency.record(0.004);
    for (int k = 0; k < 5; ++k) gravity.latency.record(0.006);
    gravity.last_seconds.store(0.005);

    MethodStats& kruithof = m.methods[Method::kruithof];
    for (const double s : {0.0005, 0.0005, 0.001, 0.002}) {
        kruithof.latency.record(s);
    }
    kruithof.last_seconds.store(0.001);
    obs::SolverCounters sweeps;
    sweeps.kruithof_sweeps = 5;
    kruithof.solver.add(sweeps);

    const std::string expected =
        "samples=10 gaps=1 windows=10 flushes=2 epoch_changes=3\n"
        "epoch cache: hit rate 0.800 (8 hits, 2 misses, 0 evictions)\n"
        "latency: total 1.500s, last window 2.00ms, "
        "p50=142.61ms p95=142.61ms p99=142.61ms max=150.00ms\n"
        "  gravity   runs=10 warm=0/0 mean=5.00ms last=5.00ms "
        "p50=3.93ms p95=5.77ms p99=5.77ms max=6.00ms\n"
        "  kruithof  runs=4 warm=0/0 mean=1.00ms last=1.00ms "
        "p50=0.49ms p95=1.97ms p99=1.97ms max=2.00ms "
        "iters={\"kruithof_sweeps\":5}\n";
    EXPECT_EQ(m.summary(), expected);
}

TEST(EngineMetricsGolden, ToJsonStructureAndRoundTrip) {
    EngineMetrics m;
    m.samples_ingested.store(10);
    m.cache_hits.store(3);
    m.cache_misses.store(1);
    m.window_latency.record(0.002);
    m.window_latency.record(0.004);

    MethodStats& fanout = m.methods[Method::fanout];
    for (const double s : {0.003, 0.003, 0.0015, 0.0015, 0.0015, 0.0015}) {
        fanout.latency.record(s);
    }
    fanout.warm_runs.store(5);
    fanout.warm_accepted_runs.store(4);
    obs::SolverCounters iters;
    iters.qp_active_set_rounds = 7;
    iters.qp_cg_iterations = 42;
    fanout.solver.add(iters);
    fanout.last_mre.store(0.25);
    fanout.mre_sum.store(0.5);
    fanout.mre_count.store(2);

    const obs::Json j = m.to_json();
    ASSERT_NE(j.find("samples_ingested"), nullptr);
    EXPECT_EQ(j.find("samples_ingested")->as_int(), 10);
    const obs::Json* cache = j.find("epoch_cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->as_int(), 3);
    EXPECT_NEAR(cache->find("hit_rate")->as_double(), 0.75, 1e-12);
    const obs::Json* window = j.find("window_latency");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->find("count")->as_int(), 2);

    const obs::Json* methods = j.find("methods");
    ASSERT_NE(methods, nullptr);
    const obs::Json* fj = methods->find("fanout");
    ASSERT_NE(fj, nullptr);
    EXPECT_EQ(fj->find("runs")->as_int(), 6);
    EXPECT_EQ(fj->find("warm_runs")->as_int(), 5);
    EXPECT_EQ(fj->find("warm_accepted_runs")->as_int(), 4);
    EXPECT_NEAR(fj->find("mean_seconds")->as_double(), 0.002, 1e-12);
    EXPECT_NEAR(fj->find("max_seconds")->as_double(), 0.003, 1e-12);
    const obs::Json* solver = fj->find("solver");
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->find("qp_active_set_rounds")->as_int(), 7);
    EXPECT_EQ(solver->find("qp_cg_iterations")->as_int(), 42);
    // Zero counters are omitted from the solver block.
    EXPECT_EQ(solver->find("kruithof_sweeps"), nullptr);
    EXPECT_NEAR(fj->find("mean_mre")->as_double(), 0.25, 1e-12);
    EXPECT_NEAR(fj->find("last_mre")->as_double(), 0.25, 1e-12);
    // Methods without runs export too, minus optional blocks.
    MethodStats& idle = m.methods[Method::vardi];
    (void)idle;
    const obs::Json j2 = m.to_json();
    const obs::Json* vj = j2.find("methods")->find("vardi");
    ASSERT_NE(vj, nullptr);
    EXPECT_EQ(vj->find("runs")->as_int(), 0);
    EXPECT_EQ(vj->find("solver"), nullptr);
    EXPECT_EQ(vj->find("mean_mre"), nullptr);

    // The export must survive a dump -> strict-parse round trip in
    // both compact and pretty form (this is what lands in BENCH files).
    const std::optional<obs::Json> compact = obs::Json::parse(j2.dump(0));
    ASSERT_TRUE(compact.has_value());
    const std::optional<obs::Json> pretty = obs::Json::parse(j2.dump(2));
    ASSERT_TRUE(pretty.has_value());
    EXPECT_EQ(pretty->find("methods")->find("fanout")->find("runs")->as_int(),
              6);
}

// The export's key paths (objects only, not array items), in order:
// dashboards and BENCH readers key on these names, so the list is
// pinned whatever cells the metrics are read from.
void collect_key_paths(const obs::Json& j, const std::string& prefix,
                       std::vector<std::string>& out) {
    for (const auto& [key, value] : j.members()) {
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        out.push_back(path);
        if (value.is_object()) collect_key_paths(value, path, out);
    }
}

TEST(EngineMetricsGolden, ToJsonKeyPathsAreStable) {
    EngineMetrics m;
    MethodStats& fanout = m.methods[Method::fanout];
    fanout.latency.record(0.002);
    fanout.mre_sum.store(0.5);
    fanout.mre_count.store(1);
    fanout.last_mre.store(0.5);
    obs::SolverCounters iters;
    iters.qp_cg_iterations = 3;
    fanout.solver.add(iters);

    std::vector<std::string> paths;
    collect_key_paths(m.to_json(), "", paths);
    const std::vector<std::string> expected = {
        "samples_ingested", "gap_samples", "windows_run", "window_flushes",
        "epoch_changes", "epoch_cache", "epoch_cache.hits",
        "epoch_cache.misses", "epoch_cache.evictions",
        "epoch_cache.hit_rate", "total_seconds",
        "last_window_seconds", "window_latency", "window_latency.count",
        "window_latency.mean_s", "window_latency.p50_s",
        "window_latency.p95_s", "window_latency.p99_s",
        "window_latency.max_s", "epoch_build_latency",
        "epoch_build_latency.count", "epoch_build_latency.mean_s",
        "epoch_build_latency.p50_s", "epoch_build_latency.p95_s",
        "epoch_build_latency.p99_s", "epoch_build_latency.max_s",
        "mre_skipped_runs", "capped_runs", "kernel_regions",
        "kernel_regions_shared", "kernel_helper_blocks", "degradation",
        "degradation.degraded_runs", "degradation.stale_runs",
        "degradation.failed_runs", "degradation.budget_exhausted_runs",
        "degradation.corrupt_samples", "degradation.routing_faults",
        "degradation.records_dropped", "degradation.records", "methods",
        "methods.fanout", "methods.fanout.runs", "methods.fanout.warm_runs",
        "methods.fanout.warm_accepted_runs", "methods.fanout.mean_seconds",
        "methods.fanout.last_seconds", "methods.fanout.max_seconds",
        "methods.fanout.latency", "methods.fanout.latency.count",
        "methods.fanout.latency.mean_s", "methods.fanout.latency.p50_s",
        "methods.fanout.latency.p95_s", "methods.fanout.latency.p99_s",
        "methods.fanout.latency.max_s", "methods.fanout.latency.min_s",
        "methods.fanout.solver", "methods.fanout.solver.qp_cg_iterations",
        "methods.fanout.mean_mre", "methods.fanout.last_mre",
        "methods.fanout.degraded_runs", "methods.fanout.stale_runs",
        "methods.fanout.failed_runs", "methods.fanout.fallback_runs",
        "methods.fanout.budget_exhausted_runs",
        "methods.fanout.capped_runs",
    };
    EXPECT_EQ(paths, expected);
}

}  // namespace
}  // namespace tme::engine
