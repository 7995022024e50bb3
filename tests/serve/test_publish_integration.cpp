// Publication wiring: the engine (alone and under FleetDriver jobs)
// publishes one EstimateSnapshot per completed window into an
// EstimateStore, with strictly monotone versions in submission order
// and snapshot contents bitwise equal to the engine's own
// WindowResults; ingest() publishes on its calling thread.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/fleet.hpp"
#include "engine/replay.hpp"
#include "serve/publish.hpp"
#include "serve/store.hpp"

namespace tme::serve {
namespace {

scenario::Scenario trimmed_scenario(std::size_t samples) {
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    sc.demands.resize(samples);
    sc.loads.resize(samples);
    return sc;
}

engine::EngineConfig cheap_config() {
    engine::EngineConfig config;
    config.window_size = 6;
    config.methods = {engine::Method::gravity, engine::Method::kruithof};
    return config;
}

void expect_snapshot_matches_window(const EstimateSnapshot& snap,
                                    const engine::WindowResult& window) {
    EXPECT_EQ(snap.window_start_sample(), window.window_start_sample);
    EXPECT_EQ(snap.window_end_sample(), window.window_end_sample);
    EXPECT_EQ(snap.window_size(), window.window_size);
    EXPECT_EQ(snap.epoch_fingerprint(), window.epoch_fingerprint);
    ASSERT_EQ(snap.methods().size(), window.runs.size());
    for (std::size_t i = 0; i < window.runs.size(); ++i) {
        const MethodEstimate& me = snap.methods()[i];
        const engine::MethodRun& run = window.runs[i];
        EXPECT_EQ(me.method, run.method);
        ASSERT_EQ(me.estimate.size(), run.estimate.size());
        for (std::size_t p = 0; p < run.estimate.size(); ++p) {
            // Bitwise: the snapshot is a value copy, nothing recomputed.
            EXPECT_EQ(me.estimate[p], run.estimate[p])
                << "pair " << p << " of method " << i;
        }
        if (std::isnan(run.mre)) {
            EXPECT_TRUE(std::isnan(me.mre));
        } else {
            EXPECT_EQ(me.mre, run.mre);
        }
        EXPECT_EQ(me.seconds, run.seconds);
        EXPECT_EQ(me.warm_started, run.warm_started);
        EXPECT_EQ(me.warm_accepted, run.warm_accepted);
    }
}

TEST(ServePublishIntegration, OnlineEnginePublishesEveryWindow) {
    const scenario::Scenario sc = trimmed_scenario(24);
    StoreOptions options;
    options.retention = 32;  // keep every version queryable
    EstimateStore store(options);
    engine::OnlineEngine eng(sc.topo, sc.routing, cheap_config());
    eng.set_window_sink(make_publisher(store));

    const engine::ReplayResult replay = engine::replay_scenario(eng, sc);
    ASSERT_EQ(replay.windows.size(), 24u);
    EXPECT_EQ(store.head_version(), 24u);

    Reader reader(store);
    for (std::uint64_t v = 1; v <= store.head_version(); ++v) {
        const QueryResult<SnapshotRef> ref = reader.at(v);
        ASSERT_TRUE(ref.ok()) << query_status_name(ref.status);
        EXPECT_EQ(ref.value->version(), v);
        EXPECT_TRUE(ref.value->consistent());
        expect_snapshot_matches_window(*ref.value,
                                       replay.windows[v - 1]);
    }
}

TEST(ServePublishIntegration, FleetJobsPublishIntoPerJobStores) {
    const scenario::Scenario sc = trimmed_scenario(18);
    engine::FleetConfig config;
    config.engine = cheap_config();
    config.keep_windows = true;
    engine::FleetDriver fleet(sc.topo, config);

    StoreOptions options;
    options.retention = 32;
    EstimateStore store_a(options);
    EstimateStore store_b(options);
    std::vector<engine::FleetJob> jobs(2);
    jobs[0].name = "a";
    jobs[0].scenario = &sc;
    jobs[0].window_sink = make_publisher(store_a);
    jobs[1].name = "b";
    jobs[1].scenario = &sc;
    jobs[1].engine = cheap_config();
    jobs[1].engine->window_size = 4;
    jobs[1].window_sink = make_publisher(store_b);

    const engine::FleetReport report = fleet.run(jobs);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(store_a.head_version(), report.jobs[0].windows);
    EXPECT_EQ(store_b.head_version(), report.jobs[1].windows);

    Reader reader_a(store_a);
    for (std::uint64_t v = 1; v <= store_a.head_version(); ++v) {
        const QueryResult<SnapshotRef> ref = reader_a.at(v);
        ASSERT_TRUE(ref.ok()) << query_status_name(ref.status);
        expect_snapshot_matches_window(
            *ref.value, report.jobs[0].window_results[v - 1]);
    }
    Reader reader_b(store_b);
    const QueryResult<SnapshotRef> head_b = reader_b.latest();
    ASSERT_TRUE(head_b.ok());
    EXPECT_EQ(head_b.value->window_size(), 4u);
}

TEST(ServePublishIntegration, SinkDetachesAndEngineKeepsRunning) {
    const scenario::Scenario sc = trimmed_scenario(8);
    EstimateStore store;
    // Workers exist, yet ingest() publishes on the thread that called
    // it, before it returns.
    engine::EngineConfig config = cheap_config();
    config.threads = 2;
    engine::OnlineEngine eng(sc.topo, sc.routing, config);
    std::thread::id sink_thread;
    eng.set_window_sink(
        [&sink_thread, publish = make_publisher(store)](
            const engine::WindowResult& window) {
            sink_thread = std::this_thread::get_id();
            publish(window);
        });
    eng.ingest(0, sc.loads[0]);
    EXPECT_EQ(store.head_version(), 1u);
    EXPECT_EQ(sink_thread, std::this_thread::get_id());
    eng.set_window_sink({});  // detach
    eng.ingest(1, sc.loads[1]);
    EXPECT_EQ(store.head_version(), 1u);
}

}  // namespace
}  // namespace tme::serve
