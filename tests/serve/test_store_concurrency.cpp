// ThreadSanitizer stress for the lock-free read path: four reader
// threads hammer point / top-K / delta queries while the engine
// publishes one snapshot per completed window.  Checked invariants:
//   * per-reader observed versions are monotone non-decreasing;
//   * no torn reads — every acquired snapshot's stamped version,
//     checksum and per-method vector lengths agree (consistent());
//   * reader results are bitwise equal to a post-hoc serial query of
//     the same version.
// Runs under the `tsan` preset (label serve); TME_REPLAY_SAMPLES
// shortens the replay for instrumented runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "engine/replay.hpp"
#include "serve/publish.hpp"
#include "serve/store.hpp"

namespace tme::serve {
namespace {

std::size_t stress_samples() {
    if (const char* env = std::getenv("TME_REPLAY_SAMPLES")) {
        const long v = std::atol(env);
        if (v >= 8) return static_cast<std::size_t>(v);
    }
    return 48;
}

/// One reader-side observation, replayed serially afterwards.
struct Observation {
    std::uint64_t version = 0;
    double point_value = 0.0;       // pair 0
    std::size_t top_pair = 0;       // heaviest pair
    double top_value = 0.0;
    double delta_value = 0.0;       // pair 0, vs. previous version
    bool has_delta = false;
};

TEST(ServeStoreConcurrency, ReadersSeeConsistentSnapshotsDuringPublish) {
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);
    const std::size_t samples = stress_samples();
    sc.demands.resize(samples);
    sc.loads.resize(samples);

    engine::EngineConfig config;
    config.window_size = 6;
    config.methods = {engine::Method::gravity, engine::Method::kruithof};

    StoreOptions options;
    options.retention = 6;  // small ring: retirement races exercised
    options.max_readers = 8;
    EstimateStore store(options);

    constexpr int kReaderThreads = 4;
    std::atomic<bool> stop{false};
    std::vector<std::vector<Observation>> observed(kReaderThreads);
    std::vector<std::uint64_t> torn_reads(kReaderThreads, 0);
    std::vector<std::thread> readers;
    readers.reserve(kReaderThreads);
    for (int t = 0; t < kReaderThreads; ++t) {
        readers.emplace_back([&store, &stop, &observed, &torn_reads, t] {
            Reader reader(store);
            std::uint64_t last_version = 0;
            std::vector<Observation>& samples_out =
                observed[static_cast<std::size_t>(t)];
            while (!stop.load(std::memory_order_acquire)) {
                const QueryResult<SnapshotRef> head = reader.latest();
                if (!head.ok()) continue;  // store still empty
                const EstimateSnapshot& snap = *head.value;

                // Monotone versions: latest() can never run backwards.
                ASSERT_GE(head.value.version, last_version);
                last_version = head.value.version;

                // Torn-read detection: the stamped version, the sealed
                // checksum and the vector shapes must all agree.
                if (snap.version() != head.value.version ||
                    !snap.consistent()) {
                    ++torn_reads[static_cast<std::size_t>(t)];
                    continue;
                }
                const std::size_t pairs = snap.pair_count();
                for (const MethodEstimate& me : snap.methods()) {
                    ASSERT_EQ(me.estimate.size(), pairs);
                }

                Observation obs;
                obs.version = head.value.version;
                const auto pt = point(snap, engine::Method::gravity, 0);
                ASSERT_TRUE(pt.ok());
                obs.point_value = pt.value;
                const auto hh = top_k(snap, engine::Method::kruithof, 3);
                ASSERT_TRUE(hh.ok());
                obs.top_pair = hh.value.front().pair;
                obs.top_value = hh.value.front().value;
                const QueryResult<linalg::Vector> d = reader.version_delta(
                    engine::Method::gravity, obs.version > 1
                                                 ? obs.version - 1
                                                 : obs.version,
                    obs.version);
                if (d.ok()) {
                    obs.delta_value = d.value[0];
                    obs.has_delta = true;
                } else {
                    // The older version may retire mid-query; that is a
                    // typed miss, never a crash or an empty vector.
                    ASSERT_TRUE(d.status == QueryStatus::version_retired ||
                                d.status == QueryStatus::version_unknown)
                        << query_status_name(d.status);
                }
                if (samples_out.size() < 4096) {
                    samples_out.push_back(obs);
                }
            }
        });
    }

    // Publisher: the engine's window sink publishes into the store; a
    // writer-side Reader immediately captures each version so the
    // readers' observations can be replayed serially afterwards.  The
    // strong refs also outlive retirement, keeping every version
    // queryable post-hoc even with the small ring.
    std::map<std::uint64_t, SnapshotRef> held;
    {
        engine::OnlineEngine eng(sc.topo, sc.routing, config);
        Reader writer_side(store);
        eng.set_window_sink([&store, &held,
                             &writer_side](const engine::WindowResult& w) {
            const std::uint64_t v =
                store.publish(EstimateSnapshot::from_window(w));
            QueryResult<SnapshotRef> ref = writer_side.at(v);
            ASSERT_TRUE(ref.ok()) << query_status_name(ref.status);
            held.emplace(v, std::move(ref.value));
        });
        (void)engine::replay_scenario(eng, sc);
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& th : readers) th.join();

    ASSERT_EQ(store.head_version(), samples);
    EXPECT_EQ(store.writer_waits(), 0u);
    for (int t = 0; t < kReaderThreads; ++t) {
        EXPECT_EQ(torn_reads[static_cast<std::size_t>(t)], 0u)
            << "reader " << t;
    }

    // Post-hoc serial replay: every concurrent observation must be
    // bitwise identical to querying the held copy of the same version.
    std::size_t replayed = 0;
    for (const std::vector<Observation>& per_thread : observed) {
        for (const Observation& obs : per_thread) {
            const auto it = held.find(obs.version);
            ASSERT_NE(it, held.end()) << "version " << obs.version;
            const EstimateSnapshot& snap = *it->second;
            const auto pt = point(snap, engine::Method::gravity, 0);
            ASSERT_TRUE(pt.ok());
            EXPECT_EQ(obs.point_value, pt.value)
                << "version " << obs.version;
            const auto hh = top_k(snap, engine::Method::kruithof, 3);
            ASSERT_TRUE(hh.ok());
            EXPECT_EQ(obs.top_pair, hh.value.front().pair);
            EXPECT_EQ(obs.top_value, hh.value.front().value);
            if (obs.has_delta && obs.version > 1) {
                const auto older = held.find(obs.version - 1);
                ASSERT_NE(older, held.end());
                const auto d = delta(snap, *older->second,
                                     engine::Method::gravity);
                ASSERT_TRUE(d.ok());
                EXPECT_EQ(obs.delta_value, d.value[0]);
            }
            ++replayed;
        }
    }
    // The replay must have produced real concurrency, not an idle spin.
    EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace tme::serve
