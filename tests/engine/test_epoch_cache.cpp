#include "engine/epoch_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/route_change.hpp"
#include "core/test_helpers.hpp"
#include "engine/engine.hpp"

namespace tme::engine {
namespace {

using core::routing_fingerprint;
using core::testing::SmallNetwork;
using core::testing::tiny_network;

TEST(RoutingFingerprint, ContentDetermined) {
    const SmallNetwork net = tiny_network();
    const linalg::SparseMatrix copy = net.routing;
    // Same content, different objects: same fingerprint.
    EXPECT_EQ(routing_fingerprint(net.routing), routing_fingerprint(copy));

    // A perturbed reroute yields a different matrix and fingerprint.
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(net.topo, 0.9, 42);
    ASSERT_EQ(rerouted.cols(), net.routing.cols());
    EXPECT_NE(routing_fingerprint(net.routing),
              routing_fingerprint(rerouted));
}

TEST(RoutingEpochCache, HitMissAndDerivedCorrectness) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);

    const auto first = cache.acquire_shared(net.routing);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(first->fingerprint(), routing_fingerprint(net.routing));
    // The cached transpose is exactly R' of the acquired matrix.
    EXPECT_EQ(first->routing_transpose().to_dense(),
              linalg::transpose(net.routing).to_dense());

    // A content-identical copy is the same epoch.
    const linalg::SparseMatrix copy = net.routing;
    const auto again = cache.acquire_shared(copy);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(again.get(), first.get());

    // A route change invalidates: a new epoch is built, and its derived
    // data is the NEW matrix's, never the stale one's.
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(net.topo, 0.9, 42);
    const auto changed = cache.acquire_shared(rerouted);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(changed->fingerprint(), routing_fingerprint(rerouted));
    const linalg::Matrix changed_rt = changed->routing_transpose().to_dense();
    EXPECT_EQ(changed_rt, linalg::transpose(rerouted).to_dense());
    EXPECT_GT(linalg::max_abs_diff(
                  changed_rt, linalg::transpose(net.routing).to_dense()),
              0.0);
}

TEST(RoutingEpochCache, FlapRecoveryAndEviction) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);
    const linalg::SparseMatrix r2 = core::perturbed_routing(net.topo, 0.9, 1);
    const linalg::SparseMatrix r3 = core::perturbed_routing(net.topo, 0.9, 2);
    ASSERT_NE(routing_fingerprint(r2), routing_fingerprint(r3));

    cache.acquire_shared(net.routing);
    cache.acquire_shared(r2);
    EXPECT_EQ(cache.size(), 2u);

    // Flapping back to the original routing hits the LRU.
    cache.acquire_shared(net.routing);
    EXPECT_EQ(cache.hits(), 1u);

    // A third distinct epoch evicts the least recently used (r2).
    cache.acquire_shared(r3);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);
    cache.acquire_shared(r2);  // must rebuild
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(OnlineEngine, RouteChangeFlushesWindowAndRebindsEpoch) {
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.window_size = 4;
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(net.topo, net.routing, config);

    const linalg::Vector loads = net.routing.multiply(net.truth);
    for (std::size_t k = 0; k < 3; ++k) {
        const WindowResult result = engine.ingest(k, loads);
        EXPECT_EQ(result.epoch_fingerprint,
                  routing_fingerprint(net.routing));
    }
    EXPECT_EQ(engine.window().size(), 3u);

    // Re-announcing an identical matrix is NOT an epoch change, but the
    // window must rebind to the new object so it never dangles on a
    // matrix the caller may free.
    const linalg::SparseMatrix same = net.routing;
    engine.set_routing(same);
    EXPECT_EQ(engine.window().series().routing, &same);
    engine.ingest(3, loads);
    EXPECT_EQ(engine.metrics().epoch_changes, 0u);
    EXPECT_EQ(engine.window().size(), 4u);
    EXPECT_EQ(engine.window().series().routing, &same);

    // A real reroute flushes the window and switches the epoch.
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(net.topo, 0.9, 7);
    engine.set_routing(rerouted);
    const linalg::Vector loads2 = rerouted.multiply(net.truth);
    const WindowResult result = engine.ingest(4, loads2);
    EXPECT_EQ(engine.metrics().epoch_changes, 1u);
    EXPECT_EQ(engine.metrics().window_flushes, 1u);
    EXPECT_EQ(engine.window().size(), 1u);
    EXPECT_EQ(result.epoch_fingerprint, routing_fingerprint(rerouted));
    EXPECT_EQ(engine.current_epoch(), routing_fingerprint(rerouted));
}

// Regression: a content-identical replacement announced, used, then
// swapped back and freed must leave nothing pointing at it.  The window
// is rebound inside set_routing(), not on the next ingest, so this runs
// clean under AddressSanitizer.
TEST(OnlineEngine, SetRoutingLetsTheCallerFreeTheReplacedObject) {
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.window_size = 4;
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(net.topo, net.routing, config);
    const linalg::Vector loads = net.routing.multiply(net.truth);

    engine.ingest(0, loads);
    auto replacement = std::make_unique<linalg::SparseMatrix>(net.routing);
    engine.set_routing(*replacement);
    EXPECT_EQ(engine.window().series().routing, replacement.get());
    engine.ingest(1, loads);
    engine.set_routing(net.routing);
    EXPECT_EQ(engine.window().series().routing, &net.routing);
    replacement.reset();
    const WindowResult result = engine.ingest(2, loads);

    EXPECT_EQ(result.window_size, 3u);
    EXPECT_EQ(engine.metrics().epoch_changes, 0u);
    EXPECT_EQ(engine.cache()->misses(), 1u);
}

// While the routing content stays the same, the engine never goes back
// to the cache: its first sample acquires, content-identical
// re-announcements only rebind the window.
TEST(OnlineEngine, ContentIdenticalAnnouncementsDoNotReacquire) {
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.window_size = 4;
    config.methods = {Method::gravity, Method::bayesian};
    OnlineEngine engine(net.topo, net.routing, config);
    const linalg::Vector loads = net.routing.multiply(net.truth);

    constexpr std::size_t kSamples = 6;
    std::vector<linalg::SparseMatrix> copies(kSamples, net.routing);
    for (std::size_t k = 0; k < kSamples; ++k) {
        engine.set_routing(copies[k]);
        engine.ingest(k, loads);
    }
    EXPECT_EQ(engine.cache()->misses(), 1u);
    EXPECT_EQ(engine.cache()->hits(), 0u);
    EXPECT_EQ(engine.metrics().cache_misses, 1u);
    EXPECT_EQ(engine.metrics().cache_hits, 0u);
    EXPECT_EQ(engine.metrics().epoch_changes, 0u);
    EXPECT_EQ(engine.window().size(), config.window_size);
}

// The metrics' cache mirror is refreshed after the window's stages,
// which build the epoch's derived data: it never lags the cache.
TEST(OnlineEngine, CacheMirrorMatchesTheCacheAfterEveryIngest) {
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.window_size = 4;
    config.min_series_window = 2;
    OnlineEngine engine(net.topo, net.routing, config);
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(net.topo, 0.9, 7);

    for (std::size_t k = 0; k < 6; ++k) {
        if (k == 3) engine.set_routing(rerouted);
        engine.ingest(k, engine.routing().multiply(net.truth));
        const EngineMetrics& m = engine.metrics();
        const RoutingEpochCache& cache = *engine.cache();
        EXPECT_EQ(m.epoch_build_latency.count(),
                  cache.build_latency().count())
            << "sample " << k;
        EXPECT_EQ(m.cache_hits, cache.hits()) << "sample " << k;
        EXPECT_EQ(m.cache_misses, cache.misses()) << "sample " << k;
        EXPECT_EQ(m.cache_evictions, cache.evictions()) << "sample " << k;
    }
    EXPECT_GT(engine.metrics().epoch_build_latency.count(), 0u);
    EXPECT_EQ(engine.metrics().cache_misses, 2u);
}

}  // namespace
}  // namespace tme::engine
