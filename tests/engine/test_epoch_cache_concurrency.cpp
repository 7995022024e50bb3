// Epoch cache under concurrent access: N threads racing on a cold
// epoch build each derived quantity exactly once (and observe the same
// object), concurrent acquires of one routing build one epoch, and a
// pinned epoch survives eviction by other engines.
#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "core/route_change.hpp"
#include "core/test_helpers.hpp"
#include "engine/epoch_cache.hpp"

namespace tme::engine {
namespace {

using core::testing::SmallNetwork;
using core::testing::tiny_network;

constexpr std::size_t kThreads = 8;

TEST(RoutingEpochConcurrency, ColdDerivedDataBuildsExactlyOnce) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);
    const std::shared_ptr<const RoutingEpoch> epoch =
        cache.acquire_shared(net.routing);
    ASSERT_EQ(epoch->derived_builds(), 0u);

    std::vector<const linalg::SparseMatrix*> transpose_ptrs(kThreads);
    std::vector<const core::FanoutConstraints*> fanout_ptrs(kThreads);
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();  // maximize the cold-build race
            transpose_ptrs[t] = &epoch->routing_transpose();
            fanout_ptrs[t] = &epoch->fanout_constraints(net.topo);
        });
    }
    for (std::thread& t : threads) t.join();

    // Exactly one build of the counted quantity (the fanout
    // constraints; the O(nnz) transpose is not counted), however the
    // race went.
    EXPECT_EQ(epoch->derived_builds(), 1u);
    EXPECT_TRUE(epoch->routing_transpose_built());
    // Every thread observed the same objects.
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(transpose_ptrs[t], transpose_ptrs[0]);
        EXPECT_EQ(fanout_ptrs[t], fanout_ptrs[0]);
    }
    // The race never misfired into the collision path.
    EXPECT_EQ(cache.collisions(), 0u);

    // The built data is correct, not just unique.
    EXPECT_EQ(transpose_ptrs[0]->to_dense(),
              linalg::transpose(net.routing).to_dense());
    EXPECT_EQ(fanout_ptrs[0]->source_of,
              core::FanoutConstraints::build(net.topo).source_of);
}

TEST(RoutingEpochCacheConcurrency, ConcurrentAcquiresBuildOneEpoch) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);
    std::vector<std::shared_ptr<const RoutingEpoch>> epochs(kThreads);
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();
            epochs[t] = cache.acquire_shared(net.routing);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), kThreads - 1);
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(epochs[t].get(), epochs[0].get());
    }
}

TEST(RoutingEpochCacheConcurrency, PinnedEpochSurvivesEviction) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(1);
    const std::shared_ptr<const RoutingEpoch> pinned =
        cache.acquire_shared(net.routing);
    const std::uint64_t serial = pinned->serial();

    // Another engine's routing churn evicts the entry from the LRU...
    const linalg::SparseMatrix r2 = core::perturbed_routing(net.topo, 0.9, 1);
    const linalg::SparseMatrix r3 = core::perturbed_routing(net.topo, 0.9, 2);
    cache.acquire_shared(r2);
    cache.acquire_shared(r3);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.size(), 1u);

    // ...but the pinned epoch (a window being solved, say) is
    // still fully usable, derived data included.
    EXPECT_EQ(pinned->serial(), serial);
    EXPECT_EQ(pinned->routing_transpose().to_dense(),
              linalg::transpose(net.routing).to_dense());
    EXPECT_EQ(pinned->fanout_constraints(net.topo).source_of.size(),
              net.routing.cols());

    // Re-acquiring the original routing rebuilds a NEW epoch (distinct
    // serial): eviction really dropped it from the cache.
    const std::shared_ptr<const RoutingEpoch> rebuilt =
        cache.acquire_shared(net.routing);
    EXPECT_NE(rebuilt->serial(), serial);
}

}  // namespace
}  // namespace tme::engine
