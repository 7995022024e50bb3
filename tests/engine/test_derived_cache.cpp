// Per-epoch derived data: lazy builds, memoization, eviction semantics,
// and fingerprint-collision handling of the routing-epoch cache.
#include <gtest/gtest.h>

#include "core/route_change.hpp"
#include "core/test_helpers.hpp"
#include "engine/epoch_cache.hpp"

namespace tme::engine {
namespace {

using core::testing::SmallNetwork;
using core::testing::tiny_network;

TEST(RoutingEpochDerived, RoutingTransposeLazyBuildAndReuse) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);
    const RoutingEpoch& epoch = cache.acquire(net.routing);

    EXPECT_FALSE(epoch.routing_transpose_built());
    const linalg::SparseMatrix& rt = epoch.routing_transpose();
    EXPECT_TRUE(epoch.routing_transpose_built());
    // Second call is a cache hit on the same object; the O(nnz)
    // transpose does not count as a derived build.
    EXPECT_EQ(&epoch.routing_transpose(), &rt);
    EXPECT_EQ(epoch.derived_builds(), 0u);

    // Values are exactly linalg::transpose of the routing copy.
    const linalg::SparseMatrix expected = linalg::transpose(net.routing);
    ASSERT_EQ(rt.rows(), expected.rows());
    ASSERT_EQ(rt.cols(), expected.cols());
    EXPECT_EQ(rt.row_offsets(), expected.row_offsets());
    EXPECT_EQ(rt.column_indices(), expected.column_indices());
    EXPECT_EQ(rt.values(), expected.values());
}

TEST(RoutingEpochDerived, FanoutConstraintsLazyBuild) {
    const SmallNetwork net = tiny_network();
    RoutingEpochCache cache(2);
    const RoutingEpoch& epoch = cache.acquire(net.routing);

    const core::FanoutConstraints& cached =
        epoch.fanout_constraints(net.topo);
    EXPECT_EQ(epoch.derived_builds(), 1u);
    epoch.fanout_constraints(net.topo);
    EXPECT_EQ(epoch.derived_builds(), 1u);

    const core::FanoutConstraints expected =
        core::FanoutConstraints::build(net.topo);
    ASSERT_EQ(cached.source_of, expected.source_of);
    ASSERT_EQ(cached.equality_sparse.rows(),
              expected.equality_sparse.rows());
    ASSERT_EQ(cached.equality_sparse.cols(),
              expected.equality_sparse.cols());
    ASSERT_EQ(cached.rhs, expected.rhs);
    const linalg::Matrix cached_dense = cached.equality_sparse.to_dense();
    const linalg::Matrix expected_dense =
        expected.equality_sparse.to_dense();
    for (std::size_t i = 0; i < expected_dense.rows(); ++i) {
        for (std::size_t j = 0; j < expected_dense.cols(); ++j) {
            EXPECT_EQ(cached_dense(i, j), expected_dense(i, j));
        }
    }

    // A topology that does not match the routing matrix is rejected.
    const SmallNetwork other = core::testing::europe_network();
    EXPECT_THROW(epoch.fanout_constraints(other.topo),
                 std::invalid_argument);
}

TEST(RoutingEpochCache, FingerprintCollisionIsNotServed) {
    // Force every matrix onto one fingerprint: the structural identity
    // check must keep two distinct routings in separate epochs instead
    // of silently serving the first one's derived data for the second.
    RoutingEpochCache cache(4, [](const linalg::SparseMatrix&) {
        return std::uint64_t{42};
    });

    const linalg::SparseMatrix a(
        2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
    const linalg::SparseMatrix b(
        2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});  // different nnz

    const RoutingEpoch& ea = cache.acquire(a);
    const RoutingEpoch& eb = cache.acquire(b);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.collisions(), 1u);
    EXPECT_EQ(ea.fingerprint(), eb.fingerprint());
    // The serial disambiguates colliding epochs: it is what the engine
    // compares to decide whether the epoch (and thus the window) must
    // be flushed.
    EXPECT_NE(ea.serial(), eb.serial());
    EXPECT_EQ(ea.routing().to_dense(), a.to_dense());
    EXPECT_EQ(eb.routing().to_dense(), b.to_dense());

    // Both colliding epochs stay acquirable; each hit re-verifies
    // structure and lands on the right entry.
    EXPECT_EQ(cache.acquire(a).routing().to_dense(), a.to_dense());
    EXPECT_EQ(cache.acquire(b).routing().to_dense(), b.to_dense());
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(RoutingEpochCache, EvictionRebuildsLazyDerivedData) {
    const SmallNetwork net = tiny_network();
    const linalg::SparseMatrix r2 =
        core::perturbed_routing(net.topo, 0.9, 1);
    const linalg::SparseMatrix r3 =
        core::perturbed_routing(net.topo, 0.9, 2);
    RoutingEpochCache cache(2);

    const RoutingEpoch& first = cache.acquire(net.routing);
    first.routing_transpose();
    first.fanout_constraints(net.topo);
    EXPECT_EQ(first.derived_builds(), 1u);

    // Fill the cache past capacity: the first epoch (LRU) is evicted
    // together with its derived data.
    cache.acquire(r2);
    cache.acquire(r3);
    EXPECT_EQ(cache.evictions(), 1u);

    // Re-acquiring the original routing is a miss that starts with a
    // clean derived slate (nothing stale can be served).
    const RoutingEpoch& rebuilt = cache.acquire(net.routing);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(rebuilt.derived_builds(), 0u);
    EXPECT_FALSE(rebuilt.routing_transpose_built());
    rebuilt.fanout_constraints(net.topo);
    EXPECT_EQ(rebuilt.derived_builds(), 1u);
}

}  // namespace
}  // namespace tme::engine
