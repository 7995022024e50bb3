#include "engine/window.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/test_helpers.hpp"
#include "engine/scheduler.hpp"
#include "linalg/stats.hpp"

namespace tme::engine {
namespace {

using core::testing::SmallNetwork;
using core::testing::tiny_network;

std::vector<linalg::Vector> random_loads(const SmallNetwork& net,
                                         std::size_t count, unsigned seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(0.2, 3.0);
    std::vector<linalg::Vector> loads;
    for (std::size_t k = 0; k < count; ++k) {
        linalg::Vector s(net.topo.pair_count());
        for (double& v : s) v = dist(rng);
        loads.push_back(net.routing.multiply(s));
    }
    return loads;
}

TEST(SlidingWindow, RingSemantics) {
    const SmallNetwork net = tiny_network();
    SlidingWindow window(&net.topo, &net.routing, 3);
    EXPECT_EQ(window.capacity(), 3u);
    EXPECT_TRUE(window.empty());
    EXPECT_THROW(window.latest(), std::logic_error);
    EXPECT_THROW(window.first_sample(), std::logic_error);

    const std::vector<linalg::Vector> loads = random_loads(net, 5, 7);
    window.push(10, loads[0]);
    EXPECT_EQ(window.size(), 1u);
    EXPECT_EQ(window.first_sample(), 10u);
    EXPECT_EQ(window.last_sample(), 10u);
    window.push(11, loads[1]);
    window.push(12, loads[2]);
    EXPECT_TRUE(window.full());

    // Pushing past capacity evicts the oldest sample.
    window.push(13, loads[3]);
    EXPECT_EQ(window.size(), 3u);
    EXPECT_EQ(window.first_sample(), 11u);
    EXPECT_EQ(window.last_sample(), 13u);
    EXPECT_EQ(window.series().loads.front(), loads[1]);
    EXPECT_EQ(window.latest(), loads[3]);
    EXPECT_EQ(window.total_pushed(), 4u);

    // Sample indices must be strictly increasing.
    EXPECT_THROW(window.push(13, loads[4]), std::invalid_argument);
    EXPECT_THROW(window.push(5, loads[4]), std::invalid_argument);

    // Wrong load dimension is rejected.
    EXPECT_THROW(window.push(14, linalg::Vector(3, 1.0)),
                 std::invalid_argument);
}

TEST(SlidingWindow, GapBookkeeping) {
    const SmallNetwork net = tiny_network();
    SlidingWindow window(&net.topo, &net.routing, 4);
    const std::vector<linalg::Vector> loads = random_loads(net, 3, 11);
    window.push(0, loads[0], false);
    window.push(1, loads[1], true);
    window.push(2, loads[2], true);
    EXPECT_EQ(window.gap_count(), 2u);
    EXPECT_EQ(window.total_pushed(), 3u);
}

TEST(SlidingWindow, ResetFlushesAndRebinds) {
    const SmallNetwork net = tiny_network();
    SlidingWindow window(&net.topo, &net.routing, 3);
    const std::vector<linalg::Vector> loads = random_loads(net, 3, 5);
    for (std::size_t k = 0; k < loads.size(); ++k) window.push(k, loads[k]);
    EXPECT_TRUE(window.full());

    const linalg::SparseMatrix other = net.routing;  // same content, new object
    window.reset(&other);
    EXPECT_TRUE(window.empty());
    EXPECT_EQ(window.series().routing, &other);
    // Lifetime counters survive.
    EXPECT_EQ(window.total_pushed(), 3u);

    // Sample numbering may restart after a reset on a fresh window.
    window.push(0, loads[0]);
    EXPECT_EQ(window.size(), 1u);
}

TEST(SlidingWindow, RebindRoutingKeepsContent) {
    const SmallNetwork net = tiny_network();
    SlidingWindow window(&net.topo, &net.routing, 3);
    const std::vector<linalg::Vector> loads = random_loads(net, 2, 19);
    window.push(0, loads[0]);
    window.push(1, loads[1]);

    const linalg::SparseMatrix copy = net.routing;
    window.rebind_routing(&copy);
    EXPECT_EQ(window.series().routing, &copy);
    EXPECT_EQ(window.size(), 2u);  // nothing flushed

    const linalg::SparseMatrix wrong(3, 4, {});
    EXPECT_THROW(window.rebind_routing(&wrong), std::invalid_argument);
    EXPECT_THROW(window.rebind_routing(nullptr), std::invalid_argument);
}

TEST(WindowCapture, CovarianceStableUnderLargeLoadLevels) {
    // Mbps-scale absolute levels with small fluctuations: the naive
    // E[tt'] - mm' formula loses ~10 digits to cancellation; capture's
    // covariance must stay close to that of the unshifted loads.
    const SmallNetwork net = tiny_network();
    SlidingWindow window(&net.topo, &net.routing, 6);
    const std::vector<linalg::Vector> loads = random_loads(net, 6, 23);
    for (std::size_t k = 0; k < loads.size(); ++k) {
        linalg::Vector shifted = loads[k];
        for (double& v : shifted) v += 1e8;
        window.push(k, std::move(shifted));
    }
    RoutingEpochCache cache(1);
    const WindowContext ctx = WindowContext::capture(
        window, cache.acquire_shared(net.routing), {Method::vardi},
        /*min_series_window=*/1, /*ordinal=*/0);
    const linalg::Matrix unshifted = linalg::sample_covariance(loads);
    // Covariance entries are O(1); demand agreement far below them.
    EXPECT_LT(linalg::max_abs_diff(unshifted, ctx.covariance), 1e-6);
}

TEST(SlidingWindow, ConstructorValidation) {
    const SmallNetwork net = tiny_network();
    EXPECT_THROW(SlidingWindow(nullptr, &net.routing, 3),
                 std::invalid_argument);
    EXPECT_THROW(SlidingWindow(&net.topo, nullptr, 3),
                 std::invalid_argument);
    EXPECT_THROW(SlidingWindow(&net.topo, &net.routing, 0),
                 std::invalid_argument);
}

}  // namespace
}  // namespace tme::engine
