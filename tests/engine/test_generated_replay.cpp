// Generated-topology engine smoke test: a 100-PoP backbone (9900 OD
// pairs) replayed through the online engine.  This is the scale the
// sparse fast paths exist for — the test schedules only Gram-free
// methods and asserts the epoch never materializes the ~0.8 GB dense
// Gram, so it stays fast enough for the TSan lane (the engine label
// puts it there).
#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.hpp"
#include "engine/replay.hpp"
#include "scenario/scenario.hpp"

namespace tme::engine {
namespace {

TEST(GeneratedReplay, HundredPopSmoke) {
    scenario::GeneratedScenarioConfig config;
    config.pops = 100;
    config.avg_core_degree = 4.0;
    config.seed = 1;
    config.samples = 8;  // short day: construction stays cheap under TSan
    const scenario::Scenario sc = scenario::make_generated_scenario(config);
    ASSERT_EQ(sc.topo.pop_count(), 100u);
    ASSERT_EQ(sc.routing.cols(), 9900u);
    ASSERT_EQ(sc.loads.size(), 8u);

    EngineConfig engine_config;
    engine_config.window_size = 4;
    // Gravity only: Gram-free AND cheap enough for the TSan lane.
    // (Kruithof's sparse-aware rewrite now runs at this scale too —
    // bench_perf_solvers phase 5 covers it — but 500 MART sweeps per
    // window under TSan would still dominate this smoke test.)
    engine_config.methods = {Method::gravity};
    OnlineEngine engine(sc.topo, sc.routing, engine_config);

    ReplayOptions options;
    options.attach_truth = true;
    const ReplayResult result = replay_scenario(engine, sc, options);
    ASSERT_EQ(result.windows.size(), sc.loads.size());
    for (const WindowResult& window : result.windows) {
        ASSERT_EQ(window.runs.size(), engine_config.methods.size());
        for (const MethodRun& run : window.runs) {
            ASSERT_EQ(run.estimate.size(), sc.routing.cols());
            for (double v : run.estimate) {
                ASSERT_TRUE(std::isfinite(v));
                ASSERT_GE(v, 0.0);
            }
        }
    }
    // Truth-scored MRE exists and is finite.
    ASSERT_EQ(result.mean_mre.size(), 1u);
    for (const auto& [method, mre] : result.mean_mre) {
        EXPECT_TRUE(std::isfinite(mre)) << method_name(method);
    }
}

}  // namespace
}  // namespace tme::engine
