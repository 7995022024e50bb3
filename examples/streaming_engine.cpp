// Streaming engine demo: replay the European scenario's full day of
// 5-minute samples through the online estimation engine, inject a
// routing change at midday, and print the per-window MRE of each
// scheduled method.
//
// What to look for in the output:
//  * the engine re-estimates after every sample over its sliding
//    window, warm-starting each solver from the previous window;
//  * at the route change the routing-epoch fingerprint flips, the
//    window is flushed (size drops back to 1) and the epoch cache
//    records exactly one extra miss — stale per-epoch data is never
//    reused;
//  * the per-method MRE is essentially unaffected once the window
//    refills, because the estimators now consume loads consistent with
//    the new routing matrix.
//  * the closing latency table gives each method's p50/p95/p99 from
//    the HDR histograms in EngineMetrics, and the whole replay is
//    traced: load streaming_trace.json into Perfetto / chrome://tracing
//    to see the window spans and per-solver runs nested inside them.
#include <cstdio>

#include "core/route_change.hpp"
#include "engine/replay.hpp"
#include "obs/trace.hpp"

int main() {
    using namespace tme;
    using engine::Method;

    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe);

    // An operator reroutes at 12:30 (sample 150): IGP metrics on core
    // links are perturbed and the LSP mesh re-converges.
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(sc.topo, 0.8, 5);
    constexpr std::size_t change_at = 150;

    engine::EngineConfig config;
    config.window_size = 12;     // one hour of samples
    config.min_series_window = 3;
    config.methods = {Method::gravity, Method::bayesian, Method::vardi,
                      Method::fanout};
    config.threads = 4;
    config.warm_start = true;
    engine::OnlineEngine eng(sc.topo, sc.routing, config);

    engine::ReplayOptions replay;
    replay.events = {{change_at, &rerouted}};
    obs::ScopedTracing tracing(true);  // no-op unless built with TME_TRACING
    const engine::ReplayResult result =
        engine::replay_scenario(eng, sc, replay);

    std::printf("streaming %zu samples through the engine "
                "(route change at sample %zu)\n\n",
                result.windows.size(), change_at);
    std::printf("%7s %6s %10s  %8s %8s %8s %8s\n", "sample", "win",
                "epoch", "gravity", "bayes", "vardi", "fanout");
    for (const engine::WindowResult& window : result.windows) {
        const std::size_t k = window.window_end_sample;
        // Print hourly, plus every window around the route change.
        const bool near_change = k + 3 >= change_at && k < change_at + 6;
        if (k % 12 != 0 && !near_change) continue;
        const auto mre_of = [&](Method m) {
            const engine::MethodRun* run = window.find(m);
            return run != nullptr ? run->mre : -1.0;
        };
        std::printf("%7zu %6zu %10llx  %8.4f %8.4f %8.4f %8.4f%s\n", k,
                    window.window_size,
                    static_cast<unsigned long long>(
                        window.epoch_fingerprint & 0xffffffffffull),
                    mre_of(Method::gravity), mre_of(Method::bayesian),
                    mre_of(Method::vardi), mre_of(Method::fanout),
                    k == change_at ? "  <- route change (window flushed)"
                                   : "");
    }

    std::printf("\nday means:");
    for (const auto& [method, mre] : result.mean_mre) {
        std::printf("  %s=%.4f", engine::method_name(method), mre);
    }
    // Per-method latency percentiles from the HDR histograms (the
    // summary() block below repeats them inline; this table is the
    // at-a-glance view).
    std::printf("\n\nper-method latency\n------------------\n");
    std::printf("%-9s %8s %8s %8s %8s\n", "method", "p50", "p95", "p99",
                "max");
    for (const auto& [method, stats] : eng.metrics().methods) {
        const obs::HistogramSnapshot hist = stats.latency.snapshot();
        std::printf("%-9s %6.2fms %6.2fms %6.2fms %6.2fms\n",
                    engine::method_name(method), hist.p50() * 1e3,
                    hist.p95() * 1e3, hist.p99() * 1e3,
                    hist.max_seconds() * 1e3);
    }

    std::printf("\nengine metrics\n--------------\n%s",
                eng.metrics().summary().c_str());

    if (obs::tracing_compiled()) {
        const char* trace_path = "streaming_trace.json";
        if (obs::Tracer::instance().write_chrome_trace(trace_path)) {
            std::printf(
                "\nwrote %zu trace spans to %s "
                "(open in Perfetto or chrome://tracing)\n",
                obs::Tracer::instance().recorded(), trace_path);
        }
    }
    return 0;
}
