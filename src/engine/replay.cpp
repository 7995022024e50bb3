#include "engine/replay.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace tme::engine {

namespace {

/// Mean per-method MRE over all scored windows.
std::map<Method, double> summarize_mre(
    const std::vector<WindowResult>& windows) {
    std::map<Method, std::pair<double, std::size_t>> acc;
    for (const WindowResult& window : windows) {
        for (const MethodRun& run : window.runs) {
            if (std::isnan(run.mre)) continue;
            auto& [sum, count] = acc[run.method];
            sum += run.mre;
            ++count;
        }
    }
    std::map<Method, double> mean;
    for (const auto& [method, pair] : acc) {
        if (pair.second > 0) {
            mean[method] = pair.first / static_cast<double>(pair.second);
        }
    }
    return mean;
}

}  // namespace

ReplayResult replay_scenario(OnlineEngine& engine,
                             const scenario::Scenario& sc,
                             const ReplayOptions& options) {
    if (engine.routing().cols() != sc.topo.pair_count()) {
        throw std::invalid_argument(
            "replay_scenario: engine routing does not match scenario");
    }
    // Install the scenario truth provider for the replay, restoring
    // whatever the caller had attached on every exit path.
    const bool attach = options.attach_truth;
    TruthProvider saved;
    if (attach) {
        saved = engine.truth();
        engine.set_truth(
            [&sc](std::size_t sample) { return sc.demands.at(sample); });
    }
    ReplayResult result;
    try {
        scenario::replay(
            sc, options.events,
            [&](std::size_t sample, const linalg::SparseMatrix& routing,
                const linalg::Vector& loads,
                const linalg::Vector& demands) {
                (void)demands;
                if (&routing != &engine.routing()) {
                    engine.set_routing(routing);
                }
                engine.submit(sample, loads);
            });
        result.windows = engine.finish();
    } catch (...) {
        if (attach) engine.set_truth(std::move(saved));
        throw;
    }
    if (attach) engine.set_truth(std::move(saved));
    result.mean_mre = summarize_mre(result.windows);
    return result;
}

}  // namespace tme::engine
