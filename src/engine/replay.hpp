// Scenario replay through the online engine: feeds a Scenario's full
// day of 5-minute samples into an OnlineEngine in time order, applying
// injected route changes and scoring every window against the
// scenario's ground-truth demands.
//
// Two drive modes share one result shape, and both submit every sample
// and collect the windows with finish(), so successive windows overlap
// whenever the engine's pipeline_depth allows it:
//   * replay_scenario — the calling thread produces and submits;
//   * replay_scenario_async — a producer thread generates the samples
//     and pushes them through a bounded IngestQueue while the calling
//     thread submits; identical results, but sample generation no
//     longer blocks on the solvers (and backpressure bounds the
//     decoupling buffer).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "engine/engine.hpp"
#include "scenario/scenario.hpp"

namespace tme::engine {

struct ReplayOptions {
    /// Route changes injected mid-replay (sorted by at_sample; matrices
    /// must outlive the replay).
    std::vector<scenario::RouteChangeEvent> events;
    /// Score each window's estimates against the scenario demands.
    bool attach_truth = true;
};

struct ReplayResult {
    std::vector<WindowResult> windows;
    /// Mean of MethodRun::mre per method over all scored windows.
    std::map<Method, double> mean_mre;
};

/// Replays the scenario through the engine.  The engine must have been
/// constructed on the scenario's topology and routing matrix, and hold
/// no unfinished windows (finish() returns them with the replay's).
ReplayResult replay_scenario(OnlineEngine& engine,
                             const scenario::Scenario& sc,
                             const ReplayOptions& options = {});

/// As replay_scenario, but sample production runs on a dedicated
/// producer thread decoupled from estimation by a bounded IngestQueue
/// of `queue_capacity` samples.  Route changes travel in-band with the
/// samples, so the consumer applies them at exactly the same stream
/// positions as the synchronous replay; results are identical.
ReplayResult replay_scenario_async(OnlineEngine& engine,
                                   const scenario::Scenario& sc,
                                   const ReplayOptions& options = {},
                                   std::size_t queue_capacity = 16);

}  // namespace tme::engine
