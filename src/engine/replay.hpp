// Scenario replay through the online engine: feeds a Scenario's full
// day of 5-minute samples into an OnlineEngine in time order, applying
// injected route changes and scoring every window against the
// scenario's ground-truth demands.
//
// replay_scenario produces and submits every sample on the calling
// thread, one window at a time, then collects the windows with
// finish().
#pragma once

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

}  // namespace tme::engine
