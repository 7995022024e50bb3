// Estimation methods the online engine can schedule per window.
//
// Snapshot methods see only the newest sample of the window; series
// methods (Vardi, fanout) consume the whole sliding window and therefore
// only run once the window holds enough samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tme::engine {

enum class Method {
    gravity,   ///< simple gravity from edge-link loads (snapshot)
    kruithof,  ///< Kruithof/MART projection of the gravity prior (snapshot)
    entropy,   ///< KL-regularized least squares (snapshot)
    bayesian,  ///< Gaussian-prior regularized NNLS (snapshot)
    vardi,     ///< Poisson moment matching over the window (series)
    fanout,    ///< constant-fanout window LS (series)
};

/// Every method, in enum order.  Keep in sync when extending Method —
/// method_count sizes per-method state tables (e.g. the engine's
/// warm-start slots).
inline constexpr Method all_methods[] = {
    Method::gravity, Method::kruithof, Method::entropy,
    Method::bayesian, Method::vardi,   Method::fanout,
};
inline constexpr std::size_t method_count =
    sizeof(all_methods) / sizeof(all_methods[0]);

constexpr const char* method_name(Method m) {
    switch (m) {
        case Method::gravity: return "gravity";
        case Method::kruithof: return "kruithof";
        case Method::entropy: return "entropy";
        case Method::bayesian: return "bayesian";
        case Method::vardi: return "vardi";
        case Method::fanout: return "fanout";
    }
    return "?";
}

constexpr bool is_series_method(Method m) {
    return m == Method::vardi || m == Method::fanout;
}

/// Quality of one method's estimate for one window, as served
/// downstream.  Degradation is graceful and explicit: a window is never
/// silently dropped, it is flagged.
///  * exact    — the configured method's solve returned by its own
///               stopping test or by a configured iteration cap.  No
///               convergence check backs the label: a capped run is
///               exact too (see linalg::SolveOutcome).
///  * degraded — the method's own solve was cut by its SolveBudget
///               (best feasible iterate returned), or a fallback method
///               produced the estimate after the configured one failed.
///  * stale    — every method in the fallback chain failed and the
///               estimate is the last good one carried forward
///               (MethodRun::stale_age windows old).
///  * failed   — nothing usable: no fallback succeeded and no last-good
///               estimate exists.  The estimate is all zeros.
enum class EstimateQuality : std::uint8_t {
    exact,
    degraded,
    stale,
    failed,
};

constexpr const char* estimate_quality_name(EstimateQuality q) {
    switch (q) {
        case EstimateQuality::exact: return "exact";
        case EstimateQuality::degraded: return "degraded";
        case EstimateQuality::stale: return "stale";
        case EstimateQuality::failed: return "failed";
    }
    return "?";
}

/// Whether `wanted` appears in a scheduled method list.
inline bool schedules(const std::vector<Method>& methods, Method wanted) {
    for (Method m : methods) {
        if (m == wanted) return true;
    }
    return false;
}

}  // namespace tme::engine
