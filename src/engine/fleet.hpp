// Multi-scenario fleet driver: replays N scenarios / engine
// configurations over the same topology concurrently, one engine per
// job, all sharing a single thread-safe RoutingEpochCache.
//
// The paper's evaluation sweeps whole days across two networks and
// many method settings; learning-based follow-ups replay hundreds of
// scenarios to build training sets.  Serially that is N full-day
// replays back to back.  The fleet driver instead runs the jobs on a
// small worker pool: every engine keeps its own sliding window, warm
// starts and metrics (nothing estimation-relevant is shared between
// scenarios), while R-derived data — the routing transpose R' and the
// fanout constraints — is built once per distinct routing epoch in the
// shared cache and read by all engines.  Each job runs replay_scenario
// on its worker thread, so everything it executes (every solve too,
// with the engine's default threads = 0) sits inside the job's ambient
// fault scope.  Per-job results and metrics are aggregated into a
// FleetReport; bench_perf_engine gates the fleet's aggregate window
// throughput against the serial baseline.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/replay.hpp"

namespace tme::engine {

/// One scenario replay in the fleet.  The scenario (and any routing
/// matrices referenced by replay.events) must outlive run().
struct FleetJob {
    std::string name;
    const scenario::Scenario* scenario = nullptr;
    ReplayOptions replay;
    /// Per-job engine configuration; nullopt uses FleetConfig::engine.
    std::optional<EngineConfig> engine;
    /// Window-completion sink installed on this job's engine.  Called
    /// one window at a time, in submission order, on the job's worker
    /// thread — a serving-layer publisher (serve::make_publisher) slots in
    /// directly.  Jobs never share an engine, so per-job sinks need no
    /// cross-job synchronization, but one sink attached to several jobs
    /// must be thread-safe.
    WindowSink window_sink;
};

struct FleetConfig {
    /// Engine template for jobs without a per-job override.  Engines
    /// default to threads = 0: the fleet parallelizes across scenarios,
    /// not within one; raise it to fan each window's methods out over
    /// a per-job pool too.
    EngineConfig engine;
    /// Concurrent scenario workers; 0 picks
    /// min(jobs, hardware_concurrency).
    std::size_t concurrency = 0;
    /// Capacity of the shared routing-epoch cache.  Size it to the
    /// number of distinct routing configurations the fleet touches at
    /// once (base routings + injected reroutes), or flapping jobs will
    /// rebuild each other's epochs.
    std::size_t cache_capacity = 4;
    /// Retain every job's full per-window results (estimates included)
    /// in the report — needed for equivalence checks, sizeable for big
    /// fleets.
    bool keep_windows = false;
};

/// Crash isolation: a job whose replay throws is retried from scratch
/// until it has made this many attempts (first run + retries), then
/// *quarantined* — marked failed in its FleetJobReport while every
/// sibling job runs to completion — instead of failing the whole fleet.
/// Retries start at once.  Configuration errors (null scenario,
/// topology mismatch, bad method list) are validated up front and
/// always throw.
inline constexpr std::size_t kFleetJobAttempts = 3;

struct FleetJobReport {
    std::string name;
    std::map<Method, double> mean_mre;
    EngineMetrics metrics;  ///< snapshot of the job's engine metrics
    double seconds = 0.0;   ///< wall time inside this job's replay
    std::size_t windows = 0;
    /// Full per-window results when FleetConfig::keep_windows.
    std::vector<WindowResult> window_results;
    /// Crash-isolation outcome: attempts actually made, whether the job
    /// finally completed or was quarantined.  `error` is the what() of
    /// the last failure (empty on success).  metrics/windows reflect
    /// the last attempt only; earlier attempts are discarded wholesale.
    std::size_t attempts = 0;
    bool completed = false;
    bool quarantined = false;
    std::string error;
};

struct FleetReport {
    std::vector<FleetJobReport> jobs;  ///< in input order
    double wall_seconds = 0.0;         ///< whole-fleet wall time
    std::size_t total_windows = 0;
    /// Jobs that exhausted their attempts and were quarantined.
    std::size_t quarantined_jobs = 0;
    // Shared epoch-cache statistics after the run.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t cache_evictions = 0;
    std::size_t cache_collisions = 0;

    /// Aggregate window throughput: windows completed per wall second
    /// across the whole fleet.
    double windows_per_second() const {
        return wall_seconds > 0.0
                   ? static_cast<double>(total_windows) / wall_seconds
                   : 0.0;
    }

    /// Multi-line human-readable dump.
    std::string summary() const;
};

class FleetDriver {
  public:
    /// `topo` is the fleet's common topology; every job's scenario must
    /// structurally match it (link/pair counts).  It must outlive the
    /// driver.
    explicit FleetDriver(const topology::Topology& topo,
                         FleetConfig config = {});

    const FleetConfig& config() const { return config_; }
    /// The shared routing-epoch cache (alive across run() calls, so a
    /// second fleet over the same routings starts warm).
    const std::shared_ptr<RoutingEpochCache>& cache() const {
        return cache_;
    }

    /// Runs all jobs to completion and aggregates their reports.
    /// Blocks; jobs execute on min(concurrency, jobs) worker threads.
    /// A crashing job is retried and finally quarantined — sibling jobs
    /// are never disturbed and run() returns normally (check
    /// FleetJobReport::quarantined).
    FleetReport run(const std::vector<FleetJob>& jobs);

  private:
    void run_job(const FleetJob& job, FleetJobReport& report,
                 std::size_t index);

    const topology::Topology* topo_;
    FleetConfig config_;
    std::shared_ptr<RoutingEpochCache> cache_;
};

}  // namespace tme::engine
