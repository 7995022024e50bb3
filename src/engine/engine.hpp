// Online traffic-matrix estimation engine.
//
// Turns the repository's batch estimators into a streaming pipeline:
// link-load samples are ingested one 5-minute interval at a time (from
// raw vectors, a telemetry::TimeSeriesStore, or a simulated
// telemetry::PollingOutcome with gap handling for lost polls), appended
// into a ring-buffered sliding window, and re-estimated per window by a
// configurable set of methods running on a small thread pool.  Derived
// data that depends only on the routing matrix lives in a routing-epoch
// cache and is invalidated exactly when a route change produces a new
// R; the sliding window is flushed at the same moment, because samples
// measured under different routing cannot share one estimation problem.
//
//   telemetry ──> OnlineEngine::ingest ──> SlidingWindow ──┐
//                                                          ├─> EstimatorScheduler ──> WindowResult
//   route_change ──> set_routing ──> RoutingEpochCache  ───┘        │
//                                                                   └──> EngineMetrics
#pragma once

#include <cstdint>
#include <functional>

#include "engine/epoch_cache.hpp"
#include "engine/metrics.hpp"
#include "engine/scheduler.hpp"
#include "engine/window.hpp"
#include "telemetry/poller.hpp"
#include "telemetry/timeseries.hpp"

namespace tme::engine {

struct EngineConfig {
    /// Sliding-window capacity in samples (5-minute intervals).
    std::size_t window_size = 12;
    /// Series methods (Vardi, fanout) wait for this many samples.
    std::size_t min_series_window = 3;
    /// Methods re-estimated each window.
    std::vector<Method> methods = {Method::gravity, Method::bayesian,
                                   Method::fanout};
    MethodOptions method_options;
    /// Worker threads for the per-window method fan-out; 0 runs inline.
    /// Workers whose method finished early help the fanout and Bayesian
    /// operator applies of the others (kernel regions, bitwise the same
    /// estimates; see THREADING.md).
    std::size_t threads = 0;
    /// Routing epochs kept alive for flap recovery.
    std::size_t epoch_cache_capacity = 4;
    /// Seed each method's solver from the previous window's solution.
    bool warm_start = true;
};

/// Per-sample ground truth provider (demand vector for sample k), used
/// to score windows when a scenario supplies the truth.
using TruthProvider = std::function<linalg::Vector(std::size_t sample)>;

class OnlineEngine {
  public:
    /// `topo` and `routing` must outlive the engine.  `shared_cache`
    /// lets a fleet of engines on the same topology share one routing-
    /// epoch cache (its derived data is built once and read by all);
    /// when null the engine owns a private cache of
    /// config.epoch_cache_capacity epochs.
    OnlineEngine(const topology::Topology& topo,
                 const linalg::SparseMatrix& routing,
                 EngineConfig config = {},
                 std::shared_ptr<RoutingEpochCache> shared_cache = nullptr);

    /// Signals a routing change: subsequent samples are interpreted
    /// under `routing`.  The window flush and cache (in)validation
    /// happen on the next ingest, driven by the content fingerprint —
    /// re-announcing a content-identical matrix keeps the epoch (and
    /// window) alive, merely rebinding internal pointers to the new
    /// object.
    void set_routing(const linalg::SparseMatrix& routing);

    const linalg::SparseMatrix& routing() const { return *routing_; }

    /// Ingests one load sample and runs the scheduled estimators over
    /// the updated window.  `gap` flags a sample reconstructed by
    /// interpolation (lost polls).  Sample indices must be strictly
    /// increasing within a routing epoch.
    WindowResult ingest(std::size_t sample, linalg::Vector loads,
                        bool gap = false);

    /// Ingests interval `interval` of a telemetry store (objects are
    /// link ids).  Missing polls are linearly interpolated by the store
    /// and the sample is flagged as a gap.
    WindowResult ingest_interval(const telemetry::TimeSeriesStore& store,
                                 std::size_t interval);

    /// Replays every interval of a polling-simulation outcome.
    std::vector<WindowResult> ingest_outcome(
        const telemetry::PollingOutcome& outcome);

    /// Attaches/detaches the ground-truth provider used to fill
    /// MethodRun::mre (pass an empty function to detach).
    void set_truth(TruthProvider truth) { truth_ = std::move(truth); }

    /// The currently attached truth provider (empty when detached).
    const TruthProvider& truth() const { return truth_; }

    /// Attaches a window-completion sink, invoked at the end of every
    /// ingest with the finished (scored) WindowResult — after metrics
    /// accumulation, before ingest returns.  Pass an empty function to
    /// detach.  A sink exception propagates out of ingest.
    void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }
    const WindowSink& window_sink() const { return sink_; }

    /// Records time a feeder spent waiting for samples (async replay's
    /// consumer blocking on the ingest queue) / stalled pushing into a
    /// full queue.  Exposed so feed loops outside the engine can land
    /// their wait time in this engine's metrics.
    void note_ingest_wait(double seconds) {
        metrics_.ingest_wait.record(seconds);
    }
    void note_backpressure_wait(double seconds) {
        metrics_.backpressure_wait.record(seconds);
    }

    /// Histogram sinks for IngestQueue::set_wait_sinks: producer stalls
    /// land in backpressure_wait, consumer waits in ingest_wait.  The
    /// histograms are internally atomic, so the queue's threads may
    /// record into them concurrently with ingestion and metric readers.
    obs::LatencyHistogram& ingest_wait_sink() {
        return metrics_.ingest_wait;
    }
    obs::LatencyHistogram& backpressure_wait_sink() {
        return metrics_.backpressure_wait;
    }

    /// Live metrics.  Counters are atomics and the per-method map is
    /// pre-populated at construction, so reading (or copying) the
    /// metrics concurrently with ingestion is safe and torn-free.
    const EngineMetrics& metrics() const { return metrics_; }
    const SlidingWindow& window() const { return window_; }
    const std::shared_ptr<RoutingEpochCache>& cache() const {
        return cache_;
    }
    std::uint64_t current_epoch() const { return window_epoch_; }

  private:
    const topology::Topology* topo_;
    const linalg::SparseMatrix* routing_;
    EngineConfig config_;
    std::shared_ptr<RoutingEpochCache> cache_;
    /// Pins the bound epoch so a shared cache serving other engines can
    /// never destroy it under this engine's feet.
    std::shared_ptr<const RoutingEpoch> epoch_;
    SlidingWindow window_;
    EstimatorScheduler scheduler_;
    EngineMetrics metrics_;
    TruthProvider truth_;
    WindowSink sink_;
    std::uint64_t window_epoch_ = 0;         ///< fingerprint (reporting)
    std::uint64_t window_epoch_serial_ = 0;  ///< cache-unique identity
    /// Structure of the bound epoch's routing, so a shared cache's
    /// eviction-rebuild (same content, fresh serial) is recognized and
    /// does not flush the window.
    std::size_t window_epoch_rows_ = 0;
    std::size_t window_epoch_cols_ = 0;
    std::size_t window_epoch_nnz_ = 0;
    bool epoch_bound_ = false;  ///< window_epoch_* hold a real epoch
};

}  // namespace tme::engine
