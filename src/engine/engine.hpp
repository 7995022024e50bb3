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
//   telemetry ──> submit / ingest ──> SlidingWindow ───┐
//                                                      ├─> WindowContext
//   route_change ──> set_routing ──> RoutingEpochCache ┘         │
//                                                                v
//   sink <── WindowResult <──── per-method stages on the pool ────┘
//                 └──> EngineMetrics
//
// One window at a time: submit() snapshots the window into an
// immutable WindowContext, runs each scheduled method on it as one
// stage (the stages of a window fan out over the pool; a zero-thread
// pool runs them inline, in method order), then scores, counts and
// publishes the window on the calling thread before it returns.  The
// estimates do not depend on the pool size — bitwise, the tests pin
// it — because each method's warm-start seed is its own solution of
// the previous window, and a window flush (routing-epoch rebind or
// routing fault) clears every method's warm slot, so the first window
// after a reroute always cold-starts.
//
// The routing epoch is pinned (shared_ptr) by the window being solved,
// so epoch-cache evictions — including those triggered by *other*
// engines sharing the cache in a fleet — can never destroy derived
// data a stage is still reading.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

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
    /// config.epoch_cache_capacity epochs.  Throws
    /// SchedulerConfigException for an empty or duplicated method list.
    OnlineEngine(const topology::Topology& topo,
                 const linalg::SparseMatrix& routing,
                 EngineConfig config = {},
                 std::shared_ptr<RoutingEpochCache> shared_cache = nullptr);

    OnlineEngine(const OnlineEngine&) = delete;
    OnlineEngine& operator=(const OnlineEngine&) = delete;

    /// Signals a routing change: subsequent samples are interpreted
    /// under `routing`.  The window flush and cache (in)validation
    /// happen on the next submit, driven by the content fingerprint —
    /// re-announcing a content-identical matrix keeps the epoch (and
    /// window) alive, merely rebinding internal pointers to the new
    /// object.  No window is being solved between calls, so the caller
    /// may free the previous object once this returns.
    void set_routing(const linalg::SparseMatrix& routing);

    const linalg::SparseMatrix& routing() const { return *routing_; }

    /// Ingests one load sample and runs the updated window's estimation
    /// pass.  `gap` flags a sample reconstructed by interpolation (lost
    /// polls).  Sample indices must be strictly increasing within a
    /// routing epoch.  The window is solved, scored, counted and
    /// published before this returns; the result is buffered for
    /// finish().
    void submit(std::size_t sample, linalg::Vector loads, bool gap = false);

    /// Returns the buffered results of every window submitted since the
    /// last finish(), in submission order, and clears the buffer (the
    /// engine keeps streaming afterwards).  Rethrows the first stage or
    /// sink exception since then, if any.
    std::vector<WindowResult> finish();

    /// submit() one sample and return its window (the window leaves
    /// the finish() buffer).  Rethrows the first stage or sink
    /// exception not yet rethrown.
    WindowResult ingest(std::size_t sample, linalg::Vector loads,
                        bool gap = false);

    /// Ingests interval `interval` of a telemetry store (objects are
    /// link ids).  Missing polls are linearly interpolated by the store
    /// and the sample is flagged as a gap.
    WindowResult ingest_interval(const telemetry::TimeSeriesStore& store,
                                 std::size_t interval);

    /// Submits every interval of a polling-simulation outcome and
    /// returns finish().
    std::vector<WindowResult> ingest_outcome(
        const telemetry::PollingOutcome& outcome);

    /// Attaches/detaches the ground-truth provider used to fill
    /// MethodRun::mre (pass an empty function to detach).  Read only by
    /// submit(), which captures the references a window is scored
    /// against.
    void set_truth(TruthProvider truth) { truth_ = std::move(truth); }

    /// The currently attached truth provider (empty when detached).
    const TruthProvider& truth() const { return truth_; }

    /// Attaches a window-completion sink, invoked once per window after
    /// metrics accumulation, on the thread that called submit() or
    /// ingest(), before that call returns.  A window whose stage failed
    /// is not published.  A sink exception is rethrown by ingest() /
    /// finish().  Pass an empty function to detach.
    void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }
    const WindowSink& window_sink() const { return sink_; }

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
    struct WindowJob;
    /// What one method carries from window to window.
    struct MethodState {
        /// Warm-start seed, in the method's own variable space: its
        /// state after the previous window of the current routing
        /// epoch.
        linalg::Vector warm;
        bool warm_valid = false;
        /// Last-good estimate for graceful degradation (scheduler.hpp);
        /// unlike the seed it survives window flushes (demand estimates
        /// do not depend on the routing).
        FallbackState last_good;
    };

    void bind_epoch();
    void flush_window();
    void run_stage(WindowJob& job, std::size_t method_index);
    void finalize(WindowJob& job);
    MethodState& state(Method m) {
        return method_states_[static_cast<std::size_t>(m)];
    }

    const topology::Topology* topo_;
    const linalg::SparseMatrix* routing_;
    EngineConfig config_;
    std::shared_ptr<RoutingEpochCache> cache_;
    /// Pins the bound epoch so a shared cache serving other engines can
    /// never destroy it under this engine's feet.
    std::shared_ptr<const RoutingEpoch> epoch_;
    SlidingWindow window_;
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
    std::size_t next_ordinal_ = 0;

    std::array<MethodState, method_count> method_states_;
    std::vector<WindowResult> results_;  ///< buffered for finish()
    std::exception_ptr first_error_;     ///< not yet rethrown
    ThreadPool pool_;
};

}  // namespace tme::engine
