// Online traffic-matrix estimation engine.
//
// Turns the repository's batch estimators into a streaming pipeline:
// link-load samples are ingested one 5-minute interval at a time (from
// raw vectors, a telemetry::TimeSeriesStore, or a simulated
// telemetry::PollingOutcome with gap handling for lost polls), appended
// into a ring-buffered sliding window, and re-estimated per window by a
// configurable set of methods running on a small thread pool.  Derived
// data that depends only on the routing matrix lives in a routing-epoch
// cache, one epoch per distinct routing content.  Whether a routing is
// new is decided once per announcement, in set_routing(): a matrix
// whose content differs from the pinned epoch's unpins the epoch and
// flushes the sliding window at once, because samples measured under
// different routing cannot share one estimation problem.
//
//   telemetry ──────> ingest ───────> SlidingWindow ─────────┐
//                                                            ├─> WindowContext
//   route_change ──> set_routing ──> pinned RoutingEpoch ────┘         │
//                    (content ==)    (acquired when unpinned)          v
//   sink <── WindowResult <──── per-method stages on the pool ─────────┘
//                 └──> EngineMetrics
//
// One window at a time: ingest() snapshots the window into an
// immutable WindowContext, runs each scheduled method on it as one
// stage (the stages of a window fan out over the pool; a zero-thread
// pool runs them inline, in method order), then scores, counts and
// publishes the window on the calling thread, and returns it.  The
// estimates do not depend on the pool size — bitwise, the tests pin
// it — because each method's warm-start seed is its own solution of
// the previous window, and a window flush (routing-epoch rebind or
// routing fault) clears every method's warm slot, so the first window
// after a reroute always cold-starts.
//
// The engine pins its routing epoch (shared_ptr) from the first sample
// under a routing until the next routing change, and never re-acquires
// it in between: epoch-cache evictions — including those triggered by
// *other* engines sharing the cache in a fleet — can neither destroy
// derived data a stage is still reading nor read as a routing change.
#pragma once

#include <array>
#include <cstdint>
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

    /// Announces the routing that subsequent samples are measured
    /// under; it must outlive its use, as the constructor's does.  The
    /// matrix is compared with the pinned epoch's copy: equal content
    /// keeps the epoch and the window, which is rebound to the new
    /// object before this returns; different content (or no epoch
    /// pinned yet) unpins the epoch and flushes the window and the
    /// warm-start slots, counting an epoch change when an epoch was
    /// pinned.  The next ingest acquires the new epoch from the cache.
    /// No window is being solved between calls, so the caller may free
    /// the previous object once this returns.
    void set_routing(const linalg::SparseMatrix& routing);

    const linalg::SparseMatrix& routing() const { return *routing_; }

    /// Ingests one load sample, runs the updated window's estimation
    /// pass and returns the window.  `gap` flags a sample reconstructed
    /// by interpolation (lost polls).  Sample indices must be strictly
    /// increasing within a routing epoch.  The window is solved,
    /// scored, counted and published before this returns.  A failed
    /// stage's exception (the first in method order) is rethrown here,
    /// and that window is neither scored, counted nor published; a
    /// sink exception is rethrown after the window was counted.  The
    /// engine keeps streaming after either.
    WindowResult ingest(std::size_t sample, linalg::Vector loads,
                        bool gap = false);

    /// Ingests interval `interval` of a telemetry store (objects are
    /// link ids).  Missing polls are linearly interpolated by the store
    /// and the sample is flagged as a gap.
    WindowResult ingest_interval(const telemetry::TimeSeriesStore& store,
                                 std::size_t interval);

    /// Ingests every interval of a polling-simulation outcome and
    /// returns the windows in order; stops at the first failing window
    /// and rethrows its exception.
    std::vector<WindowResult> ingest_outcome(
        const telemetry::PollingOutcome& outcome);

    /// Attaches/detaches the ground-truth provider used to fill
    /// MethodRun::mre (pass an empty function to detach).  Read only by
    /// ingest(), which captures the references a window is scored
    /// against.
    void set_truth(TruthProvider truth) { truth_ = std::move(truth); }

    /// The currently attached truth provider (empty when detached).
    const TruthProvider& truth() const { return truth_; }

    /// Attaches a window-completion sink, invoked once per window after
    /// metrics accumulation, on the thread that called ingest(), before
    /// that call returns.  A window whose stage failed is not
    /// published.  A sink exception is rethrown by ingest().  Pass an
    /// empty function to detach.
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
    /// Fingerprint of the pinned epoch; 0 before the first sample under
    /// the current routing.
    std::uint64_t current_epoch() const {
        return epoch_ != nullptr ? epoch_->fingerprint() : 0;
    }

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

    void flush_window();
    void run_stage(WindowJob& job, std::size_t method_index);
    WindowResult finalize(WindowJob& job);
    MethodState& state(Method m) {
        return method_states_[static_cast<std::size_t>(m)];
    }

    const topology::Topology* topo_;
    const linalg::SparseMatrix* routing_;
    EngineConfig config_;
    std::shared_ptr<RoutingEpochCache> cache_;
    /// The epoch of routing_, pinned from the first sample under it
    /// until set_routing() announces different content; null in
    /// between.  A shared cache serving other engines can never
    /// destroy it under this engine's feet.
    std::shared_ptr<const RoutingEpoch> epoch_;
    SlidingWindow window_;
    EngineMetrics metrics_;
    TruthProvider truth_;
    WindowSink sink_;

    std::size_t next_ordinal_ = 0;

    std::array<MethodState, method_count> method_states_;
    ThreadPool pool_;
};

}  // namespace tme::engine
