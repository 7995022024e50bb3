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
//   sink <── WindowResult <──── per-method lineages on the pool ──┘
//                 └──> EngineMetrics
//
// Every window is snapshotted into an immutable WindowContext and each
// scheduled method runs it as one stage.  Three rules keep the result
// independent of how many windows overlap (EngineConfig::pipeline_depth)
// and of the pool size — bitwise, the tests pin it:
//
//   * per-method lineages — each method's windows execute strictly in
//     window order on a private FIFO, so warm-start state flows
//     window -> next window, and an out-of-order completion of one
//     method can never seed another window's solve with a stale
//     estimate;
//   * warm generation tags — every routing-epoch rebind bumps a
//     generation counter and lineage warm state is tagged with it, so
//     a window after a reroute always cold-starts, even while in-flight
//     windows of the old epoch are still completing;
//   * bounded depth — at most pipeline_depth windows are in flight;
//     submit() blocks (backpressure) instead of queueing without limit.
//     Depth 1 (the default) finishes and publishes each window on the
//     submitting thread before submit() returns; a zero-thread pool
//     runs every stage inline.
//
// The routing epoch is pinned (shared_ptr) by every in-flight window,
// so epoch-cache evictions — including those triggered by *other*
// engines sharing the cache in a fleet — can never destroy derived
// data a stage is still reading.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
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
    /// Maximum windows in flight (>= 1).  1 runs each window to
    /// completion inside submit(); small depths (2-4) hide the
    /// expensive series methods behind the next windows' cheap ones.
    /// Overlap needs threads > 0.
    std::size_t pipeline_depth = 1;
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

    /// Drains all in-flight windows before destruction.
    ~OnlineEngine();

    OnlineEngine(const OnlineEngine&) = delete;
    OnlineEngine& operator=(const OnlineEngine&) = delete;

    /// Signals a routing change: subsequent samples are interpreted
    /// under `routing`.  The window flush and cache (in)validation
    /// happen on the next submit, driven by the content fingerprint —
    /// re-announcing a content-identical matrix keeps the epoch (and
    /// window) alive, merely rebinding internal pointers to the new
    /// object.  Swapping to a different matrix object drains the
    /// in-flight windows first (they alias the current object, which
    /// the caller may free once this returns).
    void set_routing(const linalg::SparseMatrix& routing);

    const linalg::SparseMatrix& routing() const { return *routing_; }

    /// Ingests one load sample and dispatches the updated window's
    /// estimation pass.  `gap` flags a sample reconstructed by
    /// interpolation (lost polls).  Sample indices must be strictly
    /// increasing within a routing epoch.  Blocks while pipeline_depth
    /// windows are already in flight; at depth 1 the window is
    /// finished, scored, counted and published before this returns.
    /// The result is buffered for finish().
    void submit(std::size_t sample, linalg::Vector loads, bool gap = false);

    /// Blocks until every submitted window has completed; returns their
    /// results in submission order and clears the buffer (the engine
    /// keeps streaming afterwards).  Rethrows the first stage or sink
    /// exception, if any.
    std::vector<WindowResult> finish();

    /// submit() one sample, wait for its window and return it (the
    /// window leaves the finish() buffer).  Rethrows a stage or sink
    /// exception of any window it waited for.
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
    /// metrics accumulation, strictly in submission order, one call at
    /// a time.  At depth 1 it runs on the thread that called submit()
    /// or ingest(), before that call returns; at greater depths on the
    /// pool worker that completes the window.  A window whose stage
    /// failed is not published.  A sink exception is rethrown by
    /// ingest() / finish().  Pass an empty function to detach; must not
    /// be called while windows are in flight.
    void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }
    const WindowSink& window_sink() const { return sink_; }

    /// Live metrics.  Counters are atomics and the per-method map is
    /// pre-populated at construction, so reading (or copying) the
    /// metrics concurrently with ingestion is safe and torn-free.
    /// windows_run lags samples_ingested by the windows in flight;
    /// total_seconds sums overlapping window walls at depth > 1.
    const EngineMetrics& metrics() const { return metrics_; }
    const SlidingWindow& window() const { return window_; }
    const std::shared_ptr<RoutingEpochCache>& cache() const {
        return cache_;
    }
    std::uint64_t current_epoch() const { return window_epoch_; }

    /// High-water mark of windows simultaneously in flight (<= depth).
    std::size_t max_in_flight() const;

  private:
    struct WindowJob;
    struct Lineage;

    void bind_epoch();
    void enqueue_stage(Lineage& lineage, std::shared_ptr<WindowJob> job,
                       std::size_t method_index);
    void drain_lineage(Lineage& lineage);
    void run_stage(Lineage& lineage, WindowJob& job,
                   std::size_t method_index);
    void finalize(WindowJob& job);
    void flush_completed();
    void wait_drained(std::unique_lock<std::mutex>& lock);
    Lineage& lineage(Method m);

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
    /// Bumped on every window flush; lineage warm state carrying an
    /// older generation is never used as a seed.
    std::uint64_t generation_ = 0;
    std::size_t next_ordinal_ = 0;

    std::unique_ptr<Lineage[]> lineages_;  // indexed by Method

    mutable std::mutex state_mutex_;
    std::condition_variable state_cv_;
    std::size_t in_flight_ = 0;
    std::size_t submitted_ = 0;
    std::size_t completed_ = 0;
    std::size_t max_in_flight_ = 0;
    std::deque<std::shared_ptr<WindowJob>> jobs_;  // submission order
    std::exception_ptr first_error_;
    /// Completion-flush cursor into jobs_: windows below it have been
    /// handed to the sink (or skipped past, when none is attached).
    /// Guarded by state_mutex_; the flush itself serializes on
    /// publish_mutex_ (ordered: publish_mutex_ -> state_mutex_).
    std::size_t next_publish_ = 0;
    std::mutex publish_mutex_;

    /// Declared last on purpose: the pool is destroyed FIRST, joining
    /// every worker (a drainer's final empty-check included) while the
    /// lineages and state mutex above are still alive.
    ThreadPool pool_;
};

}  // namespace tme::engine
