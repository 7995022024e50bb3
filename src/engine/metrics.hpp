// Engine observability: per-window latency, routing-epoch cache
// statistics, gap bookkeeping, and estimation error against ground
// truth when the feeding scenario provides it.
//
// All counters are relaxed atomics wrapped so the structs stay
// copyable snapshot types: a fleet driver or progress reporter may poll
// an engine's metrics while its worker threads are still updating them,
// and must never observe a torn value.  The per-method map is
// pre-populated by the engine at construction (one entry per scheduled
// method), so its structure never changes while workers update the
// atomic fields inside — concurrent iteration is safe.
//
// Latency is tracked two ways per method: the legacy mean/last fields
// (cheap, used by summary lines and existing tests) and an HDR-style
// obs::LatencyHistogram giving p50/p95/p99/max.  Solver iteration
// totals (QP active-set rounds, CG iterations, entropy Armijo probes,
// MART sweeps, NNLS pivots) accumulate per method in SolverCounterCells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/method.hpp"
#include "engine/thread_pool.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metric_cell.hpp"

namespace tme::engine {

/// Relaxed atomic cell that copies by value (see obs/metric_cell.hpp).
/// Re-exported here because engine code predates src/obs/.
using obs::MetricCell;

struct MethodStats {
    MetricCell<std::size_t> runs;
    MetricCell<std::size_t> warm_runs;
    /// Runs whose warm-start seed survived verification (the fanout
    /// QP can reject an inconsistent seed and fall back to a cold
    /// solve; for the other methods this tracks warm_runs).
    MetricCell<std::size_t> warm_accepted_runs;
    MetricCell<double> total_seconds{0.0};
    MetricCell<double> last_seconds{0.0};
    /// Worst-case run latency (monotone fetch_max — survives where
    /// last_seconds is overwritten every window).
    MetricCell<double> max_seconds{0.0};
    MetricCell<double> last_mre{std::numeric_limits<double>::quiet_NaN()};
    MetricCell<double> mre_sum{0.0};
    MetricCell<std::size_t> mre_count;
    /// Full latency distribution (p50/p95/p99 via latency.snapshot()).
    obs::LatencyHistogram latency;
    /// Solver iteration totals attributed to this method's runs.
    obs::SolverCounterCells solver;
    /// Graceful-degradation tallies (engine/method.hpp quality levels):
    /// degraded = budget-cut or fallback-served windows, stale =
    /// last-good carry-forwards, failed = all-zero placeholder windows.
    /// fallback_runs counts the degraded subset served by another
    /// method.  All zero on a healthy stream.
    MetricCell<std::size_t> degraded_runs;
    MetricCell<std::size_t> stale_runs;
    MetricCell<std::size_t> failed_runs;
    MetricCell<std::size_t> fallback_runs;
    /// Runs whose own solve was cut by the SolveBudget deadline.
    MetricCell<std::size_t> budget_exhausted_runs;
    /// Runs stopped by a configured iteration cap (solve_outcome ==
    /// iteration_capped).  Still served as exact.
    MetricCell<std::size_t> capped_runs;

    double mean_seconds() const {
        const std::size_t n = runs.load();
        return n > 0 ? total_seconds.load() / static_cast<double>(n) : 0.0;
    }
    double mean_mre() const {
        const std::size_t n = mre_count.load();
        return n > 0 ? mre_sum.load() / static_cast<double>(n)
                     : std::numeric_limits<double>::quiet_NaN();
    }
};

/// One degradation event: which window, which method, what quality the
/// served estimate ended up with, and why.  Produced by the engines
/// from MethodRun quality flags at metrics-update time (single writer),
/// stored in the bounded DegradationLog below.
struct DegradationRecord {
    std::size_t window_end_sample = 0;
    Method method = Method::gravity;
    EstimateQuality quality = EstimateQuality::degraded;
    /// The method that actually produced the served estimate (equals
    /// `method` unless a fallback ran).
    Method fallback_method = Method::gravity;
    bool used_fallback = false;
    std::size_t stale_age = 0;  ///< windows old, for quality == stale
    std::string reason;
};

/// Bounded, internally-synchronized log of degradation events.  Push
/// happens from the engines' (serialized) metrics-update points;
/// snapshot/copy may race with pushes (the metrics-stress readers copy
/// EngineMetrics mid-stream), hence the mutex.  Once kCapacity records
/// are held further pushes only bump dropped() — the counters above
/// stay exact, only per-event detail is shed.
class DegradationLog {
  public:
    static constexpr std::size_t kCapacity = 256;

    DegradationLog() = default;
    DegradationLog(const DegradationLog& other) {
        std::lock_guard<std::mutex> lock(other.mutex_);
        records_ = other.records_;
        dropped_ = other.dropped_;
    }
    DegradationLog& operator=(const DegradationLog& other) {
        if (this == &other) return *this;
        std::vector<DegradationRecord> copy;
        std::size_t dropped = 0;
        {
            std::lock_guard<std::mutex> lock(other.mutex_);
            copy = other.records_;
            dropped = other.dropped_;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        records_ = std::move(copy);
        dropped_ = dropped;
        return *this;
    }

    void push(DegradationRecord record) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (records_.size() < kCapacity) {
            records_.push_back(std::move(record));
        } else {
            ++dropped_;
        }
    }
    std::vector<DegradationRecord> snapshot() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return records_;
    }
    std::size_t size() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return records_.size();
    }
    std::size_t dropped() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return dropped_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<DegradationRecord> records_;
    std::size_t dropped_ = 0;
};

struct EngineMetrics {
    MetricCell<std::size_t> samples_ingested;
    MetricCell<std::size_t> gap_samples;   ///< samples flagged as interpolated
    MetricCell<std::size_t> windows_run;
    MetricCell<std::size_t> window_flushes;  ///< windows dropped on epoch change
    MetricCell<std::size_t> epoch_changes;   ///< routing fingerprint transitions
    /// Epoch-cache statistics.  NOTE: these snapshot the engine's
    /// cache, which under a fleet is the SHARED cache — they are then
    /// fleet-wide totals, not this engine's share (FleetReport carries
    /// the authoritative shared numbers once).
    MetricCell<std::size_t> cache_hits;
    MetricCell<std::size_t> cache_misses;
    MetricCell<std::size_t> cache_evictions;
    /// Fingerprint hits rejected by the structural-identity check.
    MetricCell<std::size_t> cache_collisions;
    /// Method runs skipped by MRE scoring because the truth reference
    /// carried no traffic at all (all-quiet window).
    MetricCell<std::size_t> mre_skipped_runs;
    /// Engine-wide degradation tallies (sums of the per-method ones).
    MetricCell<std::size_t> degraded_runs;
    MetricCell<std::size_t> stale_runs;
    MetricCell<std::size_t> failed_runs;
    MetricCell<std::size_t> budget_exhausted_runs;
    /// Engine-wide sum of the per-method capped_runs.
    MetricCell<std::size_t> capped_runs;
    /// Samples whose loads arrived non-finite or negative and were
    /// repaired (zeroed + flagged as a gap) by the ingest sanitizer.
    MetricCell<std::size_t> corrupt_samples;
    /// Routing-inconsistency events (injected or detected): the window
    /// is flushed, as on an epoch change.
    MetricCell<std::size_t> routing_faults;
    /// Kernel regions (operator applies) run on the engine's pool, those
    /// offered to spinning workers, and the blocks helper workers ran:
    /// the pool's cumulative ThreadPool::KernelStats, folded in after
    /// every window.  The last two stay 0 with threads = 0.
    MetricCell<std::size_t> kernel_regions;
    MetricCell<std::size_t> kernel_regions_shared;
    MetricCell<std::size_t> kernel_helper_blocks;
    /// Bounded per-event detail for the tallies above.
    DegradationLog degradation;
    MetricCell<double> total_seconds{0.0};  ///< window walls, summed
    MetricCell<double> last_window_seconds{0.0};
    /// End-to-end window latency distribution (same samples that feed
    /// total_seconds / last_window_seconds).
    obs::LatencyHistogram window_latency;
    /// Routing-epoch derived-data build times (routing transpose,
    /// fanout constraints) observed via this engine's cache —
    /// shared-cache caveat above applies.
    obs::LatencyHistogram epoch_build_latency;
    /// Pre-populated by the engine for every scheduled method; the map
    /// structure is immutable afterwards (only the atomic fields move).
    std::map<Method, MethodStats> methods;

    double cache_hit_rate() const {
        const std::size_t h = cache_hits.load();
        const std::size_t total = h + cache_misses.load();
        return total > 0
                   ? static_cast<double>(h) / static_cast<double>(total)
                   : 0.0;
    }

    /// Multi-line human-readable dump.
    std::string summary() const;

    /// Structured export mirroring summary(): engine-level counters,
    /// latency histograms, and a per-method object with runs/latency
    /// percentiles/solver iteration counters.
    obs::Json to_json() const;
};

struct MethodRun;  // scheduler.hpp

/// Folds one run's quality flags into the per-method and engine-wide
/// degradation counters, appending a DegradationRecord for every
/// non-exact run.  Called from the engine's window finalize.
void record_run_quality(EngineMetrics& metrics, const MethodRun& run,
                        std::size_t window_end_sample);

/// Folds a pool's cumulative kernel-region counters into the kernel_*
/// cells.  Monotone (fetch_max), so concurrent window finalizes never
/// move a cell backwards.
void record_kernel_stats(EngineMetrics& metrics,
                         const ThreadPool::KernelStats& stats);

}  // namespace tme::engine
