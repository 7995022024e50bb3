#include "engine/engine.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metrics.hpp"
#include "fault/injection.hpp"
#include "obs/trace.hpp"

namespace tme::engine {

OnlineEngine::OnlineEngine(const topology::Topology& topo,
                           const linalg::SparseMatrix& routing,
                           EngineConfig config,
                           std::shared_ptr<RoutingEpochCache> shared_cache)
    : topo_(&topo),
      routing_(&routing),
      config_(std::move(config)),
      cache_(shared_cache != nullptr
                 ? std::move(shared_cache)
                 : std::make_shared<RoutingEpochCache>(
                       config_.epoch_cache_capacity)),
      window_(&topo, &routing, config_.window_size,
              schedules(config_.methods, Method::vardi)),
      scheduler_(config_.methods, config_.method_options, config_.threads,
                 config_.warm_start, config_.min_series_window) {
    if (routing.rows() != topo.link_count() ||
        routing.cols() != topo.pair_count()) {
        throw std::invalid_argument(
            "OnlineEngine: routing does not match topology");
    }
    // Pre-populate the per-method stats so the map structure never
    // changes after construction — concurrent metric readers may then
    // iterate it while ingestion updates the atomic fields inside.
    for (Method m : config_.methods) metrics_.methods[m];
}

void OnlineEngine::set_routing(const linalg::SparseMatrix& routing) {
    if (routing.rows() != topo_->link_count() ||
        routing.cols() != topo_->pair_count()) {
        throw std::invalid_argument(
            "OnlineEngine::set_routing: routing does not match topology");
    }
    routing_ = &routing;
}

WindowResult OnlineEngine::ingest(std::size_t sample, linalg::Vector loads,
                                  bool gap) {
    obs::Span span("engine/ingest", "sample",
                   static_cast<long long>(sample));
    // Injected allocation failure at the ingest boundary: unlike the
    // guarded per-method probe this one is NOT caught anywhere in the
    // engine, so it models a job-killing crash (the fleet driver's
    // quarantine path is what contains it).
    if (fault::should_inject(fault::FaultSite::alloc_failure, "ingest")) {
        throw std::bad_alloc();
    }
    epoch_ = cache_->acquire_shared(*routing_);
    const RoutingEpoch& epoch = *epoch_;
    // Epoch identity is the cache serial, not the bare fingerprint: a
    // fingerprint collision between two distinct routing matrices gets
    // separate cache entries (structural check) and must ALSO flush
    // the window here, or samples measured under different routings
    // would share one estimation problem.  One exception keeps a
    // shared cache's eviction churn from perturbing this engine: a
    // fresh serial whose fingerprint AND structure match the bound
    // epoch is the same routing content rebuilt after an eviction
    // (another fleet engine's traffic) — the window stays, to the same
    // collision-risk standard the cache itself applies on a hit.
    const bool rebuilt_same_content =
        epoch_bound_ && epoch.fingerprint() == window_epoch_ &&
        epoch.rows() == window_epoch_rows_ &&
        epoch.cols() == window_epoch_cols_ &&
        epoch.nonzeros() == window_epoch_nnz_;
    if (!epoch_bound_ || (epoch.serial() != window_epoch_serial_ &&
                          !rebuilt_same_content)) {
        if (epoch_bound_) {
            ++metrics_.epoch_changes;
            if (!window_.empty()) ++metrics_.window_flushes;
        }
        // Samples measured under the previous routing cannot be mixed
        // with the new epoch; flush the window and drop warm starts so
        // no stale-epoch state can leak into the next estimate.
        window_.reset(routing_);
        scheduler_.reset_warm_state();
        window_epoch_ = epoch.fingerprint();
        window_epoch_serial_ = epoch.serial();
        window_epoch_rows_ = epoch.rows();
        window_epoch_cols_ = epoch.cols();
        window_epoch_nnz_ = epoch.nonzeros();
        epoch_bound_ = true;
    } else {
        // Same epoch (possibly rebuilt): track the live serial and keep
        // the window bound to the caller's current matrix object so it
        // never dangles on one the caller has replaced and may free.
        window_epoch_serial_ = epoch.serial();
        if (window_.series().routing != routing_) {
            window_.rebind_routing(routing_);
        }
    }

    // Injected routing inconsistency: the capture would mix samples
    // measured under different routings, which is exactly the epoch
    // change hazard — handle it the same way (flush the window, drop
    // warm state) and tally it as a routing fault.
    if (fault::should_inject(fault::FaultSite::routing_inconsistency)) {
        ++metrics_.routing_faults;
        if (!window_.empty()) ++metrics_.window_flushes;
        window_.reset(routing_);
        scheduler_.reset_warm_state();
    }

    // Injected measurement corruption: what a broken collector would
    // ship (one NaN load, one negated load, or a fully dropped poll).
    if (!loads.empty()) {
        if (fault::should_inject(fault::FaultSite::measurement_nan)) {
            loads[fault::draw(fault::FaultSite::measurement_nan) %
                  loads.size()] =
                std::numeric_limits<double>::quiet_NaN();
        }
        if (fault::should_inject(fault::FaultSite::measurement_negative)) {
            double& v = loads[fault::draw(
                                  fault::FaultSite::measurement_negative) %
                              loads.size()];
            v = v != 0.0 ? -v : -1.0;
        }
        if (fault::should_inject(fault::FaultSite::measurement_drop)) {
            loads.assign(loads.size(), 0.0);
            gap = true;
        }
    }
    // Always-compiled sanitizer: non-finite or negative loads — whether
    // injected above or shipped by a real collector — must never reach
    // the solvers (NNLS and the QPs assume finite nonnegative b).  The
    // offending loads are repaired to zero and the sample is flagged as
    // a gap so it is treated like a missed poll, not trusted data.
    bool corrupt = false;
    for (double& v : loads) {
        if (!std::isfinite(v) || v < 0.0) {
            v = 0.0;
            corrupt = true;
        }
    }
    if (corrupt) {
        ++metrics_.corrupt_samples;
        gap = true;
    }

    window_.push(sample, std::move(loads), gap);
    ++metrics_.samples_ingested;
    if (gap) ++metrics_.gap_samples;
    metrics_.cache_hits = cache_->hits();
    metrics_.cache_misses = cache_->misses();
    metrics_.cache_evictions = cache_->evictions();
    metrics_.cache_collisions = cache_->collisions();
    // Shared-cache caveat as above: under a fleet these are the build
    // times every engine triggered, not just this one's.
    metrics_.epoch_build_latency = cache_->build_latency();

    WindowResult result = scheduler_.run(window_, epoch_);
    record_kernel_stats(metrics_, scheduler_.kernel_stats());

    if (truth_) {
        // Snapshot methods estimate the newest sample's demands; series
        // methods (Vardi, fanout) estimate the window mean, so they are
        // scored against the truth averaged over the window's samples.
        const linalg::Vector truth_now = truth_(sample);
        linalg::Vector truth_mean;
        for (MethodRun& run : result.runs) {
            const linalg::Vector* reference = &truth_now;
            if (is_series_method(run.method)) {
                if (truth_mean.empty()) {
                    truth_mean.assign(truth_now.size(), 0.0);
                    for (std::size_t s : window_.sample_indices()) {
                        const linalg::Vector t = truth_(s);
                        for (std::size_t p = 0; p < truth_mean.size();
                             ++p) {
                            truth_mean[p] += t[p];
                        }
                    }
                    const double inv_k =
                        1.0 / static_cast<double>(window_.size());
                    for (double& v : truth_mean) v *= inv_k;
                }
                reference = &truth_mean;
            }
            // An all-quiet truth window (no demand above the coverage
            // threshold) has no defined MRE; score it as NaN instead of
            // letting the metric throw out of the scheduler loop.
            if (linalg::sum(*reference) > 0.0) {
                run.mre =
                    core::mre_at_coverage(*reference, run.estimate, 0.9);
            } else {
                ++metrics_.mre_skipped_runs;
            }
        }
    }

    ++metrics_.windows_run;
    metrics_.total_seconds += result.seconds;
    metrics_.last_window_seconds = result.seconds;
    metrics_.window_latency.record(result.seconds);
    for (const MethodRun& run : result.runs) {
        MethodStats& stats = metrics_.methods[run.method];
        ++stats.runs;
        if (run.warm_started) ++stats.warm_runs;
        if (run.warm_accepted) ++stats.warm_accepted_runs;
        stats.total_seconds += run.seconds;
        stats.last_seconds = run.seconds;
        stats.max_seconds.fetch_max(run.seconds);
        stats.latency.record(run.seconds);
        stats.solver.add(run.solver);
        record_run_quality(metrics_, run, result.window_end_sample);
        if (truth_ && !std::isnan(run.mre)) {
            // Skipped (all-quiet) windows stay out of the MRE average.
            stats.last_mre = run.mre;
            stats.mre_sum += run.mre;
            ++stats.mre_count;
        }
    }
    if (sink_) sink_(result);
    return result;
}

WindowResult OnlineEngine::ingest_interval(
    const telemetry::TimeSeriesStore& store, std::size_t interval) {
    if (store.objects() != routing_->rows()) {
        throw std::invalid_argument(
            "OnlineEngine::ingest_interval: store object count must equal "
            "the link count");
    }
    const bool gap = store.missing_count(interval) > 0;
    return ingest(interval, store.snapshot(interval), gap);
}

std::vector<WindowResult> OnlineEngine::ingest_outcome(
    const telemetry::PollingOutcome& outcome) {
    std::vector<WindowResult> results;
    results.reserve(outcome.store.intervals());
    for (std::size_t k = 0; k < outcome.store.intervals(); ++k) {
        results.push_back(ingest_interval(outcome.store, k));
    }
    return results;
}

}  // namespace tme::engine
