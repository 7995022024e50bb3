#include "engine/engine.hpp"

#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"
#include "engine/clock.hpp"
#include "fault/injection.hpp"
#include "obs/trace.hpp"

namespace tme::engine {

using Clock = SteadyClock;

namespace {

/// Injected measurement corruption — what a broken collector would ship
/// (one NaN load, one negated load, or a fully dropped poll) — followed
/// by the always-compiled sanitizer: non-finite or negative loads,
/// whether injected here or shipped by a real collector, must never
/// reach the solvers (NNLS and the QPs assume finite nonnegative b).
/// The offending loads are repaired to zero and the sample is flagged
/// as a gap so it is treated like a missed poll, not trusted data.
/// Returns whether the sanitizer repaired anything.
bool sanitize_loads(linalg::Vector& loads, bool& gap) {
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
    bool corrupt = false;
    for (double& v : loads) {
        if (!std::isfinite(v) || v < 0.0) {
            v = 0.0;
            corrupt = true;
        }
    }
    if (corrupt) gap = true;
    return corrupt;
}

/// Whether interval `interval` of a telemetry store had lost polls;
/// rejects a store whose objects are not the `links` link ids.
bool interval_gap(const telemetry::TimeSeriesStore& store,
                  std::size_t links, std::size_t interval) {
    if (store.objects() != links) {
        throw std::invalid_argument(
            "OnlineEngine: store object count must equal the link count");
    }
    return store.missing_count(interval) > 0;
}

}  // namespace

/// One window's trip through the engine.  Everything a stage reads is
/// immutable once ingest() has captured it; stage i writes only
/// runs[i] and errors[i].
struct OnlineEngine::WindowJob {
    WindowContext ctx;
    Clock::time_point start;
    bool scored = false;               ///< truth refs captured
    linalg::Vector truth_latest;       ///< reference for snapshot methods
    linalg::Vector truth_mean;         ///< reference for series methods
    std::vector<std::optional<MethodRun>> runs;  // per methods index
    std::vector<std::exception_ptr> errors;      // per methods index
};

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
      window_(&topo, &routing, config_.window_size),
      pool_(config_.threads) {
    const SchedulerConfigCheck check = validate_methods(config_.methods);
    if (!check) throw SchedulerConfigException(check);
    if (routing.rows() != topo.link_count() ||
        routing.cols() != topo.pair_count()) {
        throw std::invalid_argument(
            "OnlineEngine: routing does not match topology");
    }
    if (config_.min_series_window < 1) config_.min_series_window = 1;
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
    if (epoch_ != nullptr && epoch_->routing() == routing) {
        // Same epoch: keep the window, bound to the caller's current
        // object so it never dangles on one the caller may free.
        window_.rebind_routing(routing_);
        return;
    }
    if (epoch_ != nullptr) {
        ++metrics_.epoch_changes;
        if (!window_.empty()) ++metrics_.window_flushes;
        epoch_.reset();
    }
    // Samples measured under the previous routing cannot be mixed with
    // the new epoch.
    flush_window();
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
    if (epoch_ == nullptr) epoch_ = cache_->acquire_shared(*routing_);

    // Injected routing inconsistency: the capture would mix samples
    // measured under different routings, which is exactly the epoch
    // change hazard — handle it the same way (flush the window, retire
    // warm state) and tally it as a routing fault.
    if (fault::should_inject(fault::FaultSite::routing_inconsistency)) {
        ++metrics_.routing_faults;
        if (!window_.empty()) ++metrics_.window_flushes;
        flush_window();
    }
    if (sanitize_loads(loads, gap)) ++metrics_.corrupt_samples;

    window_.push(sample, std::move(loads), gap);
    ++metrics_.samples_ingested;
    if (gap) ++metrics_.gap_samples;

    WindowJob job;
    job.start = Clock::now();
    job.ctx = WindowContext::capture(window_, epoch_, config_.methods,
                                     config_.min_series_window,
                                     next_ordinal_++);
    job.runs.resize(config_.methods.size());
    job.errors.resize(config_.methods.size());

    // One stage per method; series methods wait for min_series_window.
    std::vector<std::function<void()>> stages;
    bool series_stage = false;
    for (std::size_t i = 0; i < config_.methods.size(); ++i) {
        const Method m = config_.methods[i];
        if (is_series_method(m) && !job.ctx.run_series) continue;
        series_stage = series_stage || is_series_method(m);
        stages.push_back([this, &job, i] { run_stage(job, i); });
    }
    // Truth references are captured while the window spans exactly
    // this job's samples.  Snapshot methods estimate the newest
    // sample's demands; series methods (Vardi, fanout) estimate the
    // window mean, so they are scored against the truth averaged over
    // the window's samples.
    if (truth_) {
        job.scored = true;
        job.truth_latest = truth_(sample);
        if (series_stage) {
            job.truth_mean.assign(job.truth_latest.size(), 0.0);
            for (std::size_t s : window_.sample_indices()) {
                const linalg::Vector t = truth_(s);
                for (std::size_t p = 0; p < job.truth_mean.size(); ++p) {
                    job.truth_mean[p] += t[p];
                }
            }
            const double inv_k =
                1.0 / static_cast<double>(window_.size());
            for (double& v : job.truth_mean) v *= inv_k;
        }
    }
    pool_.run_batch(std::move(stages));
    return finalize(job);
}

void OnlineEngine::flush_window() {
    window_.reset(routing_);
    for (MethodState& st : method_states_) st.warm_valid = false;
}

void OnlineEngine::run_stage(WindowJob& job, std::size_t method_index) {
    const Method m = config_.methods[method_index];
    MethodState& st = state(m);
    try {
        const linalg::Vector* seed =
            config_.warm_start && st.warm_valid ? &st.warm : nullptr;
        MethodExecution exec =
            execute_method_guarded(m, job.ctx, config_.method_options,
                                   seed, st.last_good, config_.warm_start,
                                   &pool_);
        if (config_.warm_start && exec.warm_next_valid) {
            st.warm = std::move(exec.warm_next);
            st.warm_valid = true;
        }
        job.runs[method_index] = std::move(exec.run);
    } catch (...) {
        job.errors[method_index] = std::current_exception();
    }
}

WindowResult OnlineEngine::finalize(WindowJob& job) {
    WindowResult result;
    result.window_start_sample = job.ctx.window_start_sample;
    result.window_end_sample = job.ctx.window_end_sample;
    result.window_size = job.ctx.window_size;
    result.epoch_fingerprint = job.ctx.epoch->fingerprint();
    result.seconds = seconds_since(job.start);
    record_kernel_stats(metrics_, pool_.kernel_stats());
    // Mirrored after the stages, which build the epoch's derived data
    // lazily.  Shared-cache caveat: under a fleet these are every
    // engine's acquires and builds, not just this one's.
    metrics_.cache_hits = cache_->hits();
    metrics_.cache_misses = cache_->misses();
    metrics_.cache_evictions = cache_->evictions();
    metrics_.epoch_build_latency = cache_->build_latency();
    // A window with a failed stage is neither scored, counted nor
    // published; its first failure is rethrown to the caller.
    for (const std::exception_ptr& error : job.errors) {
        if (error) std::rethrow_exception(error);
    }
    for (std::optional<MethodRun>& maybe : job.runs) {
        if (!maybe.has_value()) continue;
        MethodRun& run = *maybe;
        if (job.scored) {
            const linalg::Vector& reference = is_series_method(run.method)
                                                  ? job.truth_mean
                                                  : job.truth_latest;
            // An all-quiet truth window (no demand above the coverage
            // threshold) has no defined MRE; score it as NaN.
            if (linalg::sum(reference) > 0.0) {
                run.mre =
                    core::mre_at_coverage(reference, run.estimate, 0.9);
            } else {
                ++metrics_.mre_skipped_runs;
            }
        }
        MethodStats& stats = metrics_.methods.find(run.method)->second;
        if (run.warm_started) ++stats.warm_runs;
        if (run.warm_accepted) ++stats.warm_accepted_runs;
        stats.last_seconds = run.seconds;
        stats.latency.record(run.seconds);
        stats.solver.add(run.solver);
        record_run_quality(metrics_, run, result.window_end_sample);
        if (!std::isnan(run.mre)) {
            // Skipped (all-quiet) windows stay out of the MRE average.
            stats.last_mre = run.mre;
            stats.mre_sum += run.mre;
            ++stats.mre_count;
        }
        result.runs.push_back(std::move(run));
    }
    metrics_.last_window_seconds = result.seconds;
    metrics_.window_latency.record(result.seconds);
    if (sink_) sink_(result);
    return result;
}

WindowResult OnlineEngine::ingest_interval(
    const telemetry::TimeSeriesStore& store, std::size_t interval) {
    const bool gap = interval_gap(store, routing_->rows(), interval);
    return ingest(interval, store.snapshot(interval), gap);
}

std::vector<WindowResult> OnlineEngine::ingest_outcome(
    const telemetry::PollingOutcome& outcome) {
    std::vector<WindowResult> results;
    for (std::size_t k = 0; k < outcome.store.intervals(); ++k) {
        results.push_back(ingest_interval(outcome.store, k));
    }
    return results;
}

}  // namespace tme::engine
