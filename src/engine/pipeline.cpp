#include "engine/pipeline.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
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

/// One window's trip through the pipeline.  Everything a stage reads is
/// immutable after submit(); stages write only their own runs_ slot and
/// the atomic remaining_ counter, whose final decrement hands the job
/// to finalize().
struct PipelinedEngine::WindowJob {
    WindowContext ctx;
    std::uint64_t generation = 0;  ///< warm-lineage generation at submit
    Clock::time_point start;
    bool scored = false;               ///< truth refs captured
    linalg::Vector truth_latest;       ///< reference for snapshot methods
    linalg::Vector truth_mean;         ///< reference for series methods
    std::vector<std::optional<MethodRun>> runs;  // per methods_ index
    std::atomic<std::size_t> remaining{0};
    WindowResult result;  ///< assembled by finalize()
    bool done = false;    ///< finalized (guarded by state_mutex_)
};

/// Per-method execution lane.  Stages for one method run strictly in
/// window order: enqueue_stage() appends under the lane mutex and at
/// most one drainer loops over the FIFO at a time, so the warm-start
/// fields are only ever touched by the active drainer (successive
/// drainers are ordered by the same mutex).
struct PipelinedEngine::Lineage {
    std::mutex mutex;
    std::deque<std::pair<std::shared_ptr<WindowJob>, std::size_t>> queue;
    bool running = false;
    // Warm-start state, in the method's own variable space.
    linalg::Vector warm;
    bool warm_valid = false;
    std::uint64_t warm_generation = 0;
    // Last-good estimate for graceful degradation (scheduler.hpp).
    // Touched only by the lane's active drainer, like the warm fields;
    // unlike them it survives routing rebinds (demand estimates do not
    // depend on the routing).
    FallbackState last_good;
};

PipelinedEngine::PipelinedEngine(
    const topology::Topology& topo, const linalg::SparseMatrix& routing,
    EngineConfig config, PipelineOptions pipeline,
    std::shared_ptr<RoutingEpochCache> shared_cache)
    : topo_(&topo),
      routing_(&routing),
      config_(std::move(config)),
      depth_(pipeline.depth < 1 ? 1 : pipeline.depth),
      cache_(shared_cache != nullptr
                 ? std::move(shared_cache)
                 : std::make_shared<RoutingEpochCache>(
                       config_.epoch_cache_capacity)),
      window_(&topo, &routing, config_.window_size,
              schedules(config_.methods, Method::vardi)),
      lineages_(std::make_unique<Lineage[]>(method_count)),
      pool_(config_.threads) {
    if (routing.rows() != topo.link_count() ||
        routing.cols() != topo.pair_count()) {
        throw std::invalid_argument(
            "PipelinedEngine: routing does not match topology");
    }
    const SchedulerConfigCheck check =
        EstimatorScheduler::validate_methods(config_.methods);
    if (!check) throw SchedulerConfigException(check);
    if (config_.min_series_window < 1) config_.min_series_window = 1;
    for (Method m : config_.methods) metrics_.methods[m];
}

PipelinedEngine::Lineage& PipelinedEngine::lineage(Method m) {
    return lineages_[static_cast<std::size_t>(m)];
}

PipelinedEngine::~PipelinedEngine() {
    // Drain without rethrowing: a stage failure during unwind must not
    // terminate().
    std::unique_lock<std::mutex> lock(state_mutex_);
    state_cv_.wait(lock, [this] { return completed_ == submitted_; });
}

void PipelinedEngine::set_routing(const linalg::SparseMatrix& routing) {
    if (routing.rows() != topo_->link_count() ||
        routing.cols() != topo_->pair_count()) {
        throw std::invalid_argument(
            "PipelinedEngine::set_routing: routing does not match "
            "topology");
    }
    if (&routing == routing_) return;
    // In-flight windows alias the current matrix through their captured
    // SeriesProblem, and the caller is free to destroy it the moment
    // this returns (e.g. replacing a content-identical object).  Drain
    // the pipeline first so no stage can dangle; routing changes are
    // rare (a handful per day), so the barrier costs next to nothing.
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        state_cv_.wait(lock, [this] { return completed_ == submitted_; });
    }
    routing_ = &routing;
}

std::size_t PipelinedEngine::max_in_flight() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return max_in_flight_;
}

void PipelinedEngine::submit(std::size_t sample, linalg::Vector loads,
                             bool gap) {
    obs::Span span("pipeline/submit", "sample",
                   static_cast<long long>(sample));
    // Uncaught by design — models a job-killing crash; see
    // OnlineEngine::ingest.
    if (fault::should_inject(fault::FaultSite::alloc_failure, "ingest")) {
        throw std::bad_alloc();
    }
    // Same epoch/flush protocol as OnlineEngine::ingest (see there for
    // the serial-vs-fingerprint rationale, including the rebuilt-
    // same-content exception for shared-cache eviction churn);
    // additionally every epoch change bumps generation_ so in-flight
    // warm state of the old epoch is retired without waiting for it.
    epoch_ = cache_->acquire_shared(*routing_);
    const bool rebuilt_same_content =
        epoch_bound_ && epoch_->fingerprint() == window_epoch_ &&
        epoch_->rows() == window_epoch_rows_ &&
        epoch_->cols() == window_epoch_cols_ &&
        epoch_->nonzeros() == window_epoch_nnz_;
    if (!epoch_bound_ || (epoch_->serial() != window_epoch_serial_ &&
                          !rebuilt_same_content)) {
        if (epoch_bound_) {
            ++metrics_.epoch_changes;
            if (!window_.empty()) ++metrics_.window_flushes;
        }
        window_.reset(routing_);
        ++generation_;
        window_epoch_ = epoch_->fingerprint();
        window_epoch_serial_ = epoch_->serial();
        window_epoch_rows_ = epoch_->rows();
        window_epoch_cols_ = epoch_->cols();
        window_epoch_nnz_ = epoch_->nonzeros();
        epoch_bound_ = true;
    } else {
        window_epoch_serial_ = epoch_->serial();
        if (window_.series().routing != routing_) {
            window_.rebind_routing(routing_);
        }
    }

    // Fault probes + always-compiled sanitizer, identical to
    // OnlineEngine::ingest (see there for the semantics).
    if (fault::should_inject(fault::FaultSite::routing_inconsistency)) {
        ++metrics_.routing_faults;
        if (!window_.empty()) ++metrics_.window_flushes;
        window_.reset(routing_);
        ++generation_;
    }
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
    // Shared-cache caveat as in OnlineEngine::ingest: under a fleet
    // these are every engine's builds, not just this one's.
    metrics_.epoch_build_latency = cache_->build_latency();

    // Everything that can throw (snapshotting, the user-supplied truth
    // provider) runs BEFORE pipeline admission: an exception here must
    // propagate without leaking an in-flight slot, or finish() and the
    // destructor would wait forever.
    auto job = std::make_shared<WindowJob>();
    job->start = Clock::now();
    job->ctx = WindowContext::capture(window_, epoch_, config_.methods,
                                      config_.min_series_window,
                                      next_ordinal_++);
    job->generation = generation_;

    // Truth references are captured now, while the window still spans
    // exactly this job's samples (the serial engine scores at the same
    // point in the stream).
    if (truth_) {
        job->scored = true;
        job->truth_latest = truth_(sample);
        bool need_series_truth = false;
        for (Method m : config_.methods) {
            if (is_series_method(m) && job->ctx.run_series) {
                need_series_truth = true;
            }
        }
        if (need_series_truth) {
            job->truth_mean.assign(job->truth_latest.size(), 0.0);
            for (std::size_t s : window_.sample_indices()) {
                const linalg::Vector t = truth_(s);
                for (std::size_t p = 0; p < job->truth_mean.size(); ++p) {
                    job->truth_mean[p] += t[p];
                }
            }
            const double inv_k =
                1.0 / static_cast<double>(window_.size());
            for (double& v : job->truth_mean) v *= inv_k;
        }
    }

    job->runs.resize(config_.methods.size());
    std::size_t stages = 0;
    for (Method m : config_.methods) {
        if (is_series_method(m) && !job->ctx.run_series) continue;
        ++stages;
    }
    job->remaining.store(stages, std::memory_order_relaxed);

    // Backpressure: admit the window only when a pipeline slot frees
    // up.  Nothing below this point throws.
    {
        obs::Span wait_span("pipeline/backpressure_wait");
        const Clock::time_point wait_start = Clock::now();
        std::unique_lock<std::mutex> lock(state_mutex_);
        state_cv_.wait(lock, [this] { return in_flight_ < depth_; });
        metrics_.backpressure_wait.record(seconds_since(wait_start));
        ++in_flight_;
        ++submitted_;
        if (in_flight_ > max_in_flight_) max_in_flight_ = in_flight_;
        jobs_.push_back(job);
    }

    if (stages == 0) {
        // Every scheduled method is a series method still below
        // min_series_window: the window produces an empty result (as
        // the serial scheduler does) and must complete here, or it
        // would hold its pipeline slot forever.
        finalize(*job);
        return;
    }
    for (std::size_t i = 0; i < config_.methods.size(); ++i) {
        const Method m = config_.methods[i];
        if (is_series_method(m) && !job->ctx.run_series) continue;
        enqueue_stage(lineage(m), job, i);
    }
}

void PipelinedEngine::enqueue_stage(Lineage& lin,
                                    std::shared_ptr<WindowJob> job,
                                    std::size_t method_index) {
    bool need_drainer = false;
    {
        std::lock_guard<std::mutex> lock(lin.mutex);
        lin.queue.emplace_back(std::move(job), method_index);
        if (!lin.running) {
            lin.running = true;
            need_drainer = true;
        }
    }
    // Submitted outside the lane lock: with a zero-thread pool the
    // drainer runs inline right here, and must be able to re-lock.
    if (need_drainer) {
        pool_.submit([this, &lin] { drain_lineage(lin); });
    }
}

void PipelinedEngine::drain_lineage(Lineage& lin) {
    while (true) {
        std::shared_ptr<WindowJob> job;
        std::size_t method_index = 0;
        {
            std::lock_guard<std::mutex> lock(lin.mutex);
            if (lin.queue.empty()) {
                lin.running = false;
                return;
            }
            job = std::move(lin.queue.front().first);
            method_index = lin.queue.front().second;
            lin.queue.pop_front();
        }
        run_stage(lin, *job, method_index);
    }
}

void PipelinedEngine::run_stage(Lineage& lin, WindowJob& job,
                                std::size_t method_index) {
    const Method m = config_.methods[method_index];
    try {
        // Warm seeds cross windows only within one generation: a
        // routing rebind retires all older state, exactly like the
        // serial engine's reset_warm_state().
        const linalg::Vector* seed = nullptr;
        if (config_.warm_start && lin.warm_valid &&
            lin.warm_generation == job.generation) {
            seed = &lin.warm;
        }
        MethodExecution exec =
            execute_method_guarded(m, job.ctx, config_.method_options,
                                   seed, lin.last_good,
                                   config_.warm_start, &pool_);
        if (config_.warm_start && exec.warm_next_valid) {
            lin.warm = std::move(exec.warm_next);
            lin.warm_valid = true;
            lin.warm_generation = job.generation;
        }
        if (job.scored) {
            const linalg::Vector& reference = is_series_method(m)
                                                  ? job.truth_mean
                                                  : job.truth_latest;
            // An all-quiet truth window (no demand above the coverage
            // threshold) has no defined MRE; score it as NaN.
            if (linalg::sum(reference) > 0.0) {
                exec.run.mre = core::mre_at_coverage(
                    reference, exec.run.estimate, 0.9);
            } else {
                ++metrics_.mre_skipped_runs;
            }
        }
        job.runs[method_index] = std::move(exec.run);
    } catch (...) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finalize(job);
    }
}

void PipelinedEngine::finalize(WindowJob& job) {
    WindowResult& result = job.result;
    result.window_start_sample = job.ctx.window_start_sample;
    result.window_end_sample = job.ctx.window_end_sample;
    result.window_size = job.ctx.window_size;
    result.epoch_fingerprint = job.ctx.epoch->fingerprint();
    result.seconds = seconds_since(job.start);
    for (std::optional<MethodRun>& maybe : job.runs) {
        if (!maybe.has_value()) continue;
        const MethodRun& run = *maybe;
        const auto it = metrics_.methods.find(run.method);
        if (it != metrics_.methods.end()) {
            MethodStats& stats = it->second;
            ++stats.runs;
            if (run.warm_started) ++stats.warm_runs;
            if (run.warm_accepted) ++stats.warm_accepted_runs;
            stats.total_seconds += run.seconds;
            stats.last_seconds = run.seconds;
            stats.max_seconds.fetch_max(run.seconds);
            stats.latency.record(run.seconds);
            stats.solver.add(run.solver);
            record_run_quality(metrics_, run,
                               job.ctx.window_end_sample);
            if (job.scored && !std::isnan(run.mre)) {
                stats.last_mre = run.mre;
                stats.mre_sum += run.mre;
                ++stats.mre_count;
            }
        }
        result.runs.push_back(std::move(*maybe));
    }
    ++metrics_.windows_run;
    metrics_.total_seconds += result.seconds;
    metrics_.last_window_seconds = result.seconds;
    metrics_.window_latency.record(result.seconds);
    record_kernel_stats(metrics_, pool_.kernel_stats());
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        job.done = true;
    }
    flush_completed();
}

void PipelinedEngine::flush_completed() {
    // Methods finish when they finish, so finalize() runs out of
    // submission order — but the window-sink contract is strictly
    // ordered.  The publish mutex admits one flusher at a time; it
    // walks the submission-order cursor over every consecutively-done
    // window (its own and any predecessors-completed-later it
    // unblocked), invokes the sink outside state_mutex_, and only then
    // counts the window completed, so finish()/~PipelinedEngine cannot
    // return while a sink call is still running.
    std::lock_guard<std::mutex> publish_lock(publish_mutex_);
    while (true) {
        std::shared_ptr<WindowJob> job;
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            if (next_publish_ >= jobs_.size() ||
                !jobs_[next_publish_]->done) {
                break;
            }
            job = jobs_[next_publish_];
            ++next_publish_;
        }
        if (sink_) {
            try {
                sink_(job->result);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state_mutex_);
                if (!first_error_) {
                    first_error_ = std::current_exception();
                }
            }
        }
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++completed_;
            --in_flight_;
        }
        state_cv_.notify_all();
    }
}

std::vector<WindowResult> PipelinedEngine::finish() {
    std::vector<WindowResult> out;
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        state_cv_.wait(lock, [this] { return completed_ == submitted_; });
        out.reserve(jobs_.size());
        for (const std::shared_ptr<WindowJob>& job : jobs_) {
            out.push_back(std::move(job->result));
        }
        jobs_.clear();
        next_publish_ = 0;
        error = first_error_;
        first_error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
    return out;
}

}  // namespace tme::engine
