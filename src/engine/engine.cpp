#include "engine/engine.hpp"

#include <atomic>
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
/// immutable after submit(); stages write only their own runs slot and
/// the atomic remaining counter, whose final decrement hands the job
/// to finalize().
struct OnlineEngine::WindowJob {
    WindowContext ctx;
    std::uint64_t generation = 0;  ///< warm-lineage generation at submit
    Clock::time_point start;
    bool scored = false;               ///< truth refs captured
    linalg::Vector truth_latest;       ///< reference for snapshot methods
    linalg::Vector truth_mean;         ///< reference for series methods
    std::vector<std::optional<MethodRun>> runs;  // per methods index
    std::atomic<std::size_t> remaining{0};
    bool failed = false;  ///< a stage threw (guarded by state_mutex_)
    /// Every stage ran; at depth 1 this wakes submit() to finalize
    /// (guarded by state_mutex_).
    bool solved = false;
    WindowResult result;  ///< assembled by finalize()
    bool done = false;    ///< finalized (guarded by state_mutex_)
};

/// Per-method execution lane.  Stages for one method run strictly in
/// window order: enqueue_stage() appends under the lane mutex and at
/// most one drainer loops over the FIFO at a time, so the warm-start
/// fields are only ever touched by the active drainer (successive
/// drainers are ordered by the same mutex).
struct OnlineEngine::Lineage {
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
      lineages_(std::make_unique<Lineage[]>(method_count)),
      pool_(config_.threads) {
    const SchedulerConfigCheck check = validate_methods(config_.methods);
    if (!check) throw SchedulerConfigException(check);
    if (routing.rows() != topo.link_count() ||
        routing.cols() != topo.pair_count()) {
        throw std::invalid_argument(
            "OnlineEngine: routing does not match topology");
    }
    if (config_.min_series_window < 1) config_.min_series_window = 1;
    if (config_.pipeline_depth < 1) config_.pipeline_depth = 1;
    // Pre-populate the per-method stats so the map structure never
    // changes after construction — concurrent metric readers may then
    // iterate it while ingestion updates the atomic fields inside.
    for (Method m : config_.methods) metrics_.methods[m];
}

OnlineEngine::Lineage& OnlineEngine::lineage(Method m) {
    return lineages_[static_cast<std::size_t>(m)];
}

OnlineEngine::~OnlineEngine() {
    // Drain without rethrowing: a stage failure during unwind must not
    // terminate().
    std::unique_lock<std::mutex> lock(state_mutex_);
    wait_drained(lock);
}

void OnlineEngine::wait_drained(std::unique_lock<std::mutex>& lock) {
    state_cv_.wait(lock, [this] { return completed_ == submitted_; });
}

void OnlineEngine::set_routing(const linalg::SparseMatrix& routing) {
    if (routing.rows() != topo_->link_count() ||
        routing.cols() != topo_->pair_count()) {
        throw std::invalid_argument(
            "OnlineEngine::set_routing: routing does not match topology");
    }
    if (&routing == routing_) return;
    // In-flight windows alias the current matrix through their captured
    // SeriesProblem, and the caller is free to destroy it the moment
    // this returns (e.g. replacing a content-identical object).  Drain
    // first so no stage can dangle; routing changes are rare (a handful
    // per day), so the barrier costs next to nothing.
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        wait_drained(lock);
    }
    routing_ = &routing;
}

std::size_t OnlineEngine::max_in_flight() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return max_in_flight_;
}

void OnlineEngine::bind_epoch() {
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
        // with the new epoch; flush the window and retire every warm
        // start, including those of in-flight windows of the old epoch.
        window_.reset(routing_);
        ++generation_;
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
}

void OnlineEngine::submit(std::size_t sample, linalg::Vector loads,
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
    bind_epoch();

    // Injected routing inconsistency: the capture would mix samples
    // measured under different routings, which is exactly the epoch
    // change hazard — handle it the same way (flush the window, retire
    // warm state) and tally it as a routing fault.
    if (fault::should_inject(fault::FaultSite::routing_inconsistency)) {
        ++metrics_.routing_faults;
        if (!window_.empty()) ++metrics_.window_flushes;
        window_.reset(routing_);
        ++generation_;
    }
    if (sanitize_loads(loads, gap)) ++metrics_.corrupt_samples;

    window_.push(sample, std::move(loads), gap);
    ++metrics_.samples_ingested;
    if (gap) ++metrics_.gap_samples;
    metrics_.cache_hits = cache_->hits();
    metrics_.cache_misses = cache_->misses();
    metrics_.cache_evictions = cache_->evictions();
    metrics_.cache_collisions = cache_->collisions();
    // Shared-cache caveat: under a fleet these are the build times
    // every engine triggered, not just this one's.
    metrics_.epoch_build_latency = cache_->build_latency();

    // Everything that can throw (snapshotting, the user-supplied truth
    // provider) runs BEFORE admission: an exception here must propagate
    // without leaking an in-flight slot, or finish() and the destructor
    // would wait forever.
    auto job = std::make_shared<WindowJob>();
    job->start = Clock::now();
    job->ctx = WindowContext::capture(window_, epoch_, config_.methods,
                                      config_.min_series_window,
                                      next_ordinal_++);
    job->generation = generation_;

    // One stage per method; series methods wait for min_series_window.
    // Read once: at depth > 1 the last stage may finalize the job (and
    // release its snapshot) before the dispatch loop below is done.
    const bool run_series = job->ctx.run_series;
    std::size_t stages = 0;
    bool series_stage = false;
    for (Method m : config_.methods) {
        if (is_series_method(m) && !run_series) continue;
        ++stages;
        series_stage = series_stage || is_series_method(m);
    }
    // Truth references are captured now, while the window still spans
    // exactly this job's samples.  Snapshot methods estimate the newest
    // sample's demands; series methods (Vardi, fanout) estimate the
    // window mean, so they are scored against the truth averaged over
    // the window's samples.
    if (truth_) {
        job->scored = true;
        job->truth_latest = truth_(sample);
        if (series_stage) {
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
    job->remaining.store(stages, std::memory_order_relaxed);

    // Backpressure: admit the window only when a slot frees up.
    // Nothing below this point throws.
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        if (in_flight_ >= config_.pipeline_depth) {
            obs::Span wait_span("engine/backpressure_wait");
            const Clock::time_point wait_start = Clock::now();
            state_cv_.wait(lock, [this] {
                return in_flight_ < config_.pipeline_depth;
            });
            metrics_.backpressure_wait.record(seconds_since(wait_start));
        }
        ++in_flight_;
        ++submitted_;
        if (in_flight_ > max_in_flight_) max_in_flight_ = in_flight_;
        jobs_.push_back(job);
    }

    for (std::size_t i = 0; i < config_.methods.size(); ++i) {
        const Method m = config_.methods[i];
        if (is_series_method(m) && !run_series) continue;
        enqueue_stage(lineage(m), job, i);
    }
    // At depth 1 this thread finalizes and publishes the window (the
    // last stage only wakes it); so does a window with no stage (every
    // scheduled method is a series method still below
    // min_series_window), which would otherwise hold its slot forever.
    if (stages == 0 || config_.pipeline_depth == 1) {
        if (stages > 0) {
            std::unique_lock<std::mutex> lock(state_mutex_);
            state_cv_.wait(lock, [&job] { return job->solved; });
        }
        finalize(*job);
    }
}

void OnlineEngine::enqueue_stage(Lineage& lin,
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

void OnlineEngine::drain_lineage(Lineage& lin) {
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

void OnlineEngine::run_stage(Lineage& lin, WindowJob& job,
                             std::size_t method_index) {
    const Method m = config_.methods[method_index];
    try {
        // Warm seeds cross windows only within one generation: a
        // window flush retires all older state.
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
        job.runs[method_index] = std::move(exec.run);
    } catch (...) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        job.failed = true;
        if (!first_error_) first_error_ = std::current_exception();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (config_.pipeline_depth > 1) {
        finalize(job);
        return;
    }
    // Depth 1: submit() is waiting to finalize on its own thread.
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        job.solved = true;
    }
    state_cv_.notify_all();
}

void OnlineEngine::finalize(WindowJob& job) {
    WindowResult& result = job.result;
    result.window_start_sample = job.ctx.window_start_sample;
    result.window_end_sample = job.ctx.window_end_sample;
    result.window_size = job.ctx.window_size;
    result.epoch_fingerprint = job.ctx.epoch->fingerprint();
    result.seconds = seconds_since(job.start);
    record_kernel_stats(metrics_, pool_.kernel_stats());
    // A window with a failed stage is neither scored, counted nor
    // published; finish() / ingest() rethrow the failure.
    for (std::optional<MethodRun>& maybe : job.runs) {
        if (job.failed || !maybe.has_value()) continue;
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
        ++stats.runs;
        if (run.warm_started) ++stats.warm_runs;
        if (run.warm_accepted) ++stats.warm_accepted_runs;
        stats.total_seconds += run.seconds;
        stats.last_seconds = run.seconds;
        stats.max_seconds.fetch_max(run.seconds);
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
    if (!job.failed) {
        ++metrics_.windows_run;
        metrics_.total_seconds += result.seconds;
        metrics_.last_window_seconds = result.seconds;
        metrics_.window_latency.record(result.seconds);
    }
    // Only the result stays buffered for finish(): release the
    // snapshot (and its epoch pin) now.
    job.ctx = WindowContext{};
    job.truth_latest = linalg::Vector{};
    job.truth_mean = linalg::Vector{};
    job.runs = {};
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        job.done = true;
    }
    flush_completed();
}

void OnlineEngine::flush_completed() {
    // At depth > 1 methods finish when they finish, so finalize() runs
    // out of submission order — but the window-sink contract is
    // strictly ordered.  The publish mutex admits one flusher at a
    // time; it walks the submission-order cursor over every
    // consecutively-done window (its own and any predecessors-completed-
    // later it unblocked), invokes the sink outside state_mutex_, and
    // only then counts the window completed, so finish() and the
    // destructor cannot return while a sink call is still running.
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
        if (sink_ && !job->failed) {
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

std::vector<WindowResult> OnlineEngine::finish() {
    std::vector<WindowResult> out;
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        wait_drained(lock);
        out.reserve(jobs_.size());
        for (const std::shared_ptr<WindowJob>& job : jobs_) {
            out.push_back(std::move(job->result));
        }
        jobs_.clear();
        next_publish_ = 0;
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
    return out;
}

WindowResult OnlineEngine::ingest(std::size_t sample, linalg::Vector loads,
                                  bool gap) {
    submit(sample, std::move(loads), gap);
    std::shared_ptr<WindowJob> job;
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        wait_drained(lock);
        job = std::move(jobs_.back());
        jobs_.pop_back();
        --next_publish_;
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
    return std::move(job->result);
}

WindowResult OnlineEngine::ingest_interval(
    const telemetry::TimeSeriesStore& store, std::size_t interval) {
    const bool gap = interval_gap(store, routing_->rows(), interval);
    return ingest(interval, store.snapshot(interval), gap);
}

std::vector<WindowResult> OnlineEngine::ingest_outcome(
    const telemetry::PollingOutcome& outcome) {
    const telemetry::TimeSeriesStore& store = outcome.store;
    for (std::size_t k = 0; k < store.intervals(); ++k) {
        const bool gap = interval_gap(store, routing_->rows(), k);
        submit(k, store.snapshot(k), gap);
    }
    return finish();
}

}  // namespace tme::engine
