#include "engine/scheduler.hpp"

#include <chrono>
#include <utility>

#include <cmath>
#include <new>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "core/gravity.hpp"
#include "engine/clock.hpp"
#include "fault/injection.hpp"
#include "linalg/stats.hpp"
#include "obs/trace.hpp"

namespace tme::engine {

using Clock = SteadyClock;

namespace {

/// Static span names per method ("solver/<name>"): span records keep
/// the pointer, so the strings must outlive every drain.
const char* solver_span_name(Method m) {
    switch (m) {
        case Method::gravity: return "solver/gravity";
        case Method::kruithof: return "solver/kruithof";
        case Method::entropy: return "solver/entropy";
        case Method::bayesian: return "solver/bayesian";
        case Method::vardi: return "solver/vardi";
        case Method::fanout: return "solver/fanout";
    }
    return "solver/?";
}

}  // namespace

const MethodRun* WindowResult::find(Method method) const {
    for (const MethodRun& run : runs) {
        if (run.method == method) return &run;
    }
    return nullptr;
}

std::string SchedulerConfigCheck::message() const {
    switch (error) {
        case SchedulerConfigError::none:
            return "ok";
        case SchedulerConfigError::no_methods:
            return "no methods scheduled";
        case SchedulerConfigError::duplicate_method:
            return std::string("duplicate method '") +
                   method_name(offender) + "'";
    }
    return "?";
}

SchedulerConfigCheck validate_methods(const std::vector<Method>& methods) {
    SchedulerConfigCheck check;
    if (methods.empty()) {
        check.error = SchedulerConfigError::no_methods;
        return check;
    }
    // Uniqueness is load-bearing, not just hygiene: each method owns
    // one warm-start slot, so two runs of the same method per window
    // would race.
    std::vector<bool> seen(method_count, false);
    for (Method m : methods) {
        std::vector<bool>::reference slot_seen =
            seen[static_cast<std::size_t>(m)];
        if (slot_seen) {
            check.error = SchedulerConfigError::duplicate_method;
            check.offender = m;
            return check;
        }
        slot_seen = true;
    }
    return check;
}

WindowContext WindowContext::capture(
    const SlidingWindow& window, std::shared_ptr<const RoutingEpoch> epoch,
    const std::vector<Method>& methods, std::size_t min_series_window,
    std::size_t ordinal) {
    if (window.empty()) {
        throw std::logic_error("WindowContext::capture: empty window");
    }
    // The snapshot must be built against the epoch it pins: a stale or
    // mismatched epoch would hand every method of this window derived
    // data (Gram, constraints) for a different routing matrix.
    TME_CONTRACT(epoch != nullptr, "WindowContext::capture: null epoch");
    TME_CONTRACT(epoch->rows() == window.series().routing->rows() &&
                     epoch->cols() == window.series().routing->cols() &&
                     epoch->nonzeros() == window.series().routing->nonzeros(),
                 "WindowContext::capture: pinned epoch does not match the "
                 "window's routing matrix");
    obs::Span span("window/capture", "ordinal",
                   static_cast<long long>(ordinal));
    WindowContext ctx;
    ctx.ordinal = ordinal;
    ctx.window_start_sample = window.first_sample();
    ctx.window_end_sample = window.last_sample();
    ctx.window_size = window.size();
    ctx.epoch = std::move(epoch);
    ctx.run_series = window.size() >= std::max<std::size_t>(
                                          min_series_window, 1);

    ctx.series = window.series();  // copies the loads; topo/routing alias
    ctx.latest.topo = ctx.series.topo;
    ctx.latest.routing = ctx.series.routing;
    ctx.latest.loads = window.latest();

    bool need_prior = false;
    bool need_vardi = false;
    bool need_fanout = false;
    for (Method m : methods) {
        if (m == Method::gravity || m == Method::kruithof ||
            m == Method::entropy || m == Method::bayesian) {
            need_prior = true;
        }
        if (m == Method::vardi && ctx.run_series) need_vardi = true;
        if (m == Method::fanout && ctx.run_series) need_fanout = true;
    }

    // Gravity prior, shared by Kruithof / entropy / Bayesian.
    if (need_prior) {
        const Clock::time_point prior_start = Clock::now();
        ctx.prior = core::gravity_estimate(ctx.latest);
        ctx.prior_seconds = seconds_since(prior_start);
    }

    // Window aggregates, computed from the samples by the functions the
    // estimators call when none are supplied: the engine's estimate of
    // a window is bitwise the batch estimator's.
    if (need_vardi || need_fanout) {
        ctx.mean_loads = linalg::sample_mean(ctx.series.loads);
    }
    if (need_vardi) {
        ctx.covariance = linalg::sample_covariance(ctx.series.loads);
    }
    if (need_fanout) {
        core::FanoutWindowSums sums = core::fanout_window_sums(ctx.series);
        ctx.source_outer = std::move(sums.source_outer);
        ctx.weighted_rhs = std::move(sums.weighted_rhs);
    }
    // Exit boundary: the aggregates are consumed by every method of
    // this window — a NaN from an interpolated gap sample must be
    // caught here, not three solvers later.
    TME_CONTRACT_DBG_CHECK(
        check::finite(ctx.mean_loads, "window capture mean_loads"));
    TME_CONTRACT_DBG_CHECK(
        check::finite(ctx.covariance, "window capture covariance"));
    TME_CONTRACT_DBG_CHECK(
        check::finite(ctx.source_outer, "window capture source_outer"));
    TME_CONTRACT_DBG_CHECK(
        check::finite(ctx.weighted_rhs, "window capture weighted_rhs"));
    TME_CONTRACT_DBG_CHECK(
        check::finite(ctx.prior, "window capture gravity prior"));
    return ctx;
}

MethodExecution execute_method(Method m, const WindowContext& ctx,
                               const MethodOptions& options,
                               const linalg::Vector* warm_seed,
                               bool collect_warm, ThreadPool* pool) {
    obs::Span span(solver_span_name(m), "ordinal",
                   static_cast<long long>(ctx.ordinal), "warm",
                   warm_seed != nullptr ? 1 : 0);
    const Clock::time_point start = Clock::now();
    MethodExecution out;
    MethodRun& run = out.run;
    run.method = m;
    run.fallback_method = m;
    // Simulated allocation failure at the solve boundary (compiled out
    // with TME_FAULT_INJECTION=0).  Thrown before any solver state is
    // built, exactly where a real Gram-column or factor allocation
    // would fail; execute_method_guarded classifies it as degradable.
    if (fault::should_inject(fault::FaultSite::alloc_failure,
                             method_name(m))) {
        throw std::bad_alloc();
    }
    if (m == Method::gravity) {
        run.estimate = ctx.prior;
        run.seconds = ctx.prior_seconds;
        return out;  // prior timing, not this call's
    }
    // One budget per solve, armed here — arming is also the
    // solver_stall injection point (the fault makes the first poll
    // trip, simulating a wedged solve cut by its deadline).
    SolveBudget budget(options.solve_deadline_seconds, method_name(m));
    budget.start();
    switch (m) {
        case Method::gravity:
            break;  // handled above
        case Method::kruithof: {
            core::KruithofOptions opts = options.kruithof;
            opts.counters = &run.solver;
            opts.budget = &budget;
            run.estimate =
                core::kruithof_general(ctx.latest, ctx.prior, opts).s;
            break;
        }
        case Method::entropy: {
            core::EntropyOptions opts = options.entropy;
            opts.solver.counters = &run.solver;
            opts.solver.budget = &budget;
            if (warm_seed != nullptr) {
                opts.solver.initial = warm_seed;
                run.warm_started = true;
                run.warm_accepted = true;
            }
            run.estimate =
                core::entropy_estimate(ctx.latest, ctx.prior, opts);
            if (collect_warm) {
                out.warm_next = run.estimate;
                out.warm_next_valid = true;
            }
            break;
        }
        case Method::bayesian: {
            core::BayesianOptions opts = options.bayesian;
            opts.qp.counters = &run.solver;
            opts.qp.budget = &budget;
            opts.qp.parallel = pool;
            // Gram-free: the MAP system is solved through on-demand
            // Gram columns / implicit A'A products off the epoch's
            // cached R'.
            opts.shared_routing_transpose = &ctx.epoch->routing_transpose();
            if (warm_seed != nullptr) {
                opts.qp.warm_start = warm_seed;
                run.warm_started = true;
                run.warm_accepted = true;
            }
            run.estimate =
                core::bayesian_estimate(ctx.latest, ctx.prior, opts);
            if (collect_warm) {
                out.warm_next = run.estimate;
                out.warm_next_valid = true;
            }
            break;
        }
        case Method::vardi: {
            core::VardiOptions opts = options.vardi;
            opts.counters = &run.solver;
            opts.budget = &budget;
            // Gram-free: columns of the transformed Gram
            // G1 + w*(G1 .* G1) are generated on demand off the
            // epoch's cached R'.
            opts.shared_routing_transpose = &ctx.epoch->routing_transpose();
            opts.mean_loads = &ctx.mean_loads;
            opts.load_covariance = &ctx.covariance;
            if (warm_seed != nullptr) {
                opts.warm_start = warm_seed;
                run.warm_started = true;
                run.warm_accepted = true;
            }
            run.estimate = core::vardi_estimate(ctx.series, opts).lambda;
            if (collect_warm) {
                out.warm_next = run.estimate;
                out.warm_next_valid = true;
            }
            break;
        }
        case Method::fanout: {
            core::FanoutOptions opts = options.fanout;
            opts.qp.counters = &run.solver;
            opts.qp.budget = &budget;
            opts.qp.parallel = pool;
            // Gram-free: the QP's data term is applied through R / R'
            // per window sample and its KKT rows are generated on
            // demand off the epoch's cached R'.
            opts.shared_routing_transpose = &ctx.epoch->routing_transpose();
            opts.shared_constraints =
                &ctx.epoch->fanout_constraints(*ctx.series.topo);
            core::FanoutWindowAggregates aggregates;
            aggregates.source_outer = &ctx.source_outer;
            aggregates.weighted_rhs = &ctx.weighted_rhs;
            aggregates.mean_loads = &ctx.mean_loads;
            opts.aggregates = aggregates;
            if (warm_seed != nullptr) {
                opts.qp.warm_start = warm_seed;
                run.warm_started = true;
            }
            core::FanoutResult fanout =
                core::fanout_estimate(ctx.series, opts);
            run.warm_accepted = fanout.warm_accepted;
            run.estimate = std::move(fanout.mean_demands);
            // The QP's variable space is the fanout vector, not the
            // demand estimate: that is what seeds the next window's
            // active set.
            if (collect_warm) {
                out.warm_next = std::move(fanout.fanouts);
                out.warm_next_valid = true;
            }
            break;
        }
    }
    // Simulated solver divergence: corrupt the estimate at the solve
    // boundary.  execute_method_guarded's validation catches the NaNs
    // and falls back, exactly as it would for a real blow-up.
    if (fault::should_inject(fault::FaultSite::solver_diverge,
                             method_name(m))) {
        for (double& v : run.estimate) {
            v = std::numeric_limits<double>::quiet_NaN();
        }
    }
    if (budget.expired()) {
        run.solve_outcome = SolveOutcome::budget_exhausted;
    } else if (run.solver.capped_solves != 0) {
        run.solve_outcome = SolveOutcome::iteration_capped;
    }
    run.seconds = seconds_since(start);
    return out;
}

namespace {

/// A servable estimate: right-sized, finite, nonnegative.  Every
/// estimator in the repo guarantees this on a clean return (solver
/// boundary contracts); a violation here means the solve blew up (or a
/// solver_diverge fault fired).
bool estimate_usable(const linalg::Vector& estimate, std::size_t pairs) {
    if (estimate.size() != pairs) return false;
    for (double v : estimate) {
        if (!std::isfinite(v) || v < 0.0) return false;
    }
    return true;
}

/// Classifies an estimator exception: data/solver faults (contract
/// violations, allocation failure, runtime errors such as singular KKT
/// systems) degrade; anything else is a programming error that must
/// propagate.  Fills `reason` with the message when degradable.
bool degradable_failure(const std::exception_ptr& error,
                        std::string& reason) {
    try {
        std::rethrow_exception(error);
    } catch (const check::ContractViolation& e) {
        reason = e.what();
        return true;
    } catch (const std::bad_alloc&) {
        reason = "allocation failure";
        return true;
    } catch (const std::runtime_error& e) {
        reason = e.what();
        return true;
    } catch (...) {
        return false;
    }
}

}  // namespace

MethodExecution execute_method_guarded(Method m, const WindowContext& ctx,
                                       const MethodOptions& options,
                                       const linalg::Vector* warm_seed,
                                       FallbackState& last_good,
                                       bool collect_warm, ThreadPool* pool) {
    const std::size_t pairs = ctx.series.routing->cols();
    MethodExecution out;
    std::string reason;
    bool primary_ok = false;
    try {
        out = execute_method(m, ctx, options, warm_seed, collect_warm,
                             pool);
        if (estimate_usable(out.run.estimate, pairs)) {
            primary_ok = true;
        } else {
            reason = "estimate not finite/nonnegative";
        }
    } catch (...) {
        const std::exception_ptr error = std::current_exception();
        if (!degradable_failure(error, reason)) {
            std::rethrow_exception(error);
        }
    }

    if (primary_ok) {
        MethodRun& run = out.run;
        if (run.solve_outcome == SolveOutcome::budget_exhausted) {
            // Feasible but deadline-cut: serve it flagged, and keep it
            // out of the warm slot and the last-good carry-forward so
            // a degraded iterate never seeds future windows.
            run.quality = EstimateQuality::degraded;
            run.degradation_reason = "solve budget exhausted";
            out.warm_next_valid = false;
            ++last_good.age;
        } else {
            last_good.estimate = run.estimate;
            last_good.valid = true;
            last_good.age = 0;
        }
        return out;
    }

    // Fallback chain.  The primary run's partial state (timing,
    // counters) is discarded with it; the fallback is timed on its own.
    const Clock::time_point start = Clock::now();
    out = MethodExecution{};
    MethodRun& run = out.run;
    run.method = m;
    run.fallback_method = m;
    run.degradation_reason = std::move(reason);
    ++last_good.age;

    auto accept_fallback = [&](Method fb, linalg::Vector&& estimate) {
        if (!estimate_usable(estimate, pairs)) return false;
        run.estimate = std::move(estimate);
        run.used_fallback = true;
        run.fallback_method = fb;
        run.quality = EstimateQuality::degraded;
        return true;
    };

    bool served = false;
    // Fanout degrades to the Bayesian MAP estimate first — it is the
    // next-best method on the paper's accuracy ladder and shares the
    // captured context.  Requires the gravity prior (absent on
    // fanout-only schedules, where the chain goes straight to gravity).
    if (m == Method::fanout && ctx.prior.size() == pairs) {
        try {
            MethodExecution fb = execute_method(
                Method::bayesian, ctx, options, nullptr, false, pool);
            run.solver = fb.run.solver;
            served = accept_fallback(Method::bayesian,
                                     std::move(fb.run.estimate));
        } catch (...) {
            std::string fb_reason;
            if (!degradable_failure(std::current_exception(), fb_reason)) {
                throw;
            }
        }
    }
    // Terminal method fallback: the gravity prior (already computed in
    // capture for most schedules; recomputed here when it was not).
    if (!served) {
        linalg::Vector prior_estimate;
        if (ctx.prior.size() == pairs) {
            prior_estimate = ctx.prior;
        } else {
            try {
                prior_estimate = core::gravity_estimate(ctx.latest);
            } catch (...) {
                std::string fb_reason;
                if (!degradable_failure(std::current_exception(),
                                        fb_reason)) {
                    throw;
                }
            }
        }
        served = accept_fallback(Method::gravity,
                                 std::move(prior_estimate));
    }
    // Every method failed: carry the last good estimate forward, aged.
    if (!served && last_good.valid &&
        last_good.estimate.size() == pairs) {
        run.estimate = last_good.estimate;
        run.used_fallback = true;
        run.quality = EstimateQuality::stale;
        run.stale_age = last_good.age;
        served = true;
    }
    if (!served) {
        run.estimate.assign(pairs, 0.0);
        run.quality = EstimateQuality::failed;
    }
    run.seconds = seconds_since(start);
    return out;
}

}  // namespace tme::engine
