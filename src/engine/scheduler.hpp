// Per-window estimation pass: the pieces the engine (engine.hpp) runs
// for every window — snapshot, per-method execution with graceful
// degradation, and the result types it hands to sinks.
//
// Warm starts are only applied where the optimization problem has a
// unique minimizer independent of the starting point (Vardi NNLS
// active-set seeding; Bayesian active-set seeding of the NNLS at or
// below qp.dense_kkt_limit pairs and of the operator QP above it;
// entropy initial iterate; fanout QP active-set seeding with KKT
// verification of the seed).  On the exact paths — NNLS and the QP's
// exact-LU KKT solves, which cover every paper-scale problem — a warm
// run converges to the same estimate as a cold run; it just gets there
// in far fewer iterations when consecutive windows are similar.  The
// operator QP's projected-CG regime (beyond paper scale) stops at a
// tolerance-dependent point, so there warm and cold runs can differ
// by a few percent (see linalg/qp.hpp).  The
// gravity prior is computed once per window and shared by Kruithof,
// entropy and Bayesian, exactly as in the paper's evaluation.
//
// The pass is split into two reusable pieces, so a window's estimates
// do not depend on which thread runs which method, or when:
//   * WindowContext::capture() snapshots everything a pass consumes —
//     an owning copy of the window loads, the window aggregates the
//     series methods read, the pinned routing epoch, and the gravity
//     prior;
//   * execute_method() runs one method over a captured context with an
//     optional warm-start seed and returns the run plus the state that
//     seeds the method's next window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bayesian.hpp"
#include "core/entropy.hpp"
#include "core/fanout.hpp"
#include "core/kruithof.hpp"
#include "core/vardi.hpp"
#include "engine/epoch_cache.hpp"
#include "engine/method.hpp"
#include "engine/thread_pool.hpp"
#include "engine/window.hpp"
#include "obs/counters.hpp"

namespace tme::engine {

/// Engine-side aliases for the solver budget layer (linalg/budget.hpp):
/// engine code configures deadlines and reads outcomes without spelling
/// the linalg namespace.
using SolveBudget = linalg::SolveBudget;
using SolveOutcome = linalg::SolveOutcome;

/// Per-method solver options.  execute_method overrides the reuse hooks
/// (shared_routing_transpose, shared_constraints, window moments and
/// aggregates, warm_start) per window; everything else is honoured as
/// configured.
struct MethodOptions {
    core::KruithofOptions kruithof;
    core::EntropyOptions entropy;
    core::BayesianOptions bayesian;
    core::VardiOptions vardi;
    core::FanoutOptions fanout;
    /// Wall-clock deadline per method solve, in seconds; <= 0 means
    /// unlimited.  execute_method arms one SolveBudget per run and
    /// threads it into the method's inner solver loops (projected CG,
    /// block pivoting, NNLS pivots, MART sweeps, entropy Armijo steps),
    /// so a runaway solve returns its best feasible iterate with the
    /// run flagged degraded instead of hanging the window.  The budget
    /// is armed even when unlimited — that is the solver_stall fault
    /// injection point (src/fault/injection.hpp).
    double solve_deadline_seconds = 0.0;
};

/// One method's output for one window.
struct MethodRun {
    Method method = Method::gravity;
    /// Demand estimate: the newest sample's demands for snapshot
    /// methods, the window mean for series methods (Vardi, fanout).
    linalg::Vector estimate;
    double seconds = 0.0;
    bool warm_started = false;
    /// Whether the warm start survived verification and shaped the
    /// solve (fanout's QP seed can be rejected and fall back to a cold
    /// solve; for the other methods this equals warm_started).
    bool warm_accepted = false;
    /// Mean relative error over large demands vs. ground truth; NaN when
    /// the feed provides no truth.  Filled by the engine.
    double mre = std::numeric_limits<double>::quiet_NaN();
    /// Solver iteration counts for this run (QP rounds/CG, entropy
    /// steps/probes, MART sweeps, NNLS pivots); zero for gravity.
    obs::SolverCounters solver;
    /// How the method's own solve ended: budget_exhausted when the
    /// SolveBudget cut it (see MethodOptions::solve_deadline_seconds),
    /// otherwise iteration_capped when a configured iteration cap
    /// stopped one of its solves (solver.capped_solves > 0).  A capped
    /// run is still labelled `exact`, with no convergence check behind
    /// it (linalg/budget.hpp says how far such a solve can be off).
    SolveOutcome solve_outcome = SolveOutcome::converged;
    /// Quality of `estimate` as served downstream (engine/method.hpp).
    EstimateQuality quality = EstimateQuality::exact;
    /// True when the configured method failed and `estimate` came from
    /// `fallback_method` instead (execute_method_guarded's chain).
    bool used_fallback = false;
    /// The method that actually produced the estimate when
    /// used_fallback is set; equals `method` otherwise.
    Method fallback_method = Method::gravity;
    /// Number of windows since the served estimate was computed; > 0
    /// only for quality == stale (last-good carry-forward).
    std::size_t stale_age = 0;
    /// Human-readable cause when quality != exact (exception message,
    /// "solve budget exhausted", ...); empty on clean runs.
    std::string degradation_reason;
};

/// Everything one window's estimation pass produced.
struct WindowResult {
    std::size_t window_start_sample = 0;
    std::size_t window_end_sample = 0;
    std::size_t window_size = 0;
    std::uint64_t epoch_fingerprint = 0;
    double seconds = 0.0;  ///< wall time for the whole pass
    std::vector<MethodRun> runs;

    /// The run for `method`, or nullptr if it did not run this window.
    const MethodRun* find(Method method) const;
};

/// Window-completion hook: the engine invokes it once per completed
/// window, in ingest order, on the thread that called ingest() (the
/// serving layer's snapshot publisher attaches here — see
/// src/serve/publish.hpp).  The engine layer only defines the seam, so
/// it stays embeddable without the serving layer.
using WindowSink = std::function<void(const WindowResult&)>;

/// Typed method-list diagnosis.  validate_methods() lets callers reject
/// a bad method list up front without catching an exception
/// mid-stream; the engine constructor throws the same diagnosis wrapped
/// in SchedulerConfigException (which still derives
/// std::invalid_argument for callers that only care that construction
/// failed).
enum class SchedulerConfigError {
    none,
    no_methods,        ///< the method list is empty
    duplicate_method,  ///< a method appears more than once (see offender)
};

struct SchedulerConfigCheck {
    SchedulerConfigError error = SchedulerConfigError::none;
    /// The duplicated method when error == duplicate_method.
    Method offender = Method::gravity;

    bool ok() const { return error == SchedulerConfigError::none; }
    explicit operator bool() const { return ok(); }
    std::string message() const;
};

class SchedulerConfigException : public std::invalid_argument {
  public:
    explicit SchedulerConfigException(SchedulerConfigCheck check)
        : std::invalid_argument("OnlineEngine: " + check.message()),
          check_(check) {}
    const SchedulerConfigCheck& check() const { return check_; }

  private:
    SchedulerConfigCheck check_;
};

/// Non-throwing method-list check: empty lists and duplicate methods
/// are rejected.  Duplicates matter because each method owns one
/// warm-start slot — two runs of the same method per window would
/// race on it.
SchedulerConfigCheck validate_methods(const std::vector<Method>& methods);

/// Immutable snapshot of everything one window's estimation pass
/// consumes.  The snapshot owns copies of the window loads and the
/// window aggregates, and pins the routing epoch, so the epoch cache
/// may evict (another fleet engine's traffic) while the pass runs.
struct WindowContext {
    /// Monotone window index within the engine (informational).
    std::size_t ordinal = 0;
    std::size_t window_start_sample = 0;
    std::size_t window_end_sample = 0;
    std::size_t window_size = 0;
    /// Whether series methods (Vardi, fanout) run for this window.
    bool run_series = false;
    std::shared_ptr<const RoutingEpoch> epoch;
    core::SeriesProblem series;       ///< owned copy of the window loads
    core::SnapshotProblem latest;     ///< newest sample
    /// Gravity prior; empty when no snapshot method is scheduled or
    /// the newest sample carries no exiting traffic.
    linalg::Vector prior;
    double prior_seconds = 0.0;
    /// Window aggregates, computed from `series` by the functions the
    /// estimators call when none are supplied (linalg::sample_mean,
    /// linalg::sample_covariance, core::fanout_window_sums), so a
    /// window's Vardi and fanout estimates are bitwise the batch
    /// estimators' on the same samples.
    linalg::Vector mean_loads;
    linalg::Matrix covariance;        ///< Vardi only
    linalg::Matrix source_outer;      ///< fanout only
    linalg::Vector weighted_rhs;      ///< fanout only

    /// Materializes the snapshot for `methods`: only the aggregates a
    /// scheduled method actually consumes are computed, and the
    /// gravity prior is evaluated here (shared by Kruithof / entropy /
    /// Bayesian).  `ordinal` tags the window's position in the stream.
    static WindowContext capture(const SlidingWindow& window,
                                 std::shared_ptr<const RoutingEpoch> epoch,
                                 const std::vector<Method>& methods,
                                 std::size_t min_series_window,
                                 std::size_t ordinal);
};

/// One method's execution result plus the warm-start state that seeds
/// the SAME method's next window: the demand estimate
/// for entropy/Bayesian/Vardi, the fanout vector (QP primal) for the
/// fanout method, nothing for gravity/Kruithof.
struct MethodExecution {
    MethodRun run;
    linalg::Vector warm_next;
    bool warm_next_valid = false;
};

/// Runs one method over a captured window.  `warm_seed` is the
/// previous window's state for this method (nullptr = cold start); it
/// must stay alive for the duration of the call.  `collect_warm`
/// skips materializing warm_next when the caller will not thread it
/// forward (warm starts disabled) — it costs a pairs-length copy per
/// run.  Pure apart from lazy derived-data builds on the pinned epoch
/// (which are thread-safe), so any thread may execute any method —
/// correctness of warm seeding is the caller's ordering
/// responsibility.  `pool` (optional) lends its idle workers to the
/// fanout and Bayesian operator applies as kernel regions; estimates
/// are bitwise the same with or without it.
MethodExecution execute_method(Method m, const WindowContext& ctx,
                               const MethodOptions& options,
                               const linalg::Vector* warm_seed,
                               bool collect_warm = true,
                               ThreadPool* pool = nullptr);

/// Last-good estimate carried across windows for one method: the
/// graceful-degradation terminal fallback.  Updated only by exact runs;
/// `age` counts the windows since.  Deliberately kept across routing
/// epochs — a demand estimate does not depend on the routing, and a
/// slightly stale estimate beats none when every solver fails.
struct FallbackState {
    linalg::Vector estimate;
    bool valid = false;
    std::size_t age = 0;
};

/// execute_method wrapped in graceful degradation; the engine runs every
/// method through here.
///
/// The run always comes back usable and honestly labelled:
///  * clean solve                      -> exact (last_good updated);
///  * SolveBudget cut the solve        -> degraded, best feasible
///                                        iterate kept;
///  * solver threw (ContractViolation, bad_alloc, runtime_error), its
///    gravity prior is missing (no exiting traffic in the sample), or
///    it produced a non-finite/negative estimate -> fallback chain
///    (fanout -> bayesian -> gravity prior; others -> gravity prior),
///    degraded;
///  * whole chain failed               -> last_good carry-forward,
///                                        stale (age reported);
///  * no last_good either              -> failed, all-zero estimate.
/// Unexpected exception types (std::logic_error etc. — programming
/// errors, not data/solver faults) still propagate.  A degraded run
/// never updates the warm slot (warm_next_valid = false) nor last_good.
/// `pool` is passed through to execute_method (the engine passes its
/// own pool; nullptr keeps every kernel on the calling thread).
MethodExecution execute_method_guarded(Method m, const WindowContext& ctx,
                                       const MethodOptions& options,
                                       const linalg::Vector* warm_seed,
                                       FallbackState& last_good,
                                       bool collect_warm = true,
                                       ThreadPool* pool = nullptr);

}  // namespace tme::engine
