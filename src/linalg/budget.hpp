// Cooperative solve deadlines: a runaway iterative solve returns its
// best feasible iterate with a typed outcome instead of hanging.
//
// Every iterative solver in the repo (projected-CG / block-pivoting QP,
// Lawson-Hanson NNLS, MART sweeps, the entropy solver's Armijo loop)
// takes an optional SolveBudget and polls `exhausted()` once per outer
// iteration.  The poll is two branches when the budget is unlimited —
// the default — and one steady_clock read per outer iteration when a
// deadline is set, so threading the budget through costs nothing
// measurable and never changes the arithmetic of a solve that finishes
// in time.  A tripped budget is sticky: once expired, every subsequent
// poll returns true, so nested loops (CG inside an active-set round)
// unwind at their next checkpoint.
//
// SolveOutcome records which stopping rule ended an iterative solve.
// None of them is a convergence certificate:
//   * converged          — the solver's own stopping test passed.  In
//                          the operator QP's projected-CG regime that
//                          test uses tolerances with absolute floors
//                          (linalg/qp.cpp), so where it stops depends
//                          on the scale of the data, not only on how
//                          close the iterate is to the optimum.
//   * iteration_capped   — a *configured* iteration cap (max_iterations,
//                          max_active_set_rounds) stopped it (benches
//                          time-box solvers this way).  The scheduler
//                          still labels the run `exact`, and nothing
//                          checks how far the iterate is from the
//                          optimum: the capped CG-regime fanout solve
//                          of the 200-PoP benchmark backbone moves its
//                          estimate by 3-22 % under 1e-13 relative
//                          input noise (CHANGES.md FOUND line).
//   * budget_exhausted   — the SolveBudget cut it short; the returned
//                          iterate is the best feasible point so far
//                          and the run is flagged degraded downstream.
// The scaled KKT certificate of ROADMAP item 1 is what will decide
// whether a capped (or converged) run may be labelled exact.
//
// The solver_stall fault (fault::FaultSite::solver_stall) hooks in
// here: a scheduled stall poisons the budget at start(), so the very
// first poll trips — simulating a wedged solve being cut off by its
// deadline without actually burning the wall-clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "fault/injection.hpp"

namespace tme::linalg {

enum class SolveOutcome : std::uint8_t {
    converged,
    iteration_capped,
    budget_exhausted,
};

constexpr const char* solve_outcome_name(SolveOutcome o) {
    switch (o) {
        case SolveOutcome::converged: return "converged";
        case SolveOutcome::iteration_capped: return "iteration_capped";
        case SolveOutcome::budget_exhausted: return "budget_exhausted";
    }
    return "?";
}

class SolveBudget {
  public:
    /// Unlimited budget: exhausted() is always false.
    SolveBudget() = default;

    /// `deadline_seconds` caps the wall-clock of one solve; <= 0 means
    /// unlimited.  `scope` labels the budget for fault-schedule
    /// matching (the engine passes the method name); it must outlive
    /// the budget.
    explicit SolveBudget(double deadline_seconds, const char* scope = "")
        : deadline_seconds_(deadline_seconds), scope_(scope) {}

    bool limited() const { return deadline_seconds_ > 0.0; }
    const char* scope() const { return scope_; }

    /// Arms the deadline from now.  Called once at the outermost solve
    /// entry (execute_method); re-arming resets the clock and the
    /// tripped state.  This is also the solver_stall injection point.
    void start() {
        tripped_ = false;
        stalled_ = fault::should_inject(fault::FaultSite::solver_stall,
                                        scope_);
        if (limited()) {
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                deadline_seconds_));
        }
        started_ = true;
    }

    /// Cooperative checkpoint, polled once per outer iteration (CG
    /// iteration, active-set round, NNLS pivot, MART sweep, entropy
    /// step).  True once the deadline has passed (sticky) — the solver
    /// must then return its best feasible iterate with
    /// SolveOutcome::budget_exhausted.
    bool exhausted() {
        if (tripped_) return true;
        if (stalled_) {
            tripped_ = true;
            return true;
        }
        if (!limited() || !started_) return false;
        if (std::chrono::steady_clock::now() >= deadline_) {
            tripped_ = true;
        }
        return tripped_;
    }

    /// Whether a previous exhausted() poll tripped (does not re-read
    /// the clock): drivers use it to map a capped return to the right
    /// SolveOutcome.
    bool expired() const { return tripped_; }

  private:
    double deadline_seconds_ = 0.0;
    const char* scope_ = "";
    std::chrono::steady_clock::time_point deadline_{};
    bool started_ = false;
    bool tripped_ = false;
    bool stalled_ = false;
};

}  // namespace tme::linalg
