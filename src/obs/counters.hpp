// Solver iteration telemetry.
//
// Every estimator in this repo bottoms out in an iterative solver —
// the fanout/Bayesian QP's active-set rounds and projected-CG
// iterations, entropy's exponentiated-gradient steps and Armijo
// backtracking probes, Kruithof's MART sweeps, and the NNLS
// Lawson-Hanson pivots — but those counts historically died inside
// per-call result structs (or were never surfaced at all).  A
// SolverCounters handle threads through the solver option structs: the
// caller owns one per solve (or per window run), each solver ADDS its
// totals exactly once on return, and the engine accumulates the
// per-run snapshot into atomic per-method cells.
//
// The counters are written only AFTER a solver finishes (one += per
// field at the return site), never inside an iteration, so attaching
// them cannot perturb the arithmetic: estimates with and without
// counters are bitwise identical by construction.
#pragma once

#include <cstddef>

#include "obs/metric_cell.hpp"

namespace tme::obs {

/// Per-call (or per-window-run) iteration counts.  Plain fields — a
/// handle is owned by one solve at a time; cross-thread accumulation
/// goes through SolverCounterCells.
struct SolverCounters {
    /// Active-set rounds (KKT solves) of the eq-QP solvers, dense or
    /// operator (fanout, Bayesian above the dense-KKT limit).
    std::size_t qp_active_set_rounds = 0;
    /// Projected-CG iterations across those KKT solves (operator
    /// solver's matrix-free branch; 0 on the dense-gather path).
    std::size_t qp_cg_iterations = 0;
    /// Accepted exponentiated-gradient iterations of kl_regularized_ls.
    std::size_t entropy_iterations = 0;
    /// Armijo backtracking probes (objective evaluations) across those
    /// iterations — each probe costs one O(nnz) forward product, so
    /// probes, not iterations, are the entropy solver's real work unit.
    std::size_t entropy_armijo_probes = 0;
    /// Kruithof/MART multiplicative scaling sweeps.
    std::size_t kruithof_sweeps = 0;
    /// Lawson-Hanson NNLS outer active-set iterations (pivots).
    std::size_t nnls_pivots = 0;
    /// Solves (QP, NNLS, entropy, Kruithof/MART) that returned because
    /// a configured iteration cap stopped them short of convergence
    /// (SolveOutcome::iteration_capped); budget cuts are not counted.
    std::size_t capped_solves = 0;

    bool any() const {
        return qp_active_set_rounds != 0 || qp_cg_iterations != 0 ||
               entropy_iterations != 0 || entropy_armijo_probes != 0 ||
               kruithof_sweeps != 0 || nnls_pivots != 0 ||
               capped_solves != 0;
    }

    void add(const SolverCounters& other) {
        qp_active_set_rounds += other.qp_active_set_rounds;
        qp_cg_iterations += other.qp_cg_iterations;
        entropy_iterations += other.entropy_iterations;
        entropy_armijo_probes += other.entropy_armijo_probes;
        kruithof_sweeps += other.kruithof_sweeps;
        nnls_pivots += other.nnls_pivots;
        capped_solves += other.capped_solves;
    }
};

/// Atomic accumulator mirror of SolverCounters: one per method in the
/// engine metrics, updated by whichever worker finished the run,
/// copied torn-free by metric readers.
struct SolverCounterCells {
    MetricCell<std::size_t> qp_active_set_rounds;
    MetricCell<std::size_t> qp_cg_iterations;
    MetricCell<std::size_t> entropy_iterations;
    MetricCell<std::size_t> entropy_armijo_probes;
    MetricCell<std::size_t> kruithof_sweeps;
    MetricCell<std::size_t> nnls_pivots;
    MetricCell<std::size_t> capped_solves;

    void add(const SolverCounters& c) {
        if (c.qp_active_set_rounds) {
            qp_active_set_rounds += c.qp_active_set_rounds;
        }
        if (c.qp_cg_iterations) qp_cg_iterations += c.qp_cg_iterations;
        if (c.entropy_iterations) entropy_iterations += c.entropy_iterations;
        if (c.entropy_armijo_probes) {
            entropy_armijo_probes += c.entropy_armijo_probes;
        }
        if (c.kruithof_sweeps) kruithof_sweeps += c.kruithof_sweeps;
        if (c.nnls_pivots) nnls_pivots += c.nnls_pivots;
        if (c.capped_solves) capped_solves += c.capped_solves;
    }

    SolverCounters snapshot() const {
        SolverCounters c;
        c.qp_active_set_rounds = qp_active_set_rounds.load();
        c.qp_cg_iterations = qp_cg_iterations.load();
        c.entropy_iterations = entropy_iterations.load();
        c.entropy_armijo_probes = entropy_armijo_probes.load();
        c.kruithof_sweeps = kruithof_sweeps.load();
        c.nnls_pivots = nnls_pivots.load();
        c.capped_solves = capped_solves.load();
        return c;
    }
};

}  // namespace tme::obs
