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
// totals exactly once on return, and the engine adds each run's counts
// into the method's totals.
//
// The counters are written only AFTER a solver finishes (one += per
// field at the return site), never inside an iteration, so attaching
// them cannot perturb the arithmetic: estimates with and without
// counters are bitwise identical by construction.
#pragma once

#include <cstddef>

#include "obs/metric_cell.hpp"

namespace tme::obs {

/// Iteration counts of one solve, one window run, or one method's
/// totals across runs.  The fields are relaxed atomic cells, so the
/// same struct serves a solve's handle (owned by one solve at a time)
/// and the engine's per-method accumulator (updated by the finalizing
/// thread while metric readers copy it torn-free).
struct SolverCounters {
    /// Active-set rounds (KKT solves) of the eq-QP solvers, dense or
    /// operator (fanout, Bayesian above the dense-KKT limit).
    MetricCell<std::size_t> qp_active_set_rounds;
    /// Projected-CG iterations across those KKT solves (operator
    /// solver's matrix-free branch; 0 on the dense-gather path).
    MetricCell<std::size_t> qp_cg_iterations;
    /// Accepted exponentiated-gradient iterations of kl_regularized_ls.
    MetricCell<std::size_t> entropy_iterations;
    /// Armijo backtracking probes (objective evaluations) across those
    /// iterations — each probe costs one O(nnz) forward product, so
    /// probes, not iterations, are the entropy solver's real work unit.
    MetricCell<std::size_t> entropy_armijo_probes;
    /// Kruithof/MART multiplicative scaling sweeps.
    MetricCell<std::size_t> kruithof_sweeps;
    /// Lawson-Hanson NNLS outer active-set iterations (pivots).
    MetricCell<std::size_t> nnls_pivots;
    /// Solves (QP, NNLS, entropy, Kruithof/MART) that returned because
    /// a configured iteration cap stopped them short of convergence
    /// (SolveOutcome::iteration_capped); budget cuts are not counted.
    MetricCell<std::size_t> capped_solves;

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

}  // namespace tme::obs
