// Solver for KL-regularized least squares over the non-negative orthant:
//
//     minimize_{s >= 0}  ||A s - b||_2^2  +  w * D(s || p)
//
// where D(s||p) = sum_i [ s_i log(s_i/p_i) - s_i + p_i ] is the
// generalized Kullback-Leibler divergence from the prior p > 0.  This is
// the optimization problem behind the paper's Entropy approach
// (Zhang et al., eq. (6)), with w = sigma^{-2}.
//
// The solver is exponentiated gradient (mirror descent with entropic
// mirror map): s <- s .* exp(-eta * grad F(s)), with Armijo backtracking
// on the objective.  Iterates remain strictly positive, which keeps the
// KL term and its gradient well defined; coordinates can approach zero
// geometrically, which is the correct behaviour for demands the data says
// are absent.
//
// The data term is pure operator form: A enters only through A x / A' x
// sweeps over its nonzeros (A'A is never formed, and no allocation is
// quadratic in the pair count), and the product A s is carried across
// accepted steps, as is the probe's log(s/p), which the next gradient
// reuses.  So one iteration costs, per backtracking probe, one O(nnz)
// product and one exp and one divide+log per variable, plus one O(nnz)
// transpose product for the gradient.  This is what lets the Entropy
// estimator run at generated-backbone scale (9,900+ pairs) inside the
// per-window budget; see PERF.md.
#pragma once

#include <cstddef>

#include "linalg/budget.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"

namespace tme::linalg {

struct EntropySolverOptions {
    std::size_t max_iterations = 4000;
    /// Relative first-order stationarity tolerance.
    double tolerance = 1e-9;
    /// Optional initial iterate (warm start).  Entries are clamped to the
    /// same strictly-positive floor as the prior (1e-12 * mean(prior),
    /// which keeps log(s/p) finite for structurally-zero priors).  The
    /// objective is strictly convex for w > 0, so the minimizer is
    /// unchanged; a good initial point (e.g. the previous window's
    /// solution in a streaming setting) only shortens the iteration.
    /// Not owned.
    const Vector* initial = nullptr;
    /// Optional iteration telemetry sink: on return the solver adds its
    /// accepted iterations to entropy_iterations and its backtracking
    /// objective evaluations to entropy_armijo_probes.  Written once at
    /// the return site only.  Not owned; must outlive the call.
    obs::SolverCounters* counters = nullptr;
    /// Optional cooperative deadline, polled once per outer iteration
    /// (before each gradient evaluation).  A tripped budget returns the
    /// current strictly-positive iterate — every accepted step only
    /// ever lowered the objective, so it is the best point visited —
    /// with outcome = budget_exhausted.  Not owned; must outlive the
    /// call.
    SolveBudget* budget = nullptr;
};

struct EntropySolverResult {
    Vector s;
    double objective = 0.0;
    std::size_t iterations = 0;
    bool converged = false;
    /// How the solve ended: converged, stopped by max_iterations, or
    /// cut short by the SolveBudget (see linalg/budget.hpp).
    SolveOutcome outcome = SolveOutcome::converged;
};

/// Minimizes ||A s - b||^2 + w * D(s || prior) for s >= 0.
/// Requires w >= 0 and prior with at least one positive entry.
EntropySolverResult kl_regularized_ls(const SparseMatrix& a, const Vector& b,
                                      const Vector& prior, double w,
                                      const EntropySolverOptions& options = {});

/// Generalized KL divergence D(s||p) = sum s_i log(s_i/p_i) - s_i + p_i.
/// Zero entries of s contribute p_i; requires p > 0 elementwise.
double generalized_kl(const Vector& s, const Vector& p);

}  // namespace tme::linalg
