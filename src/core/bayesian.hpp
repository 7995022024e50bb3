// Bayesian / regularized least-squares estimation (paper Section 4.2.3).
//
// With a Gaussian prior s ~ N(s_prior, sigma^2 I) and unit-variance
// measurement noise t = R s + v, the MAP estimate solves (eq. 7)
//
//     minimize  ||R s - t||^2 + sigma^{-2} ||s - s_prior||^2,   s >= 0.
//
// We parameterize by the regularization parameter lambda = sigma^2: small
// lambda pins the estimate to the prior, large lambda trusts the link
// measurements (the regime the paper finds best, Fig. 13).  The problem
// is a stacked NNLS solved in Gram form:  G = R'R + (1/lambda) I,
// g = R't + (1/lambda) s_prior — without G ever existing, dense or CSR.
// Problems of at most qp.dense_kkt_limit pairs (every paper-scale one)
// run the factored passive-set NNLS over on-demand Gram columns
// (linalg::gram_column), bit-for-bit the dense nnls_gram over R'R.
// Larger problems run the operator QP with R'(R x) applied implicitly:
// the positive prior makes the MAP solution dense-positive, so an
// active-set NNLS would pivot once per pair, while block pivoting
// reaches the same strictly convex minimizer in a handful of rounds.
#pragma once

#include "core/problem.hpp"
#include "linalg/qp.hpp"

namespace tme::core {

struct BayesianOptions {
    /// Regularization parameter lambda = sigma^2 (> 0).
    double regularization = 1000.0;
    /// Optional precomputed CSR transpose of the routing matrix; MUST
    /// equal linalg::transpose(*problem.routing) (the engine caches it
    /// per routing epoch); derived on the fly when absent.  Not owned.
    const linalg::SparseMatrix* shared_routing_transpose = nullptr;
    /// Solve tuning, read by whichever solver runs.  dense_kkt_limit
    /// picks the solver (see the file comment).  Both solvers read
    /// warm_start (G + (1/lambda) I is positive definite, so the
    /// minimizer is unique: the NNLS reaches it warm or cold, while the
    /// operator QP's CG regime stops at a start-dependent point a few
    /// percent away at large lambda, see qp.hpp), counters
    /// (the NNLS adds pivots; the operator QP adds active-set rounds /
    /// CG iterations) and budget (a tripped budget yields the solver's
    /// best feasible iterate; the caller reads budget->expired()
    /// afterwards to learn the solve was cut).  The operator QP above
    /// the limit also reads the projected-CG tolerance and caps and the
    /// block runner `parallel`.
    linalg::EqQpNonnegOptions qp;
};

/// MAP estimate with non-negativity.  `prior` is pair-indexed.
linalg::Vector bayesian_estimate(const SnapshotProblem& problem,
                                 const linalg::Vector& prior,
                                 const BayesianOptions& options = {});

}  // namespace tme::core
