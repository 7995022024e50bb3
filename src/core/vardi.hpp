// Vardi's Poissonian moment-matching estimator (paper Section 4.2.2;
// Vardi 1996).
//
// Under s_p ~ Poisson(lambda_p), link loads satisfy E{t} = R lambda and
// Cov{t} = R diag(lambda) R'.  Matching sample moments in least squares
// (Csiszar's argument for LS over KL when observations may be negative)
// gives
//
//   minimize  ||R lambda - that||^2
//             + w * || R diag(lambda) R' - Sigmahat ||_F^2,  lambda >= 0
//
// with w = sigma^{-2} in [0, 1] expressing faith in the Poisson
// assumption.  Both terms are linear in lambda, so this is one big NNLS;
// the second-moment block has L^2 rows but its Gram contribution has the
// closed form (R'R) .* (R'R), and its right-hand side is
// q_p = r_p' Sigmahat r_p — so the problem is solved entirely in Gram
// form without materializing the stacked matrix.  Nor is the
// transformed Gram G1 + w * (G1 .* G1) materialized: its columns are
// generated on demand from R and R' (linalg::gram_column) with the
// entrywise transform applied per support entry, and the NNLS runs its
// factored passive-set solve over them — bit-for-bit the dense
// nnls_gram over the transformed Gram.
#pragma once

#include "core/problem.hpp"
#include "linalg/budget.hpp"
#include "obs/counters.hpp"

namespace tme::core {

struct VardiOptions {
    /// Weight w = sigma^{-2} on the second-moment equations (paper uses
    /// 0.01 and 1 in Table 1).
    double second_moment_weight = 1.0;
    /// Optional precomputed window moments: mean_loads =
    /// linalg::sample_mean and load_covariance =
    /// linalg::sample_covariance of the window loads, the functions
    /// called here when they are absent.  The online engine computes
    /// them once per window at capture.  Either both or neither must be
    /// set.  Not owned.
    const linalg::Vector* mean_loads = nullptr;
    const linalg::Matrix* load_covariance = nullptr;
    /// Optional precomputed CSR transpose of the routing matrix; MUST
    /// equal linalg::transpose(*problem.routing) (the engine caches it
    /// per routing epoch); derived on the fly when absent.  Not owned.
    const linalg::SparseMatrix* shared_routing_transpose = nullptr;
    /// Optional warm start for the NNLS (previous window's lambda).
    const linalg::Vector* warm_start = nullptr;
    /// Optional iteration telemetry sink: the moment-matching NNLS adds
    /// its pivots on return.  Not owned; must outlive the call.
    obs::SolverCounters* counters = nullptr;
    /// Optional cooperative deadline, forwarded to the NNLS.  A tripped
    /// budget yields the current primal-feasible iterate; the caller
    /// reads budget->expired() afterwards to learn the solve was cut.
    /// Not owned; must outlive the call.
    linalg::SolveBudget* budget = nullptr;
};

struct VardiResult {
    linalg::Vector lambda;          ///< estimated mean rates
    double first_moment_residual = 0.0;   ///< ||R lambda - that||_2
    double second_moment_residual = 0.0;  ///< ||R diag(l) R' - Sigmahat||_F
};

/// Estimates lambda from a window of load measurements.
VardiResult vardi_estimate(const SeriesProblem& problem,
                           const VardiOptions& options = {});

}  // namespace tme::core
