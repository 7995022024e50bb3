// Quadratic programming utilities.
//
// The fanout estimator (paper Section 4.2.4) solves
//
//     minimize    sum_k || R S[k] a - t[k] ||^2
//     subject to  sum_m a_nm = 1 for every source n,   a >= 0
//
// i.e. an equality-constrained QP with non-negativity.  One solver is
// provided, solve_eq_qp_nonneg_operator, with H supplied as a
// matrix-free operator: the fanout and Bayesian estimators' only solve
// path, at every scale.  Its dense-H test oracle lives with the tests
// (tests/linalg/dense_qp_reference.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/parallel.hpp"
#include "linalg/sparse.hpp"
#include "obs/counters.hpp"

namespace tme::linalg {

struct EqQpNonnegOptions {
    /// Optional active-set warm start: a prior primal point (typically
    /// the previous window's solution of a slowly drifting problem
    /// sequence).  Coordinates that are <= 0 in this vector seed the
    /// active set — they start pinned at zero, so the first KKT solve
    /// already works on the reduced free set.  The seed is *verified*:
    /// every round checks the Lagrange multipliers of the pinned
    /// coordinates, and the active-set pivoting repairs a drifted seed
    /// (pinned coordinates the optimum needs free) like any other
    /// infeasibility.  A seed that pins an equality row's whole support
    /// falls back to the cold path.  On the exact-LU path (every
    /// paper-scale problem) a warm solve returns the same minimizer as
    /// a cold solve.  The projected-CG regime stops where its
    /// decision tolerances, whose absolute floors dominate at small
    /// load scales, call the active set settled, and that point depends
    /// on the start: at 50 PoPs (Bayesian, lambda = 1000) warm and cold
    /// answers differ by up to ~5 % (max-norm relative), fanout by up
    /// to ~0.1 %.  Size must equal the number of variables.  Not owned;
    /// must outlive the call.
    const Vector* warm_start = nullptr;
    /// KKT systems whose bordered dimension (free variables + equality
    /// rows) is at most this are gathered into a dense matrix and
    /// LU-solved exactly — bit-for-bit a dense-H solve on matching
    /// inputs.  Larger systems switch to the matrix-free projected-CG
    /// solve, which never allocates anything quadratic in the variable
    /// count.  Every paper-scale problem (<= 600 pairs) sits far below
    /// the default.
    std::size_t dense_kkt_limit = 1024;
    /// Relative preconditioned-residual tolerance of the projected-CG
    /// inner solve.  The default sits just above the double-precision
    /// floor of the recurrence; asking for much less makes every inner
    /// solve burn its remaining budget at the floor without gaining
    /// accuracy.
    double cg_tolerance = 1e-10;
    /// Hard cap on CG iterations per KKT solve; 0 picks
    /// min(2 * (free + rows) + 50, 1500).  A capped (inexact) solve
    /// still yields a feasible iterate — the equality constraint is
    /// maintained by the projection, not by convergence.
    std::size_t cg_max_iterations = 0;
    /// Hard cap on active-set rounds (KKT solves); 0 picks 3n + 16.
    /// Time-boxed callers (benches, soft-real-time windows) can bound
    /// the whole solve; a capped run returns the last iterate clamped to
    /// the nonnegative orthant with converged = false.
    std::size_t max_active_set_rounds = 0;
    /// Optional iteration telemetry sink: on return the solver adds its
    /// active-set rounds to qp_active_set_rounds and its CG total to
    /// qp_cg_iterations.  Written once at the return site only —
    /// attaching counters never changes the arithmetic.
    /// Not owned; must outlive the call.
    obs::SolverCounters* counters = nullptr;
    /// Optional cooperative deadline, polled once per active-set round
    /// and once per projected-CG iteration.  A tripped budget returns
    /// the newest iterate (clamped to the nonnegative orthant, equality
    /// feasibility as maintained by the projection) with
    /// outcome = budget_exhausted.  Not owned; must outlive the call.
    SolveBudget* budget = nullptr;
    /// Optional block runner.  The fanout and Bayesian operators run
    /// their R x / R' y products as row-blocked kernels on it
    /// (linalg/blocked_spmv.hpp), and the CG regime runs its equality
    /// projection (the preconditioner, the feasible start and the
    /// multiplier estimate) as nnz-balanced blocks of E's rows on it;
    /// both are bitwise equal to the serial loops for any runner.  The
    /// CG vector updates and dot products stay serial.  In the CG
    /// regime (variables + equality rows > dense_kkt_limit) the solve
    /// holds a SolveScope on the runner for its whole run, so helpers
    /// stay between regions.  nullptr runs every block inline.  Not
    /// owned; must outlive the call.
    BlockRunner* parallel = nullptr;
};

struct EqQpNonnegResult {
    Vector x;
    /// Final active set: active[j] != 0 iff x_j is pinned at zero.
    /// Feed back into EqQpNonnegOptions::warm_start (via x itself) to
    /// warm-start the next solve of a nearby problem.
    std::vector<std::uint8_t> active;
    double equality_violation = 0.0;  ///< ||E x - d||_inf after solve
    std::size_t iterations = 0;       ///< KKT solves performed
    bool converged = false;
    /// True when a warm-start seed was supplied, passed KKT
    /// verification, and shaped the returned solution (no cold
    /// fall-back happened).
    bool warm_accepted = false;
    /// Total projected-CG iterations across the KKT solves (0 when
    /// every solve took the dense-gather path).
    std::size_t cg_iterations = 0;
    /// How the solve ended: converged, stopped by the
    /// max_active_set_rounds cap, or cut short by the SolveBudget (see
    /// linalg/budget.hpp).
    SolveOutcome outcome = SolveOutcome::converged;
};

/// Matrix-free Hessian H = A + diag(extra) for
/// solve_eq_qp_nonneg_operator: not even the CSR form of the matrix
/// part exists — at 500 PoPs the fanout/Bayesian data term's CSR Gram
/// alone would hold hundreds of millions of nonzeros, so the solver
/// works entirely through three closures:
///  * `apply`:   y = A x (matrix part only; the added `diagonal` and
///               the solver's ridge are applied by the driver) — one
///               call per CG iteration, O(nnz of the underlying
///               routing operator);
///  * `diag`:    fills a caller-sized vector with A's diagonal;
///  * `column`:  column j of A under the GramColumnOracle scratch +
///               ascending-support contract (see linalg/nnls.hpp) —
///               the dense-gather KKT branch and the pinned-multiplier
///               sweep read rows through it.
/// When `column`/`diag` replay the Gram kernels' accumulation order,
/// the exact-LU regime returns bit-for-bit the minimizer of a dense-H
/// solve on the equivalent Hessian; the CG regime agrees to solver
/// precision.
/// All closures must be set; `diagonal` (when non-null) must have
/// length `dimension` and outlive the call.
struct HessianOperator {
    std::size_t dimension = 0;
    std::function<void(const Vector& x, Vector& y)> apply;
    std::function<void(Vector& out)> diag;
    std::function<void(std::size_t j, std::vector<double>& scratch,
                       std::vector<std::size_t>& support)>
        column;
    const Vector* diagonal = nullptr;  ///< optional, length dimension
};

/// Minimizes (1/2) x'Hx - f'x  subject to  E x = d,  x >= 0, with the
/// Hessian supplied as a pure operator — no dense or CSR form of H is
/// ever materialized, so peak memory is O(n + nnz(E)) regardless of
/// how dense H itself would be.  The equality rows must partition the
/// variables: every column of E holds at most one nonzero (fanout's
/// per-source sums; a variable may sit in no row).  Any other E throws
/// std::invalid_argument.  The non-negativity constraints are
/// handled by a block principal pivoting active set (flip every
/// infeasibility while the count shrinks, Murty single-pivot fallback
/// when it stops; the multipliers of the pinned coordinates are checked
/// every round), so the returned point is the KKT point of the
/// (ridge-regularized) problem and warm and cold runs agree.  Each
/// round solves the equality-constrained subproblem on the free set:
/// problems whose bordered dimension fits
/// EqQpNonnegOptions::dense_kkt_limit gather the free-set KKT system
/// exactly and LU-solve it — on inputs whose generated values equal a
/// dense H the returned x and active set are bit-for-bit a dense-H
/// active-set solve's.  Larger problems use matrix-free projected CG
/// (constraint-preconditioned with the Jacobi diagonal M; one operator
/// apply per iteration, feasibility maintained by projection).  Under
/// the partition contract E_F M^-1 E_F' is diagonal, so the projection
/// is row-local and needs no factorization.  The active-set decision
/// tolerances grow with max diag(H), max |f| and the iterate magnitude
/// but carry absolute floors of 1, so the solver is NOT scale
/// invariant: for inputs well below 1 (every link load in this repo is
/// at most ~0.21) the floors bind and the same problem scaled by a
/// constant can stop at a different point.  m == 0 is allowed and
/// reduces to a bound-constrained solve — the Bayesian estimator's MAP
/// shape.
EqQpNonnegResult solve_eq_qp_nonneg_operator(
    const HessianOperator& h, const Vector& f, const SparseMatrix& e,
    const Vector& d, const EqQpNonnegOptions& options = {});

}  // namespace tme::linalg
