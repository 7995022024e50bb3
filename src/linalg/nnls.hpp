// Non-negative least squares:  minimize ||A x - b||_2  subject to x >= 0.
//
// Implemented as Lawson-Hanson active-set iteration working on the normal
// equations.  There is one solver core, nnls_operator, which never
// materializes the Gram: it reads G = A'A column by column through a
// GramColumnOracle.
//
//  * nnls_operator(G, Atb)   — the core.  Vardi runs here at every
//                              scale (its stacked second-moment system
//                              has L(L+1)/2 rows, but its Gram has a
//                              cheap closed form), and so does the
//                              Bayesian MAP estimate at or below the
//                              QP's dense_kkt_limit;
//  * nnls_gram(AtA, Atb)     — a thin adapter for callers that already
//                              hold the dense Gram A'A (cao, route
//                              change, the dense test oracles): it hands
//                              the matrix to the core as an oracle
//                              answering column j with its nonzeros.
//
// The fanout QP and the Bayesian MAP above that limit run through the
// operator QP instead (linalg/qp.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "linalg/budget.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "obs/counters.hpp"

namespace tme::linalg {

struct NnlsOptions {
    /// Dual-feasibility tolerance on the gradient w = A'(b - Ax).
    double tolerance = 1e-10;
    /// Hard cap on outer iterations; 0 means 3 * number of variables.
    std::size_t max_iterations = 0;
    /// Optional warm start: the passive set is seeded with the positive
    /// entries of this vector before the Lawson-Hanson loop.  The problem
    /// stays the same, so a strictly convex (positive-definite Gram)
    /// system converges to the same minimizer; only the active-set path
    /// is shortened.  Streaming callers pass the previous window's
    /// solution here.  Not owned; must outlive the call.
    const Vector* warm_start = nullptr;
    /// Treat the supplied Gram matrix as G + gram_diagonal_shift * I
    /// without materializing the shifted copy.  Ridge-regularized
    /// callers (the Bayesian estimator's prior term) pass the bare Gram
    /// plus this shift, saving an O(n^2) copy per solve; every read of
    /// a diagonal entry adds the shift, so the arithmetic is bit-for-bit
    /// the one the pre-shifted copy would produce.
    double gram_diagonal_shift = 0.0;
    /// Optional sparse operator A with A'A equal to the supplied Gram
    /// (before the diagonal shift).  When set, the dual refresh
    /// w = atb - (G + shift I) x is evaluated as atb - A'(A x) - shift x
    /// in O(nnz) instead of the O(n * |passive|) dense sweep — the
    /// difference between paper-scale and generated-backbone runtimes.
    /// The active-set subproblem itself stays dense (it factorizes
    /// G[passive, passive]).  Not owned; must outlive the call.
    const SparseMatrix* gram_operator = nullptr;
    /// Optional iteration telemetry sink: on return the solver adds its
    /// outer active-set iterations to nnls_pivots.  Written once at the
    /// return site only.  Not owned; must outlive the call.
    obs::SolverCounters* counters = nullptr;
    /// Optional cooperative deadline, polled once per outer pivot.  A
    /// tripped budget returns the current (always primal-feasible)
    /// iterate with outcome = budget_exhausted instead of pivoting on.
    /// Not owned; must outlive the call.
    SolveBudget* budget = nullptr;
};

struct NnlsResult {
    Vector x;                    ///< the non-negative solution
    double residual_norm = 0.0;  ///< ||A x - b||_2 (when computable)
    std::size_t iterations = 0;  ///< outer active-set iterations used
    bool converged = false;      ///< dual feasibility reached
    /// How the solve ended: converged, stopped by the configured
    /// max_iterations cap, or cut short by the SolveBudget (see
    /// linalg/budget.hpp for why the last two are distinct).
    SolveOutcome outcome = SolveOutcome::converged;
};

/// Lawson-Hanson NNLS given the Gram matrix G = A'A and g = A'b: the
/// nnls_operator core over an oracle that answers column j with
/// G(:, j)'s nonzeros, support ascending.  residual_norm in the result
/// is sqrt(max(0, x'Gx - 2 g'x + btb)) when btb (= b'b) is supplied,
/// otherwise 0.
NnlsResult nnls_gram(const Matrix& gram_matrix, const Vector& atb,
                     double btb = 0.0, const NnlsOptions& options = {});

/// Column access to an implicit symmetric positive (semi)definite Gram
/// matrix G that is never materialized.  `column(j, scratch, support)`
/// writes column j's nonzero values into `scratch` — a caller-owned
/// buffer of length `dimension` that is all-zero on entry — and the
/// ascending support indices into `support` (cleared by the callee);
/// entries outside `support` must be left zero, and the caller zeroes
/// the support entries back after reading.  When the generator replays
/// the Gram kernels' accumulation order (see linalg::gram_column), the
/// produced values are bitwise the rows of the dense Gram, so
/// nnls_operator over generated columns is bit-for-bit nnls_gram over
/// gram_sparse at scales where both can run.
struct GramColumnOracle {
    std::size_t dimension = 0;
    std::function<void(std::size_t j, std::vector<double>& scratch,
                       std::vector<std::size_t>& support)>
        column;
};

/// Lawson-Hanson NNLS with a factored passive-set solve over an
/// implicit Gram: columns are generated on demand through the oracle,
/// the Cholesky factor of G[passive, passive] is maintained under
/// single-index pivots (O(k^2) append, O(k^2) Givens-style removal),
/// and the dual refresh runs over the cached passive columns — or in
/// O(nnz) through `options.gram_operator` when one is supplied.
/// Nothing of size dimension^2 is ever allocated, dense or CSR; memory
/// is bounded by the passive columns' nonzeros plus the packed factor.
NnlsResult nnls_operator(const GramColumnOracle& gram, const Vector& atb,
                         double btb = 0.0, const NnlsOptions& options = {});

namespace detail {

/// Solves L x = b in place for the k x k lower-triangular factor stored
/// packed by rows (row i at offset i(i+1)/2, its diagonal last), as
/// nnls_operator's passive-set Cholesky factor is.  x holds b on entry.
/// Four rows' chains run side by side, which is where the speed is; the
/// rounding is fixed per term.  Row i subtracts its terms t-ascending:
/// those against earlier four-row blocks (t < 4*floor(i/4)) round the
/// product first, those inside its own block go through mul_add.  That
/// is the arithmetic the one-row loop it replaced compiled to: GCC
/// vectorizes that loop's products eight and four at a time and ends
/// with a scalar tail of at most three terms, which -march=native
/// contracts to FMAs on AVX-512 hosts.  So passive solves keep their
/// bits in the portable build and in such a native build alike.
void packed_forward_substitute(const double* l, std::size_t k, double* x);

}  // namespace detail

}  // namespace tme::linalg
