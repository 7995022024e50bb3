#include "core/bayesian.hpp"

#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "linalg/blocked_spmv.hpp"
#include "linalg/nnls.hpp"

namespace tme::core {

linalg::Vector bayesian_estimate(const SnapshotProblem& problem,
                                 const linalg::Vector& prior,
                                 const BayesianOptions& options) {
    problem.validate();
    const linalg::SparseMatrix& r = *problem.routing;
    if (prior.size() != r.cols()) {
        throw std::invalid_argument("bayesian_estimate: prior size mismatch");
    }
    if (options.regularization <= 0.0) {
        throw std::invalid_argument(
            "bayesian_estimate: regularization must be positive");
    }
    TME_CONTRACT_DBG_CHECK(
        check::finite(prior, "bayesian_estimate prior"));
    const double w = 1.0 / options.regularization;  // sigma^{-2}

    // Gram-free path: neither the dense nor the CSR Gram ever exists.
    // Below the dense-KKT limit the factored-passive-set NNLS works on
    // on-demand Gram columns (bit-for-bit the dense NNLS path); above
    // it the operator QP applies A'A implicitly — the positive prior
    // makes the MAP solution dense-positive, which would cost an
    // active-set NNLS one pivot per pair, while block pivoting reaches
    // the same strictly convex minimizer in a handful of rounds.
    if (options.operator_form) {
        const std::size_t pairs = r.cols();
        if (options.shared_routing_transpose != nullptr &&
            (options.shared_routing_transpose->rows() != pairs ||
             options.shared_routing_transpose->cols() != r.rows())) {
            throw std::invalid_argument(
                "bayesian_estimate: shared routing transpose dimension "
                "mismatch");
        }
        linalg::SparseMatrix rt_local;
        if (options.shared_routing_transpose == nullptr) {
            rt_local = linalg::transpose(r);
        }
        const linalg::SparseMatrix& rt =
            options.shared_routing_transpose != nullptr
                ? *options.shared_routing_transpose
                : rt_local;
        const linalg::CsrView rv = r.view();
        const linalg::CsrView rtv = rt.view();
        linalg::Vector rhs = r.multiply_transpose(problem.loads);
        for (std::size_t i = 0; i < rhs.size(); ++i) {
            rhs[i] += w * prior[i];
        }

        if (pairs <= options.qp.dense_kkt_limit) {
            linalg::GramColumnOracle oracle;
            oracle.dimension = pairs;
            oracle.column = [rv, rtv](std::size_t j,
                                      std::vector<double>& scratch,
                                      std::vector<std::size_t>& support) {
                linalg::gram_column(rv, rtv, j, scratch.data(), support);
            };
            linalg::NnlsOptions nnls_options;
            nnls_options.warm_start = options.warm_start;
            nnls_options.gram_diagonal_shift = w;
            nnls_options.gram_operator = &r;
            nnls_options.counters = options.counters;
            nnls_options.budget = options.budget;
            linalg::Vector x =
                linalg::nnls_operator(oracle, rhs, 0.0, nnls_options).x;
            TME_CONTRACT_DBG_CHECK(check::solver_boundary(
                "bayesian_estimate (operator)", x,
                /*require_nonnegative=*/true));
            return x;
        }

        const linalg::Vector shift(pairs, w);
        linalg::HessianOperator hessian;
        hessian.dimension = pairs;
        // A x = R'(R x) as two row-blocked passes on the caller's block
        // runner (bitwise the serial products).
        const linalg::RoutingOperator routing_op(r);
        hessian.apply = [&routing_op, parallel = options.qp.parallel,
                         tmp = linalg::Vector(r.rows(), 0.0)](
                            const linalg::Vector& x,
                            linalg::Vector& y) mutable {
            routing_op.multiply(x, tmp, parallel);
            routing_op.multiply_transpose(tmp, y, parallel);
        };
        // G(p, p) = sum of squares over column p's carriers, source
        // rows ascending — the Gram kernels' diagonal accumulation.
        hessian.diag = [rtv](linalg::Vector& out) {
            for (std::size_t j = 0; j < rtv.rows; ++j) {
                double dj = 0.0;
                for (std::size_t t = rtv.offsets[j]; t < rtv.offsets[j + 1];
                     ++t) {
                    dj += rtv.values[t] * rtv.values[t];
                }
                out[j] = dj;
            }
        };
        hessian.column = [rv, rtv](std::size_t j,
                                   std::vector<double>& scratch,
                                   std::vector<std::size_t>& support) {
            linalg::gram_column(rv, rtv, j, scratch.data(), support);
        };
        hessian.diagonal = &shift;
        linalg::EqQpNonnegOptions qp_options = options.qp;
        qp_options.equality_operator = nullptr;
        qp_options.warm_start = options.warm_start;
        qp_options.counters = options.counters;
        if (options.budget != nullptr) qp_options.budget = options.budget;
        linalg::Vector x = linalg::solve_eq_qp_nonneg_operator(
                               hessian, rhs, linalg::SparseMatrix(), {},
                               qp_options)
                               .x;
        TME_CONTRACT_DBG_CHECK(check::solver_boundary(
            "bayesian_estimate (operator)", x,
            /*require_nonnegative=*/true));
        return x;
    }

    // Factored path: the MAP normal system G + w I is exactly the
    // factored QP's Hessian shape (sparse CSR Gram + diagonal), and the
    // problem has no equality constraints — nothing quadratic in the
    // pair count is allocated.  Strictly convex, so the minimizer
    // matches the NNLS path below to solver precision.
    if (options.shared_sparse_gram != nullptr &&
        options.shared_gram == nullptr) {
        const linalg::SparseMatrix& g = *options.shared_sparse_gram;
        if (g.rows() != r.cols() || g.cols() != r.cols()) {
            throw std::invalid_argument(
                "bayesian_estimate: shared sparse gram dimension mismatch");
        }
        linalg::Vector rhs = r.multiply_transpose(problem.loads);
        for (std::size_t i = 0; i < rhs.size(); ++i) {
            rhs[i] += w * prior[i];
        }
        const linalg::Vector shift(r.cols(), w);
        linalg::FactoredHessian hessian;
        hessian.matrix = g.view();
        hessian.diagonal = &shift;
        linalg::EqQpNonnegOptions qp_options = options.qp;
        qp_options.equality_operator = nullptr;
        qp_options.warm_start = options.warm_start;
        qp_options.counters = options.counters;
        if (options.budget != nullptr) qp_options.budget = options.budget;
        linalg::Vector x =
            linalg::solve_eq_qp_nonneg_factored(
                hessian, rhs, linalg::SparseMatrix(), {}, qp_options)
                .x;
        TME_CONTRACT_DBG_CHECK(check::solver_boundary(
            "bayesian_estimate (factored)", x,
            /*require_nonnegative=*/true));
        return x;
    }

    // The prior term only shifts the Gram diagonal, so the solver takes
    // the bare Gram plus a virtual shift: no per-window O(P^2) copy of
    // a shared epoch Gram, and the dual refresh runs over R's nonzeros.
    linalg::Matrix local_gram;
    if (options.shared_gram != nullptr) {
        if (options.shared_gram->rows() != r.cols() ||
            options.shared_gram->cols() != r.cols()) {
            throw std::invalid_argument(
                "bayesian_estimate: shared gram dimension mismatch");
        }
    } else {
        local_gram = r.gram();
    }
    const linalg::Matrix& g = options.shared_gram != nullptr
                                  ? *options.shared_gram
                                  : local_gram;
    linalg::Vector rhs = r.multiply_transpose(problem.loads);
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += w * prior[i];

    linalg::NnlsOptions nnls_options;
    nnls_options.warm_start = options.warm_start;
    nnls_options.gram_diagonal_shift = w;
    nnls_options.gram_operator = &r;
    nnls_options.counters = options.counters;
    nnls_options.budget = options.budget;
    linalg::Vector x = linalg::nnls_gram(g, rhs, 0.0, nnls_options).x;
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "bayesian_estimate", x, /*require_nonnegative=*/true));
    return x;
}

}  // namespace tme::core
