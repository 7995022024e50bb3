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

    // Gram-free: neither the dense nor the CSR Gram ever exists (see
    // the file comment for the NNLS / operator-QP split).
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
        nnls_options.warm_start = options.qp.warm_start;
        nnls_options.gram_diagonal_shift = w;
        nnls_options.gram_operator = &r;
        nnls_options.counters = options.qp.counters;
        nnls_options.budget = options.qp.budget;
        linalg::Vector x =
            linalg::nnls_operator(oracle, rhs, 0.0, nnls_options).x;
        TME_CONTRACT_DBG_CHECK(check::solver_boundary(
            "bayesian_estimate", x, /*require_nonnegative=*/true));
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
    hessian.diag = [rtv](linalg::Vector& out) {
        linalg::gram_diagonal(rtv, out.data());
    };
    hessian.column = [rv, rtv](std::size_t j,
                               std::vector<double>& scratch,
                               std::vector<std::size_t>& support) {
        linalg::gram_column(rv, rtv, j, scratch.data(), support);
    };
    hessian.diagonal = &shift;
    linalg::Vector x = linalg::solve_eq_qp_nonneg_operator(
                           hessian, rhs, linalg::SparseMatrix(), {},
                           options.qp)
                           .x;
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "bayesian_estimate", x, /*require_nonnegative=*/true));
    return x;
}

}  // namespace tme::core
