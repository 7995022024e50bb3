#include "core/vardi.hpp"

#include <cmath>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "linalg/nnls.hpp"
#include "linalg/stats.hpp"

namespace tme::core {

VardiResult vardi_estimate(const SeriesProblem& problem,
                           const VardiOptions& options) {
    problem.validate();
    if (options.second_moment_weight < 0.0) {
        throw std::invalid_argument("vardi_estimate: negative weight");
    }
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const double w = options.second_moment_weight;

    if ((options.mean_loads == nullptr) !=
        (options.load_covariance == nullptr)) {
        throw std::invalid_argument(
            "vardi_estimate: mean_loads and load_covariance must be "
            "supplied together");
    }
    const linalg::Vector that = options.mean_loads != nullptr
                                    ? *options.mean_loads
                                    : linalg::sample_mean(problem.loads);
    const linalg::Matrix sigma =
        options.load_covariance != nullptr
            ? *options.load_covariance
            : linalg::sample_covariance(problem.loads);
    if (that.size() != r.rows() || sigma.rows() != r.rows() ||
        sigma.cols() != r.rows()) {
        throw std::invalid_argument("vardi_estimate: moment dimensions");
    }

    if (options.shared_routing_transpose != nullptr &&
        (options.shared_routing_transpose->rows() != pairs ||
         options.shared_routing_transpose->cols() != r.rows())) {
        throw std::invalid_argument(
            "vardi_estimate: shared routing transpose dimension mismatch");
    }

    // Right-hand side R' that + w * q with q_p = r_p' Sigmahat r_p (the
    // second-moment block, see header).
    linalg::Vector rhs = r.multiply_transpose(that);
    if (w > 0.0) {
        // Column supports of R for the quadratic forms.
        std::vector<std::vector<std::pair<std::size_t, double>>> columns(
            pairs);
        const auto& offsets = r.row_offsets();
        const auto& cols = r.column_indices();
        const auto& vals = r.values();
        for (std::size_t l = 0; l < r.rows(); ++l) {
            for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                columns[cols[k]].push_back({l, vals[k]});
            }
        }
        for (std::size_t p = 0; p < pairs; ++p) {
            double q = 0.0;
            for (const auto& [l, vl] : columns[p]) {
                for (const auto& [m, vm] : columns[p]) {
                    q += vl * vm * sigma(l, m);
                }
            }
            rhs[p] += w * q;
        }
    }

    // Columns of the transformed Gram G1 + w * (G1 .* G1), G1 = R'R,
    // generated on demand; nothing pairs x pairs is built.
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
    linalg::GramColumnOracle oracle;
    oracle.dimension = pairs;
    oracle.column = [rv, rtv, w](std::size_t j,
                                 std::vector<double>& scratch,
                                 std::vector<std::size_t>& support) {
        linalg::gram_column(rv, rtv, j, scratch.data(), support);
        if (w > 0.0) {
            // The entrywise transform, applied per support entry (the
            // skipped entries are exact zeros, which it maps to zero).
            for (const std::size_t q : support) {
                const double g1 = scratch[q];
                scratch[q] = g1 + w * g1 * g1;
            }
        }
    };
    linalg::NnlsOptions nnls_options;
    nnls_options.warm_start = options.warm_start;
    nnls_options.counters = options.counters;
    nnls_options.budget = options.budget;
    VardiResult result;
    result.lambda = linalg::nnls_operator(oracle, rhs, 0.0, nnls_options).x;

    // Residual diagnostics.
    const linalg::Vector pred = r.multiply(result.lambda);
    result.first_moment_residual = linalg::nrm2(linalg::sub(pred, that));
    if (w > 0.0) {
        // ||R diag(lambda) R' - Sigmahat||_F: accumulate the model
        // covariance M = R D R' from R's column supports (each demand p
        // adds lambda_p r_p r_p'), then take the Frobenius difference.
        double acc = 0.0;
        const std::size_t links = r.rows();
        const auto& offsets = r.row_offsets();
        const auto& cols = r.column_indices();
        const auto& vals = r.values();
        std::vector<std::vector<std::pair<std::size_t, double>>> columns(
            pairs);
        for (std::size_t l = 0; l < r.rows(); ++l) {
            for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                columns[cols[k]].push_back({l, vals[k]});
            }
        }
        // links x links second-moment matrix, not pairs x pairs.
        // lint: allow(dense-alloc)
        linalg::Matrix m(links, links, 0.0);
        for (std::size_t p = 0; p < pairs; ++p) {
            const double lp = result.lambda[p];
            if (lp == 0.0) continue;
            for (const auto& [l, vl] : columns[p]) {
                for (const auto& [mm, vm] : columns[p]) {
                    m(l, mm) += vl * vm * lp;
                }
            }
        }
        for (std::size_t l = 0; l < links; ++l) {
            for (std::size_t mm = 0; mm < links; ++mm) {
                const double d = m(l, mm) - sigma(l, mm);
                acc += d * d;
            }
        }
        result.second_moment_residual = std::sqrt(acc);
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "vardi_estimate", result.lambda, /*require_nonnegative=*/true));
    return result;
}

}  // namespace tme::core
