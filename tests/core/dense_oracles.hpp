// Dense reference solves for the Gram-free estimators.  Each oracle
// materializes the pairs x pairs matrix the production path never
// builds — R'R for Bayesian, the transformed Gram G1 + w * (G1 .* G1)
// for Vardi, the source-weighted Hessian sum_k W_k (R'R) W_k for fanout
// — and hands it to a dense solver: nnls_gram, or for fanout the
// test-only dense-H QP in tests/linalg/dense_qp_reference.hpp.
// The production paths generate the same doubles on demand, so at
// paper scale they are gated bitwise against these.  Paper scale only: the dense matrices are quadratic
// in the pair count.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bayesian.hpp"
#include "core/fanout.hpp"
#include "core/problem.hpp"
#include "core/vardi.hpp"
#include "linalg/dense_qp_reference.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qp.hpp"
#include "linalg/stats.hpp"

namespace tme::core::testing {

/// MAP estimate through the dense Gram: nnls_gram over R'R with the
/// prior precision as a virtual diagonal shift and the O(nnz) dual
/// refresh through R.
inline linalg::Vector bayesian_dense_oracle(const SnapshotProblem& problem,
                                            const linalg::Vector& prior,
                                            const BayesianOptions& options) {
    const linalg::SparseMatrix& r = *problem.routing;
    const double w = 1.0 / options.regularization;
    const linalg::Matrix g = r.gram();
    linalg::Vector rhs = r.multiply_transpose(problem.loads);
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += w * prior[i];

    linalg::NnlsOptions nnls_options;
    nnls_options.warm_start = options.qp.warm_start;
    nnls_options.gram_diagonal_shift = w;
    nnls_options.gram_operator = &r;
    return linalg::nnls_gram(g, rhs, 0.0, nnls_options).x;
}

/// Vardi's moment-matching NNLS through the dense transformed Gram
/// G1 + w * (G1 .* G1), moments taken from the problem's window.
inline linalg::Vector vardi_dense_oracle(const SeriesProblem& problem,
                                         const VardiOptions& options) {
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const double w = options.second_moment_weight;
    const linalg::Vector that = linalg::sample_mean(problem.loads);
    const linalg::Matrix sigma = linalg::sample_covariance(problem.loads);

    linalg::Matrix g = r.gram();
    linalg::Vector rhs = r.multiply_transpose(that);
    if (w > 0.0) {
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
        for (std::size_t p = 0; p < pairs; ++p) {
            for (std::size_t qx = 0; qx < pairs; ++qx) {
                const double g1 = g(p, qx);
                g(p, qx) = g1 + w * g1 * g1;
            }
        }
    }
    linalg::NnlsOptions nnls_options;
    nnls_options.warm_start = options.warm_start;
    return linalg::nnls_gram(g, rhs, 0.0, nnls_options).x;
}

/// Fanouts through the dense-H reference QP over a dense E.  The
/// window sums are accumulated here per sample, from their definitions:
/// outer = sum_k te_k te_k' (te_k[n] the ingress load of source n) and
/// f = sum_k w_k .* (R' t[k]) with w_k[p] = te_k[src(p)].  The Hessian
/// is H(p, q) = outer(src p, src q) * G1(p, q) — the doubles the
/// production operator generates.  The gravity tie-break ridge is
/// scaled off H's largest diagonal entry, as in fanout_estimate.
inline linalg::Vector fanout_dense_oracle(const SeriesProblem& problem,
                                          const FanoutOptions& options) {
    const topology::Topology& topo = *problem.topo;
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const std::size_t nodes = topo.pop_count();
    const FanoutConstraints constraints = FanoutConstraints::build(topo);
    const std::vector<std::size_t>& source_of = constraints.source_of;

    linalg::Matrix outer(nodes, nodes, 0.0);
    linalg::Vector f(pairs, 0.0);
    for (const linalg::Vector& t : problem.loads) {
        linalg::Vector te(nodes, 0.0);
        for (std::size_t n = 0; n < nodes; ++n) {
            te[n] = t[topo.ingress_link(n)];
        }
        for (std::size_t n1 = 0; n1 < nodes; ++n1) {
            for (std::size_t n2 = 0; n2 < nodes; ++n2) {
                outer(n1, n2) += te[n1] * te[n2];
            }
        }
        const linalg::Vector rt = r.multiply_transpose(t);
        for (std::size_t p = 0; p < pairs; ++p) {
            f[p] += te[source_of[p]] * rt[p];
        }
    }

    const linalg::Matrix g1 = r.gram();
    linalg::Matrix h(pairs, pairs, 0.0);
    for (std::size_t p = 0; p < pairs; ++p) {
        for (std::size_t q = 0; q < pairs; ++q) {
            if (g1(p, q) != 0.0) {
                h(p, q) = outer(source_of[p], source_of[q]) * g1(p, q);
            }
        }
    }

    if (options.gravity_tiebreak_weight > 0.0) {
        const linalg::Vector mean_loads = linalg::sample_mean(problem.loads);
        double total_exit = 0.0;
        for (std::size_t m = 0; m < nodes; ++m) {
            total_exit += mean_loads[topo.egress_link(m)];
        }
        double hmax = 0.0;
        for (std::size_t p = 0; p < pairs; ++p) hmax = std::max(hmax, h(p, p));
        const double eps =
            options.gravity_tiebreak_weight * std::max(hmax, 1e-300);
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t dst = topo.pair_nodes(p).second;
            const double alpha_gravity =
                total_exit > 0.0
                    ? mean_loads[topo.egress_link(dst)] / total_exit
                    : 0.0;
            h(p, p) += eps;
            f[p] += eps * alpha_gravity;
        }
    }

    linalg::Matrix e(nodes, pairs, 0.0);
    for (std::size_t p = 0; p < pairs; ++p) e(source_of[p], p) = 1.0;
    linalg::EqQpNonnegOptions qp_options;
    qp_options.warm_start = options.qp.warm_start;
    return linalg::testing::solve_eq_qp_nonneg(h, f, e, constraints.rhs,
                                               qp_options)
        .x;
}

}  // namespace tme::core::testing
