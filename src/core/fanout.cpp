#include "core/fanout.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "linalg/blocked_spmv.hpp"
#include "linalg/qp.hpp"
#include "linalg/stats.hpp"

namespace tme::core {

namespace {

// w_k[p] = te(src(p))[k]: per-pair source totals from the ingress rows.
linalg::Vector pair_source_totals(const topology::Topology& topo,
                                  const linalg::Vector& loads) {
    linalg::Vector w(topo.pair_count(), 0.0);
    for (std::size_t p = 0; p < topo.pair_count(); ++p) {
        const auto [src, dst] = topo.pair_nodes(p);
        (void)dst;
        w[p] = loads[topo.ingress_link(src)];
    }
    return w;
}

}  // namespace

FanoutConstraints FanoutConstraints::build(const topology::Topology& topo) {
    FanoutConstraints c;
    const std::size_t pairs = topo.pair_count();
    const std::size_t nodes = topo.pop_count();
    c.source_of.resize(pairs);
    std::vector<linalg::Triplet> trips;
    trips.reserve(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t src = topo.pair_nodes(p).first;
        c.source_of[p] = src;
        trips.push_back({src, p, 1.0});
    }
    c.equality_sparse = linalg::SparseMatrix(nodes, pairs, std::move(trips));
    c.rhs.assign(nodes, 1.0);
    return c;
}

FanoutWindowSums fanout_window_sums(const SeriesProblem& problem) {
    problem.validate_with_topology();
    const topology::Topology& topo = *problem.topo;
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const std::size_t nodes = topo.pop_count();
    FanoutWindowSums sums;
    // nodes x nodes, not pairs x pairs: 2 MB at 500 PoPs.
    // lint: allow(dense-alloc)
    sums.source_outer = linalg::Matrix(nodes, nodes, 0.0);
    sums.weighted_rhs.assign(pairs, 0.0);
    std::vector<std::size_t> source_of(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
        source_of[p] = topo.pair_nodes(p).first;
    }
    linalg::Vector te(nodes, 0.0);
    linalg::Vector rt;
    for (const linalg::Vector& t : problem.loads) {
        for (std::size_t n = 0; n < nodes; ++n) {
            te[n] = t[topo.ingress_link(n)];
        }
        for (std::size_t n1 = 0; n1 < nodes; ++n1) {
            const double te1 = te[n1];
            if (te1 == 0.0) continue;
            double* __restrict orow = sums.source_outer.row_data(n1);
            for (std::size_t n2 = 0; n2 < nodes; ++n2) {
                orow[n2] += te1 * te[n2];
            }
        }
        r.multiply_transpose_into(t, rt);
        for (std::size_t p = 0; p < pairs; ++p) {
            sums.weighted_rhs[p] += te[source_of[p]] * rt[p];
        }
    }
    return sums;
}

FanoutResult fanout_estimate(const SeriesProblem& problem,
                             const FanoutOptions& options) {
    problem.validate_with_topology();
    const topology::Topology& topo = *problem.topo;
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const std::size_t nodes = topo.pop_count();
    const std::size_t window = problem.loads.size();

    const FanoutWindowAggregates& agg = options.aggregates;
    if (!agg.complete() && !agg.empty()) {
        throw std::invalid_argument(
            "fanout_estimate: window aggregates must be supplied together");
    }
    if (agg.complete() &&
        (agg.source_outer->rows() != nodes ||
         agg.source_outer->cols() != nodes ||
         agg.weighted_rhs->size() != pairs ||
         agg.mean_loads->size() != r.rows())) {
        throw std::invalid_argument(
            "fanout_estimate: aggregate dimension mismatch");
    }

    // Equality-constraint structure (per source, fanouts sum to one):
    // shared per routing epoch by the engine, derived locally otherwise.
    FanoutConstraints local_constraints;
    if (options.shared_constraints != nullptr) {
        if (options.shared_constraints->source_of.size() != pairs ||
            options.shared_constraints->equality_sparse.rows() != nodes ||
            options.shared_constraints->equality_sparse.cols() != pairs) {
            throw std::invalid_argument(
                "fanout_estimate: shared constraints dimension mismatch");
        }
    } else {
        local_constraints = FanoutConstraints::build(topo);
    }
    const FanoutConstraints& constraints =
        options.shared_constraints != nullptr ? *options.shared_constraints
                                              : local_constraints;

    // Window sums: supplied by the caller (the engine computes them
    // once per window with the same functions) or computed here.
    FanoutWindowAggregates sums = agg;
    FanoutWindowSums local_sums;
    linalg::Vector local_mean;
    if (agg.empty()) {
        local_sums = fanout_window_sums(problem);
        local_mean = linalg::sample_mean(problem.loads);
        sums = {&local_sums.source_outer, &local_sums.weighted_rhs,
                &local_mean};
    }
    const linalg::Matrix& outer = *sums.source_outer;
    const linalg::Vector& mean_loads = *sums.mean_loads;
    const std::vector<std::size_t>& source_of = constraints.source_of;
    // Linear term f = sum_k W_k R' t[k].
    linalg::Vector f = *sums.weighted_rhs;

    // The data term H = sum_k W_k G1 W_k (G1 = R'R) is never built:
    // H(p, q) = outer(src(p), src(q)) * G1(p, q) with outer the
    // source-totals matrix sum_k te_k te_k' (nodes x nodes, from the
    // aggregates or built here), so the Hessian operator below needs
    // only the routing transpose (epoch-cached or derived), the G1
    // diagonal (linalg::gram_diagonal), outer, and the
    // per-sample window factors its applies run through.
    const linalg::SparseMatrix* rtp = nullptr;
    linalg::SparseMatrix rt_local;
    if (options.shared_routing_transpose != nullptr) {
        if (options.shared_routing_transpose->rows() != pairs ||
            options.shared_routing_transpose->cols() != r.rows()) {
            throw std::invalid_argument(
                "fanout_estimate: shared routing transpose dimension "
                "mismatch");
        }
        rtp = options.shared_routing_transpose;
    } else {
        rt_local = linalg::transpose(r);
        rtp = &rt_local;
    }
    const linalg::CsrView rv = r.view();
    const linalg::CsrView rtv = rtp->view();
    linalg::Vector d1(pairs, 0.0);
    linalg::gram_diagonal(rtv, d1.data());
    // w_k[p] = te_k(src(p)): per-source totals at n * window + k.
    std::vector<double> source_w(nodes * window, 0.0);
    for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t k = 0; k < window; ++k) {
            source_w[n * window + k] = problem.loads[k][topo.ingress_link(n)];
        }
    }

    // Weak gravity-fanout tie-break (see FanoutOptions): alpha_gravity
    // for pair (n, m) is the destination's share of mean exit traffic.
    // The ridge lives in the Hessian operator's added diagonal.
    linalg::Vector tiebreak_diag;
    if (options.gravity_tiebreak_weight > 0.0) {
        double total_exit = 0.0;
        for (std::size_t m = 0; m < nodes; ++m) {
            total_exit += mean_loads[topo.egress_link(m)];
        }
        double hmax = 0.0;
        for (std::size_t p = 0; p < pairs; ++p) {
            hmax = std::max(hmax, outer(source_of[p], source_of[p]) * d1[p]);
        }
        const double eps =
            options.gravity_tiebreak_weight * std::max(hmax, 1e-300);
        tiebreak_diag.assign(pairs, eps);
        for (std::size_t p = 0; p < pairs; ++p) {
            const auto [src, dst] = topo.pair_nodes(p);
            (void)src;
            const double alpha_gravity =
                total_exit > 0.0
                    ? mean_loads[topo.egress_link(dst)] / total_exit
                    : 0.0;
            f[p] += eps * alpha_gravity;
        }
    }

    if (options.qp.warm_start != nullptr &&
        options.qp.warm_start->size() != pairs) {
        throw std::invalid_argument(
            "fanout_estimate: warm start size mismatch");
    }
    // Built on the first apply: exact-LU-regime solves (every
    // paper-scale problem) never apply H and skip the setup.
    std::optional<linalg::RoutingOperator> routing_op;
    linalg::WeightedNormalScratch apply_scratch;
    linalg::HessianOperator hessian_op;
    hessian_op.dimension = pairs;
    // H x = sum_k W_k R' R W_k x: O(nnz * window) per apply,
    // rank-(window) structure exploited instead of the quadratic
    // weighted Gram.  One row-blocked pass over R and one gather over
    // the rows of R' (the epoch's or the local transpose) serve every
    // window sample, on the caller's block runner.
    hessian_op.apply = [&](const linalg::Vector& x, linalg::Vector& y) {
        if (!routing_op) routing_op.emplace(r);
        routing_op->weighted_normal(x, *rtp, source_of, source_w, window,
                                    apply_scratch, y, options.qp.parallel);
    };
    hessian_op.diag = [&](linalg::Vector& out) {
        for (std::size_t p = 0; p < pairs; ++p) {
            out[p] = outer(source_of[p], source_of[p]) * d1[p];
        }
    };
    // Row j = source-weighted Gram column: the generated G1 values are
    // the dense Gram's bit-for-bit, scaled by outer(src(j), src(q)).
    hessian_op.column = [&](std::size_t j, std::vector<double>& scratch,
                            std::vector<std::size_t>& support) {
        linalg::gram_column(rv, rtv, j, scratch.data(), support);
        const double* __restrict orow = outer.row_data(source_of[j]);
        for (const std::size_t q : support) {
            scratch[q] = orow[source_of[q]] * scratch[q];
        }
    };
    hessian_op.diagonal = tiebreak_diag.empty() ? nullptr : &tiebreak_diag;
    const linalg::EqQpNonnegResult qp = linalg::solve_eq_qp_nonneg_operator(
        hessian_op, f, constraints.equality_sparse, constraints.rhs,
        options.qp);

    FanoutResult result;
    result.fanouts = qp.x;
    result.equality_violation = qp.equality_violation;
    result.qp_iterations = qp.iterations;
    result.qp_cg_iterations = qp.cg_iterations;
    result.warm_accepted = qp.warm_accepted;

    // Window-averaged demand estimate.  w_k is linear in the loads, so
    // the mean over samples equals the value at the mean loads.
    const linalg::Vector mean_w = pair_source_totals(topo, mean_loads);
    result.mean_demands = linalg::hadamard(result.fanouts, mean_w);
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "fanout_estimate", result.mean_demands,
        /*require_nonnegative=*/true));
    return result;
}

linalg::Vector demands_from_fanout_snapshot(const SnapshotProblem& problem,
                                            const linalg::Vector& fanouts) {
    problem.validate_with_topology();
    if (fanouts.size() != problem.topo->pair_count()) {
        throw std::invalid_argument(
            "demands_from_fanout_snapshot: fanout size mismatch");
    }
    const linalg::Vector w = pair_source_totals(*problem.topo,
                                                problem.loads);
    return linalg::hadamard(fanouts, w);
}

}  // namespace tme::core
