#include "core/kruithof.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "check/contract.hpp"
#include "check/validators.hpp"

namespace tme::core {

namespace {

/// Exact convergence measure of the classic IPF iterate: worst relative
/// marginal violation over rows and columns.
double ipf_violation(const linalg::Vector& rt, const linalg::Vector& ct,
                     const linalg::Vector& row_totals,
                     const linalg::Vector& col_totals) {
    double viol = 0.0;
    for (std::size_t i = 0; i < row_totals.size(); ++i) {
        if (row_totals[i] > 0.0) {
            viol = std::max(viol,
                            std::abs(rt[i] - row_totals[i]) / row_totals[i]);
        }
        if (col_totals[i] > 0.0) {
            viol = std::max(viol,
                            std::abs(ct[i] - col_totals[i]) / col_totals[i]);
        }
    }
    return viol;
}

}  // namespace

KruithofResult kruithof_ipf(std::size_t nodes, const linalg::Vector& prior,
                            const linalg::Vector& row_totals,
                            const linalg::Vector& col_totals,
                            const KruithofOptions& options) {
    if (prior.size() != nodes * (nodes - 1) || row_totals.size() != nodes ||
        col_totals.size() != nodes) {
        throw std::invalid_argument("kruithof_ipf: size mismatch");
    }
    const double row_sum = linalg::sum(row_totals);
    const double col_sum = linalg::sum(col_totals);
    if (row_sum <= 0.0 ||
        std::abs(row_sum - col_sum) > 1e-9 * std::max(row_sum, col_sum)) {
        throw std::invalid_argument(
            "kruithof_ipf: row and column totals must agree");
    }

    // Flat biproportional fitting on the pair vector itself.  Pair
    // (i, j) lives at i*(nodes-1) + (j < i ? j : j-1): each source's
    // demands are one contiguous block, so the row pass is a pure
    // streaming sweep and the column pass a fixed-stride one — no
    // N x N matrix, no per-element bounds-checked set() calls, and the
    // diagonal is skipped structurally instead of being re-tested
    // N^2 times per sweep.  Summation order matches the historical
    // TrafficMatrix row_totals()/col_totals() walks (the diagonal's
    // exact 0.0 contributions drop out of the chains), so iterates are
    // bit-for-bit the old path's.
    const std::size_t stride = nodes - 1;
    KruithofResult result;
    result.s = prior;
    double* __restrict s = result.s.data();
    linalg::Vector rt(nodes, 0.0);
    linalg::Vector ct(nodes, 0.0);
    const std::size_t check_every = std::max<std::size_t>(
        1, options.check_every);
    bool budget_tripped = false;
    for (result.iterations = 0; result.iterations < options.max_iterations;
         ++result.iterations) {
        if (options.budget != nullptr && options.budget->exhausted()) {
            budget_tripped = true;
            break;
        }
        // Row scaling.
        for (std::size_t i = 0; i < nodes; ++i) {
            double* __restrict block = s + i * stride;
            double acc = 0.0;
            for (std::size_t k = 0; k < stride; ++k) acc += block[k];
            rt[i] = acc;
            if (acc <= 0.0) continue;
            const double f = row_totals[i] / acc;
            for (std::size_t k = 0; k < stride; ++k) block[k] *= f;
        }
        // Column scaling: destination j's entry in source i's block
        // sits at offset j when j < i (diagonal not yet skipped) and
        // j - 1 when j > i.
        for (std::size_t j = 0; j < nodes; ++j) {
            double acc = 0.0;
            for (std::size_t i = 0; i < nodes; ++i) {
                if (i == j) continue;
                acc += s[i * stride + (j < i ? j : j - 1)];
            }
            ct[j] = acc;
            if (acc <= 0.0) continue;
            const double f = col_totals[j] / acc;
            for (std::size_t i = 0; i < nodes; ++i) {
                if (i == j) continue;
                s[i * stride + (j < i ? j : j - 1)] *= f;
            }
        }
        // Violation check (after the column pass, rows may drift),
        // every check_every sweeps and always on the final one.
        if ((result.iterations + 1) % check_every != 0 &&
            result.iterations + 1 != options.max_iterations) {
            continue;
        }
        for (std::size_t i = 0; i < nodes; ++i) {
            const double* __restrict block = s + i * stride;
            double acc = 0.0;
            for (std::size_t k = 0; k < stride; ++k) acc += block[k];
            rt[i] = acc;
        }
        for (std::size_t j = 0; j < nodes; ++j) {
            double acc = 0.0;
            for (std::size_t i = 0; i < nodes; ++i) {
                if (i == j) continue;
                acc += s[i * stride + (j < i ? j : j - 1)];
            }
            ct[j] = acc;
        }
        result.max_violation = ipf_violation(rt, ct, row_totals, col_totals);
        if (result.max_violation <= options.tolerance) {
            result.converged = true;
            break;
        }
    }
    result.outcome = result.converged
                         ? linalg::SolveOutcome::converged
                     : budget_tripped
                         ? linalg::SolveOutcome::budget_exhausted
                         : linalg::SolveOutcome::iteration_capped;
    if (options.counters != nullptr) {
        options.counters->kruithof_sweeps += result.iterations;
        if (result.outcome == linalg::SolveOutcome::iteration_capped) {
            ++options.counters->capped_solves;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "kruithof_ipf", result.s, /*require_nonnegative=*/true));
    return result;
}

KruithofResult kruithof_general(const SnapshotProblem& problem,
                                const linalg::Vector& prior,
                                const KruithofOptions& options) {
    problem.validate();
    const linalg::SparseMatrix& r = *problem.routing;
    if (prior.size() != r.cols()) {
        throw std::invalid_argument("kruithof_general: prior size mismatch");
    }
    const linalg::Vector& t = problem.loads;

    double tmax = linalg::nrm_inf(t);
    if (tmax == 0.0) tmax = 1.0;

    KruithofResult result;
    result.s = prior;
    // Strictly positive start.
    double pmean = linalg::sum(result.s) /
                   static_cast<double>(result.s.size());
    if (pmean <= 0.0) {
        throw std::invalid_argument("kruithof_general: degenerate prior");
    }
    for (double& v : result.s) v = std::max(v, 1e-12 * pmean);

    const auto& offsets = r.row_offsets();
    const auto& cols = r.column_indices();
    const auto& vals = r.values();
    const std::size_t rows = r.rows();
    const std::size_t nnz = vals.size();

    // One fused, sequential O(nnz) pass per sweep.  Each constraint's
    // prediction is read fresh from the row scan the MART update needs
    // anyway, and the convergence measure piggy-backs on it — the
    // historical loop paid a separate full R s re-multiply (plus a
    // vector allocation) per sweep just for its convergence check.
    // The measured violation is therefore the in-sweep one (each row's
    // residual before its own rescale); candidate convergences and the
    // final report are confirmed against an exact post-sweep
    // re-multiply, so the reported violation has the historical
    // meaning and a false convergence is impossible.
    //
    // The sweep is memory-gather bound, so the index array is narrowed
    // to 32 bits once up front (half the index traffic of the CSR's
    // size_t columns), and rows whose routing entries are all exactly
    // 1.0 — every row of a non-ECMP IGP matrix — are flagged so their
    // scans skip the values array (and its load) entirely and their
    // updates skip pow.
    std::vector<std::uint32_t> cols32(nnz);
    for (std::size_t k = 0; k < nnz; ++k) {
        cols32[k] = static_cast<std::uint32_t>(cols[k]);
    }
    std::vector<std::uint8_t> row_unit(rows, 0);
    for (std::size_t l = 0; l < rows; ++l) {
        bool unit = true;
        for (std::size_t k = offsets[l]; k < offsets[l + 1] && unit; ++k) {
            unit = vals[k] == 1.0;
        }
        row_unit[l] = unit ? 1 : 0;
    }

    linalg::Vector exact;
    double* __restrict s = result.s.data();
    const std::uint32_t* __restrict ci = cols32.data();
    const double* __restrict rv = vals.data();
    const std::size_t* __restrict off = offsets.data();
    const double inv_tmax = 1.0 / tmax;
    const std::size_t check_every = std::max<std::size_t>(
        1, options.check_every);

    bool budget_tripped = false;
    for (result.iterations = 0; result.iterations < options.max_iterations;
         ++result.iterations) {
        if (options.budget != nullptr && options.budget->exhausted()) {
            budget_tripped = true;
            break;
        }
        // Cyclic MART pass: for each constraint l, scale the demands on
        // the constraint multiplicatively toward t_l.  Exponent
        // r_lp/max_l keeps the update stable for fractional matrices.
        double viol = 0.0;
        for (std::size_t l = 0; l < rows; ++l) {
            const std::size_t begin = off[l];
            const std::size_t end = off[l + 1];
            double pred = 0.0;
            if (row_unit[l]) {
                for (std::size_t k = begin; k < end; ++k) {
                    pred += s[ci[k]];
                }
            } else {
                for (std::size_t k = begin; k < end; ++k) {
                    pred += rv[k] * s[ci[k]];
                }
            }
            viol = std::max(viol, std::abs(pred - t[l]) * inv_tmax);
            if (pred <= 0.0) continue;
            if (t[l] <= 0.0) {
                // Zero measured load: demands on this link must vanish.
                for (std::size_t k = begin; k < end; ++k) {
                    s[ci[k]] = 0.0;
                }
                continue;
            }
            const double ratio = t[l] / pred;
            if (ratio == 1.0) continue;
            if (row_unit[l]) {
                for (std::size_t k = begin; k < end; ++k) {
                    s[ci[k]] *= ratio;
                }
            } else {
                for (std::size_t k = begin; k < end; ++k) {
                    s[ci[k]] *= std::pow(ratio, rv[k]);
                }
            }
        }

        const bool last = result.iterations + 1 == options.max_iterations;
        if ((result.iterations + 1) % check_every != 0 && !last) continue;

        if (viol <= options.tolerance || last) {
            // Exact confirmation: relative residual of R s = t after
            // the full sweep.
            r.multiply_into(result.s, exact);
            viol = 0.0;
            for (std::size_t l = 0; l < rows; ++l) {
                viol = std::max(viol, std::abs(exact[l] - t[l]) * inv_tmax);
            }
        }
        result.max_violation = viol;
        if (viol <= options.tolerance) {
            result.converged = true;
            break;
        }
    }
    result.outcome = result.converged
                         ? linalg::SolveOutcome::converged
                     : budget_tripped
                         ? linalg::SolveOutcome::budget_exhausted
                         : linalg::SolveOutcome::iteration_capped;
    if (options.counters != nullptr) {
        options.counters->kruithof_sweeps += result.iterations;
        if (result.outcome == linalg::SolveOutcome::iteration_capped) {
            ++options.counters->capped_solves;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "kruithof_general", result.s, /*require_nonnegative=*/true));
    return result;
}

}  // namespace tme::core
