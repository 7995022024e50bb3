// Dense-H reference for linalg::solve_eq_qp_nonneg_operator: an
// active-set QP over explicit H and E, kept with the tests as an
// independent oracle.  It assembles the free-set KKT system from the
// dense matrices every round and uses its own discipline (pin every
// negative coordinate; at primal feasibility release the worst pinned
// multiplier, or every violator for a warm seed), so agreement with the
// production solver checks the minimizer, not a shared code path.
// dense_hessian() adapts the same explicit H for the production solver.
// Test-only: H is n x n.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"

namespace tme::linalg::testing {

/// Minimizes (1/2) x'Hx - f'x  subject to  E x = d,  x >= 0, by an
/// active set on the non-negativity constraints over exact,
/// ridge-regularized KKT solves of the free-set subproblem.  Reads only
/// options.warm_start: coordinates the seed holds at zero start pinned;
/// a seed that pins an equality row's whole support, or keeps failing
/// the multiplier check, falls back to the cold path.  Tolerances are
/// scale-relative, as in the production solver.
inline EqQpNonnegResult solve_eq_qp_nonneg(
    const Matrix& h, const Vector& f, const Matrix& e, const Vector& d,
    const EqQpNonnegOptions& options = {}) {
    const std::size_t n = h.rows();
    const std::size_t m = e.rows();
    if (h.cols() != n || f.size() != n || (m > 0 && e.cols() != n) ||
        d.size() != m) {
        throw std::invalid_argument("solve_eq_qp_nonneg: dimension mismatch");
    }
    double hmax = 1.0;
    for (std::size_t i = 0; i < n; ++i) hmax = std::max(hmax, h(i, i));
    double fmax = 1.0;
    for (std::size_t i = 0; i < n; ++i) fmax = std::max(fmax, std::abs(f[i]));

    std::vector<std::uint8_t> fixed_zero(n, 0);
    EqQpNonnegResult result;
    result.x.assign(n, 0.0);

    // Warm start: pin the coordinates the seed holds at zero.  A seed
    // with nothing free cannot satisfy a generic E x = d; run cold.
    bool seeded = false;
    if (options.warm_start != nullptr) {
        if (options.warm_start->size() != n) {
            throw std::invalid_argument(
                "solve_eq_qp_nonneg: warm start size mismatch");
        }
        std::size_t pinned = 0;
        for (std::size_t j = 0; j < n; ++j) {
            fixed_zero[j] = (*options.warm_start)[j] <= 0.0 ? 1 : 0;
            pinned += fixed_zero[j];
        }
        if (pinned < n) {
            seeded = true;
        } else {
            std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
        }
    }

    const std::size_t max_rounds = 3 * n + 16;
    constexpr std::size_t kMaxSeedRepairs = 4;
    std::size_t releases = 0;
    std::size_t seed_repairs = 0;
    for (std::size_t round = 0; round < max_rounds; ++round) {
        std::vector<std::size_t> free_vars;
        for (std::size_t j = 0; j < n; ++j) {
            if (!fixed_zero[j]) free_vars.push_back(j);
        }
        if (free_vars.empty()) break;
        const std::size_t k = free_vars.size();

        // A seed that pins an equality row's entire support leaves the
        // KKT system structurally singular; fall back to cold.
        if (seeded) {
            bool rows_supported = true;
            for (std::size_t r = 0; r < m && rows_supported; ++r) {
                bool has_free = false;
                for (std::size_t a = 0; a < k && !has_free; ++a) {
                    has_free = e(r, free_vars[a]) != 0.0;
                }
                rows_supported = has_free;
            }
            if (!rows_supported) {
                std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
                seeded = false;
                continue;
            }
        }
        ++result.iterations;

        // KKT system on the free variables, ridge-regularized because H
        // restricted to the constraint manifold may be singular; only
        // the diagonal is rewritten when a singular factorization
        // forces an escalation.
        Matrix kkt(k + m, k + m, 0.0);
        Vector rhs(k + m, 0.0);
        for (std::size_t a = 0; a < k; ++a) {
            rhs[a] = f[free_vars[a]];
            const double* hrow = h.row_data(free_vars[a]);
            double* krow = kkt.row_data(a);
            for (std::size_t b = 0; b < k; ++b) krow[b] = hrow[free_vars[b]];
        }
        for (std::size_t a = 0; a < k; ++a) {
            for (std::size_t r = 0; r < m; ++r) {
                kkt(a, k + r) = e(r, free_vars[a]);
                kkt(k + r, a) = e(r, free_vars[a]);
            }
        }
        for (std::size_t r = 0; r < m; ++r) rhs[k + r] = d[r];

        double ridge = 1e-10 * hmax;
        Vector sol;
        for (int attempt = 0; attempt < 12; ++attempt) {
            for (std::size_t a = 0; a < k; ++a) {
                kkt(a, a) = h(free_vars[a], free_vars[a]) + ridge;
            }
            Lu lu(kkt);
            if (!lu.singular()) {
                sol = lu.solve(rhs);
                break;
            }
            ridge *= 100.0;
        }
        if (sol.empty()) {
            if (seeded) {
                std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
                seeded = false;
                continue;
            }
            throw std::runtime_error(
                "solve_eq_qp_nonneg: singular KKT system");
        }

        // Pin every negative coordinate and re-solve; the threshold
        // scales with the iterate.
        double xmax = 0.0;
        for (std::size_t a = 0; a < k; ++a) {
            xmax = std::max(xmax, std::abs(sol[a]));
        }
        const double neg_tol = 1e-9 * std::max(1.0, xmax);
        bool any_negative = false;
        for (std::size_t a = 0; a < k; ++a) {
            if (sol[a] < -neg_tol) {
                fixed_zero[free_vars[a]] = 1;
                any_negative = true;
            }
        }
        if (any_negative) continue;

        // Primal feasible: provisional solution on the free set.
        result.x.assign(n, 0.0);
        for (std::size_t a = 0; a < k; ++a) {
            result.x[free_vars[a]] = std::max(0.0, sol[a]);
        }
        result.converged = true;

        // Multiplier check: mu_j = (H x - f + E' nu)_j >= 0 for every
        // pinned coordinate (nu comes out of the same KKT solve).
        const double mu_tol = 1e-9 * std::max({1.0, fmax, hmax * xmax});
        std::size_t worst = n;
        double worst_mu = -mu_tol;
        std::vector<std::size_t> violators;
        for (std::size_t j = 0; j < n; ++j) {
            if (!fixed_zero[j]) continue;
            double mu = -f[j];
            const double* hrow = h.row_data(j);
            for (std::size_t a = 0; a < k; ++a) {
                mu += hrow[free_vars[a]] * sol[a];
            }
            for (std::size_t r = 0; r < m; ++r) mu += e(r, j) * sol[k + r];
            if (mu < -mu_tol) violators.push_back(j);
            if (mu < worst_mu) {
                worst_mu = mu;
                worst = j;
            }
        }
        if (worst == n) {
            result.warm_accepted = seeded;
            break;
        }
        if (seeded && seed_repairs >= kMaxSeedRepairs) {
            // The seed describes a different active set entirely.
            std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
            seeded = false;
            result.converged = false;
            continue;
        }
        if (!seeded && releases >= n) {
            // Anti-cycling cap: keep the primal-feasible point but do
            // not claim optimality.
            result.converged = false;
            break;
        }
        // A seeded run frees every violator at once; the cold path
        // releases the worst one, the textbook anti-cycling rule.
        if (seeded) {
            ++seed_repairs;
            for (std::size_t j : violators) fixed_zero[j] = 0;
        } else {
            ++releases;
            fixed_zero[worst] = 0;
        }
        result.converged = false;
    }

    result.active.assign(fixed_zero.begin(), fixed_zero.end());
    if (m > 0) result.equality_violation = nrm_inf(sub(gemv(e, result.x), d));
    result.outcome = result.converged ? SolveOutcome::converged
                                      : SolveOutcome::iteration_capped;
    return result;
}

/// HessianOperator over an explicit dense H (diagonal included):
/// `column` lists column j's nonzeros with ascending support, so the
/// exact-LU regime gathers H's own doubles.  `h` must outlive the
/// operator.
inline HessianOperator dense_hessian(const Matrix& h) {
    HessianOperator op;
    op.dimension = h.rows();
    op.apply = [&h](const Vector& x, Vector& y) { y = gemv(h, x); };
    op.diag = [&h](Vector& out) {
        for (std::size_t i = 0; i < h.rows(); ++i) out[i] = h(i, i);
    };
    op.column = [&h](std::size_t j, std::vector<double>& scratch,
                     std::vector<std::size_t>& support) {
        support.clear();
        for (std::size_t q = 0; q < h.rows(); ++q) {
            if (h(q, j) == 0.0) continue;
            scratch[q] = h(q, j);
            support.push_back(q);
        }
    };
    return op;
}

}  // namespace tme::linalg::testing
