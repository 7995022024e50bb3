#include "linalg/qp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "linalg/blocked_spmv.hpp"
#include "linalg/lu.hpp"

namespace tme::linalg {

namespace {

/// Row blocks of E for the pooled projection: nnz-balanced, as many as
/// the routing operator's.
constexpr std::size_t kProjectionBlocks = 16;

// --- Hessian access ------------------------------------------------------
//
// The five Hessian touchpoints the active-set driver has: the total
// diagonal, dense gathers of free rows (exact-LU regime), the
// restricted operator product (CG regime), and the pinned-multiplier
// terms — all answered through the HessianOperator closures.

struct HessianAccess {
    const HessianOperator* op;
    Vector xfull;  // n-sized scatter scratch
    Vector ybuf;   // n-sized operator output
    std::vector<double> colscratch;
    std::vector<std::size_t> support;
    Vector mu_full;        // H x at the current iterate (CG-regime sweep)
    bool mu_ready = false;

    explicit HessianAccess(const HessianOperator& hop)
        : op(&hop),
          xfull(hop.dimension, 0.0),
          ybuf(hop.dimension, 0.0),
          colscratch(hop.dimension, 0.0),
          mu_full(hop.dimension, 0.0) {}

    std::size_t dimension() const { return op->dimension; }

    void total_diagonal(Vector& hdiag) const {
        hdiag.assign(op->dimension, 0.0);
        op->diag(hdiag);
        if (op->diagonal != nullptr) {
            for (std::size_t i = 0; i < op->dimension; ++i) {
                hdiag[i] += (*op->diagonal)[i];
            }
        }
    }

    void gather_free_row(std::size_t i,
                         const std::vector<std::size_t>& free_index,
                         double* __restrict krow) {
        // Rows through the symmetric column generator; the generated
        // values are bitwise the dense row when the generator replays
        // the Gram kernels' accumulation order.
        op->column(i, colscratch, support);
        for (std::size_t q : support) {
            const std::size_t b = free_index[q];
            if (b != SIZE_MAX) krow[b] = colscratch[q];
        }
        for (std::size_t q : support) colscratch[q] = 0.0;
    }

    void apply_free(const Vector& w,
                    const std::vector<std::size_t>& free_vars, double ridge,
                    Vector& out) {
        const std::size_t k = free_vars.size();
        for (std::size_t a = 0; a < k; ++a) xfull[free_vars[a]] = w[a];
        op->apply(xfull, ybuf);
        for (std::size_t a = 0; a < k; ++a) {
            const std::size_t i = free_vars[a];
            double acc = ybuf[i];
            if (op->diagonal != nullptr) acc += (*op->diagonal)[i] * w[a];
            out[a] = acc + ridge * w[a];
        }
        for (std::size_t a = 0; a < k; ++a) xfull[free_vars[a]] = 0.0;
    }

    // Keeps the operator product of the last apply_free as mu_full.
    // The projected CG ends with an apply at the solution it returns, so
    // one full product serves every pinned coordinate of the CG-regime
    // multiplier sweep (per-row generation would cost a column per
    // pinned variable — quadratic over the run at scale).
    void keep_last_product() { std::swap(ybuf, mu_full); }

    // A CG round's sweep reads the kept product; the exact-LU regime
    // keeps the per-row walk, whose multipliers are bitwise a dense-H
    // sweep's.
    void prepare_mu(bool used_cg) { mu_ready = used_cg; }

    void add_mu_terms(std::size_t j,
                      const std::vector<std::size_t>& free_index,
                      const Vector& sol, double& mu) {
        if (mu_ready) {
            mu += mu_full[j];
            return;
        }
        op->column(j, colscratch, support);
        for (std::size_t q : support) {
            const std::size_t a = free_index[q];
            if (a != SIZE_MAX) mu += colscratch[q] * sol[a];
        }
        for (std::size_t q : support) colscratch[q] = 0.0;
    }
};

/// Matrix-free solve of the equality-constrained subproblem on the
/// free set:  min (1/2) x'(H + ridge I)x - f'x  s.t.  E_F x = d,
/// where H is the operator's Hessian restricted to the free variables.
/// Projected CG with the constraint preconditioner [M E'; E 0]
/// (M = Jacobi diagonal of H + ridge): each application costs one
/// O(nnz(E_F)) projection, and each iteration one operator product.
/// Under the partition contract (every variable in at most one equality
/// row) S = E_F M^-1 E_F' is diagonal, so the projection is row-local:
/// row r's multiplier is (e_r/sqrt(S_rr))/sqrt(S_rr) — bitwise the
/// Cholesky solve of the diagonal S — and the rows run as nnz-balanced
/// blocks on options.parallel.  Feasibility is maintained by the
/// projection — even a truncated solve returns an E_F x = d point.
/// Returns (x_F, nu) of length k + m, or an empty vector when some
/// S_rr is not positive (an equality row with no free support).
Vector pcg_kkt_solve(HessianAccess& hp, const Vector& hdiag_total,
                     const Vector& f, const CsrView& ev,
                     const std::vector<std::size_t>& row_blocks,
                     const Vector& d,
                     const std::vector<std::size_t>& free_vars,
                     const std::vector<std::size_t>& free_index,
                     double ridge, const Vector* initial_full,
                     const EqQpNonnegOptions& options,
                     std::size_t& cg_iterations) {
    const std::size_t k = free_vars.size();
    const std::size_t m = ev.rows;
    const double* __restrict evals = ev.values;

    // Jacobi metric; strictly positive thanks to the ridge.
    Vector mdiag(k);
    for (std::size_t a = 0; a < k; ++a) {
        mdiag[a] = hdiag_total[free_vars[a]] + ridge;
    }

    // sroot[r] = sqrt(S_rr), S_rr summed over row r's free entries in
    // ascending column order (the order a dense assembly of S adds
    // them).  Free variables in no equality row are left out of the
    // projection; the preconditioner only scales them.
    Vector sroot(m, 0.0);
    std::vector<std::size_t> unconstrained;
    if (m > 0) {
        std::vector<std::uint8_t> in_row(k, 0);
        for (std::size_t r = 0; r < m; ++r) {
            double s = 0.0;
            for (std::size_t t = ev.offsets[r]; t < ev.offsets[r + 1]; ++t) {
                const std::size_t a = free_index[ev.col_index[t]];
                if (a == SIZE_MAX) continue;
                const double mi = 1.0 / mdiag[a];
                s += evals[t] * evals[t] * mi;
                in_row[a] = 1;
            }
            if (!(s > 0.0) || !std::isfinite(s)) return {};
            sroot[r] = std::sqrt(s);
        }
        for (std::size_t a = 0; a < k; ++a) {
            if (!in_row[a]) unconstrained.push_back(a);
        }
    }
    // Runs rows(r0, r1) over E's row blocks on the caller's runner; each
    // row writes only its own variables (and multiplier).
    auto for_row_blocks = [&](const auto& rows) {
        run_blocks(options.parallel, row_blocks.size() - 1,
                   [&](std::size_t b0, std::size_t b1) {
            rows(row_blocks[b0], row_blocks[b1]);
        });
    };

    // v = P M^-1 r: the constraint-preconditioner application, v =
    // M^-1 r - M^-1 E_F' S^-1 E_F M^-1 r, one fused pass per row.
    auto precondition = [&](const Vector& r_, Vector& v) {
        if (m == 0) {
            for (std::size_t a = 0; a < k; ++a) v[a] = r_[a] / mdiag[a];
            return;
        }
        for (const std::size_t a : unconstrained) v[a] = r_[a] / mdiag[a];
        for_row_blocks([&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                const std::size_t t0 = ev.offsets[r];
                const std::size_t t1 = ev.offsets[r + 1];
                double acc = 0.0;
                for (std::size_t t = t0; t < t1; ++t) {
                    const std::size_t a = free_index[ev.col_index[t]];
                    if (a == SIZE_MAX) continue;
                    v[a] = r_[a] / mdiag[a];
                    acc += evals[t] * v[a];
                }
                const double lr = acc / sroot[r] / sroot[r];
                if (lr == 0.0) continue;
                for (std::size_t t = t0; t < t1; ++t) {
                    const std::size_t a = free_index[ev.col_index[t]];
                    if (a != SIZE_MAX) v[a] -= evals[t] * lr / mdiag[a];
                }
            }
        });
    };
    // out = (H_FF + ridge I) w, through the operator.
    auto h_apply = [&](const Vector& w, Vector& out) {
        hp.apply_free(w, free_vars, ridge, out);
    };

    // Feasible start.  Cold: the least-M-norm point
    // x0 = M^-1 E_F' S^-1 d.  With a prior iterate (the previous
    // active-set round's solution — the rounds differ by a few pinned
    // coordinates, so it is nearly optimal already): restrict it to the
    // free set and correct the constraint residual in the M metric,
    // x0 = x_prev + M^-1 E_F' S^-1 (d - E_F x_prev).  Later rounds then
    // converge in a handful of CG iterations instead of restarting the
    // whole Krylov build-up.  Row-local like the projection.
    Vector x(k, 0.0);
    if (initial_full != nullptr) {
        for (std::size_t a = 0; a < k; ++a) {
            x[a] = (*initial_full)[free_vars[a]];
        }
    }
    if (m > 0) {
        for_row_blocks([&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                const std::size_t t0 = ev.offsets[r];
                const std::size_t t1 = ev.offsets[r + 1];
                double cresid = d[r];
                if (initial_full != nullptr) {
                    double acc = 0.0;
                    for (std::size_t t = t0; t < t1; ++t) {
                        const std::size_t a = free_index[ev.col_index[t]];
                        if (a != SIZE_MAX) acc += evals[t] * x[a];
                    }
                    cresid = d[r] - acc;
                }
                const double lr = cresid / sroot[r] / sroot[r];
                if (lr == 0.0) continue;
                for (std::size_t t = t0; t < t1; ++t) {
                    const std::size_t a = free_index[ev.col_index[t]];
                    if (a != SIZE_MAX) x[a] += evals[t] * lr / mdiag[a];
                }
            }
        });
    }

    Vector hx(k, 0.0);
    Vector resid(k, 0.0);
    Vector v(k, 0.0);
    Vector p(k, 0.0);
    Vector hq(k, 0.0);
    // The stopping threshold is anchored to a fixed problem scale (the
    // preconditioned gradient norm at x = 0) rather than this solve's
    // own initial residual: a warm-started solve that begins close to
    // the optimum must be allowed to stop after a handful of
    // iterations instead of being asked for the same multiplicative
    // reduction a cold solve needs.
    double fscale = 0.0;
    for (std::size_t a = 0; a < k; ++a) {
        fscale += f[free_vars[a]] * f[free_vars[a]] / mdiag[a];
    }
    const std::size_t max_iterations =
        options.cg_max_iterations > 0
            ? options.cg_max_iterations
            : std::min<std::size_t>(2 * (k + m) + 50, 1500);
    std::size_t it = 0;
    double tol2 = 0.0;
    Vector x_best(k, 0.0);
    // Restart loop: the recursively updated residual drifts from the
    // true residual (textbook CG behaviour), so each pass recomputes it
    // from x and a pass that still measures large gets the remaining
    // iteration budget with a fresh Krylov space.  Two floor guards
    // keep the recurrence honest once double precision is exhausted:
    // within a pass the best-residual iterate is snapshotted and a
    // clearly diverging recurrence (junk alpha steps at the floor can
    // catapult x off the constraint manifold) is cut and rolled back,
    // and a pass that failed to halve the true residual ends the solve
    // (the floor is reached; more iterations cannot help).
    for (int restart = 0; restart < 4 && it < max_iterations; ++restart) {
        h_apply(x, hx);
        for (std::size_t a = 0; a < k; ++a) {
            resid[a] = hx[a] - f[free_vars[a]];
        }
        precondition(resid, v);
        for (std::size_t a = 0; a < k; ++a) p[a] = -v[a];
        double rv = 0.0;
        for (std::size_t a = 0; a < k; ++a) rv += resid[a] * v[a];
        if (restart == 0) {
            tol2 = options.cg_tolerance * options.cg_tolerance *
                   std::max(std::max(rv, 0.0), fscale);
        }
        if (!(rv > tol2) || !std::isfinite(rv)) break;  // truly done
        const double rv_pass_start = rv;
        double rv_best = rv;
        std::copy(x.begin(), x.end(), x_best.begin());
        while (it < max_iterations && std::isfinite(rv) && rv > tol2 &&
               rv > 0.0) {
            // Cooperative deadline: a truncated solve is still usable —
            // the projection keeps E_F x = d at every iterate, and the
            // best-residual snapshot below hands back the strongest
            // point reached.  The sticky trip also ends the restart
            // loop (a pass that did not halve the residual breaks out).
            if (options.budget != nullptr && options.budget->exhausted()) {
                break;
            }
            h_apply(p, hq);
            double php = 0.0;
            for (std::size_t a = 0; a < k; ++a) php += p[a] * hq[a];
            if (!(php > 0.0) || !std::isfinite(php)) break;
            const double alpha = rv / php;
            for (std::size_t a = 0; a < k; ++a) x[a] += alpha * p[a];
            for (std::size_t a = 0; a < k; ++a) resid[a] += alpha * hq[a];
            precondition(resid, v);
            double rv_next = 0.0;
            for (std::size_t a = 0; a < k; ++a) rv_next += resid[a] * v[a];
            ++it;
            if (!std::isfinite(rv_next) || rv_next <= 0.0) {
                rv = rv_next;
                break;
            }
            if (rv_next < rv_best) {
                rv_best = rv_next;
                std::copy(x.begin(), x.end(), x_best.begin());
            } else if (rv_next > 4.0 * rv_best) {
                rv = rv_next;
                break;  // diverging at the floor; roll back below
            }
            const double beta = rv_next / rv;
            rv = rv_next;
            for (std::size_t a = 0; a < k; ++a) p[a] = -v[a] + beta * p[a];
        }
        if (!(rv > 0.0) || rv > rv_best) {
            std::copy(x_best.begin(), x_best.end(), x.begin());
        }
        if (!(rv_best < 0.5 * rv_pass_start)) break;  // floor reached
    }
    cg_iterations += it;

    // Multiplier estimate nu = S^-1 E_F M^-1 (f_F - H x): the weighted
    // least-squares solution of the free-variable stationarity system
    // (exact at a KKT point; every row has free support by the S check
    // above).  The product H x is the multiplier sweep's too.
    Vector sol(k + m, 0.0);
    std::copy(x.begin(), x.end(), sol.begin());
    h_apply(x, hx);
    hp.keep_last_product();
    if (m > 0) {
        for_row_blocks([&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                double acc = 0.0;
                for (std::size_t t = ev.offsets[r]; t < ev.offsets[r + 1];
                     ++t) {
                    const std::size_t a = free_index[ev.col_index[t]];
                    if (a == SIZE_MAX) continue;
                    const double va = (f[free_vars[a]] - hx[a]) / mdiag[a];
                    acc += evals[t] * va;
                }
                sol[k + r] = acc / sroot[r] / sroot[r];
            }
        });
    }
    return sol;
}

/// Active-set driver of solve_eq_qp_nonneg_operator (which validates
/// the inputs); every Hessian touchpoint goes through `hp`.
EqQpNonnegResult eq_qp_nonneg_active_set(HessianAccess& hp, const Vector& f,
                                         const SparseMatrix& e,
                                         const Vector& d,
                                         const EqQpNonnegOptions& options) {
    constexpr const char* name = "solve_eq_qp_nonneg_operator";
    const std::size_t n = hp.dimension();
    const std::size_t m = e.rows();
    const CsrView ev = e.view();
    // CG regime: the solve opens kernel regions on options.parallel
    // from its first apply to its last, so it holds a solve scope for
    // its whole run and the runner's helpers stay with it across the
    // serial stretches between regions.
    const bool cg_regime = n + m > options.dense_kkt_limit;
    const SolveScope solve_scope(cg_regime ? options.parallel : nullptr);
    // Row blocks of E for the CG regime's pooled projection.
    const std::vector<std::size_t> row_blocks =
        cg_regime && m > 0 ? nnz_balanced_blocks(ev, kProjectionBlocks)
                           : std::vector<std::size_t>{0};

    // Total Hessian diagonal (matrix diagonal + added diagonal) — the
    // only dense-H quantity the active-set driver ever reads.
    Vector hdiag(n, 0.0);
    hp.total_diagonal(hdiag);
    double hmax = 1.0;
    for (std::size_t i = 0; i < n; ++i) hmax = std::max(hmax, hdiag[i]);
    double fmax = 1.0;
    for (std::size_t i = 0; i < n; ++i) fmax = std::max(fmax, std::abs(f[i]));

    std::vector<std::uint8_t> fixed_zero(n, 0);
    EqQpNonnegResult result;
    result.x.assign(n, 0.0);

    // Warm start: pin the coordinates the seed holds at zero.  The seed
    // is only a starting active set — the pivoting below verifies and
    // repairs it like any other — so warm and cold runs reach the same
    // KKT point.
    bool seeded = false;
    if (options.warm_start != nullptr) {
        if (options.warm_start->size() != n) {
            throw std::invalid_argument(std::string(name) +
                                        ": warm start size mismatch");
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

    // Step discipline, the same in both inner-solve regimes, is block
    // principal pivoting (Portugal-Judice-Vicente): every round flips
    // the complete infeasibility set (negative free coordinates pinned,
    // negative-multiplier pinned coordinates released) while the count
    // of infeasibilities keeps shrinking, and falls back to single
    // largest-index pivots (Murty's finite rule) when it stops
    // shrinking.  Block flips give the bulk convergence of the
    // pin-all discipline; the Murty fallback removes its failure mode
    // (endgame zigzag between nearby active sets, which inexact CG
    // solves otherwise provoke on degenerate problems).  The exact-LU
    // regime's final solve runs on the same gathered doubles over the
    // same free set whichever moves reached it, so its minimizer is
    // bit-for-bit the dense reference's.
    std::size_t best_infeasible = n + m + 1;
    std::size_t nonimproving = 0;
    constexpr std::size_t kMaxNonimproving = 3;

    const std::size_t max_rounds = options.max_active_set_rounds > 0
                                       ? options.max_active_set_rounds
                                       : 3 * n + 16;
    std::size_t support_repairs = 0;
    std::vector<std::size_t> free_index(n, SIZE_MAX);
    Vector pcg_prev;  // previous round's full-space iterate (CG path)
    bool budget_tripped = false;
    for (std::size_t round = 0; round < max_rounds; ++round) {
        if (options.budget != nullptr && options.budget->exhausted()) {
            // Deadline cut between rounds.  result.x already holds the
            // newest E-feasible subproblem iterate (snapshotted every
            // round), clamped honestly below.
            budget_tripped = true;
            result.converged = false;
            break;
        }
        std::vector<std::size_t> free_vars;
        for (std::size_t j = 0; j < n; ++j) {
            if (!fixed_zero[j]) free_vars.push_back(j);
        }
        if (free_vars.empty()) break;
        const std::size_t k = free_vars.size();
        std::fill(free_index.begin(), free_index.end(), SIZE_MAX);
        for (std::size_t a = 0; a < k; ++a) free_index[free_vars[a]] = a;

        // An equality row whose entire support is pinned makes the
        // subproblem structurally infeasible (a multiplier row with no
        // free columns).  A seed that does this falls back to cold; a
        // cold iteration that pinned its way into the state is repaired
        // by releasing the offending row's pins — those pins cannot all
        // be right, since the row sum must still be met.
        {
            bool repaired = false;
            bool seed_unsupported = false;
            for (std::size_t r = 0; r < m; ++r) {
                bool has_free = false;
                for (std::size_t t = ev.offsets[r];
                     t < ev.offsets[r + 1] && !has_free; ++t) {
                    has_free = !fixed_zero[ev.col_index[t]];
                }
                if (has_free) continue;
                if (seeded) {
                    seed_unsupported = true;
                    break;
                }
                if (support_repairs < m + 16) {
                    for (std::size_t t = ev.offsets[r];
                         t < ev.offsets[r + 1]; ++t) {
                        fixed_zero[ev.col_index[t]] = 0;
                    }
                    ++support_repairs;
                    repaired = true;
                }
            }
            if (seed_unsupported) {
                std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
                seeded = false;
                continue;
            }
            if (repaired) continue;
        }
        ++result.iterations;

        Vector sol;
        const bool used_cg = k + m > options.dense_kkt_limit;
        if (!used_cg) {
            // Dense gather of the free-set KKT system — exact LU, and
            // bit-for-bit a dense-H assembly's arithmetic (the gathered
            // values are the same doubles; structural zeros match the
            // dense H's stored zeros).
            Matrix kkt(k + m, k + m, 0.0);
            Vector rhs(k + m, 0.0);
            for (std::size_t a = 0; a < k; ++a) {
                rhs[a] = f[free_vars[a]];
                const std::size_t i = free_vars[a];
                double* __restrict krow = kkt.row_data(a);
                hp.gather_free_row(i, free_index, krow);
            }
            for (std::size_t r = 0; r < m; ++r) {
                for (std::size_t t = ev.offsets[r]; t < ev.offsets[r + 1];
                     ++t) {
                    const std::size_t a = free_index[ev.col_index[t]];
                    if (a == SIZE_MAX) continue;
                    kkt(a, k + r) = ev.values[t];
                    kkt(k + r, a) = ev.values[t];
                }
            }
            for (std::size_t r = 0; r < m; ++r) rhs[k + r] = d[r];

            double ridge = 1e-10 * hmax;
            for (int attempt = 0; attempt < 12; ++attempt) {
                for (std::size_t a = 0; a < k; ++a) {
                    kkt(a, a) = hdiag[free_vars[a]] + ridge;
                }
                Lu lu(kkt);
                if (!lu.singular()) {
                    sol = lu.solve(rhs);
                    break;
                }
                ridge *= 100.0;
            }
        } else {
            // Matrix-free projected CG on the free set, warm-started
            // from the previous round's iterate when there is one.
            const double ridge = 1e-10 * hmax;
            sol = pcg_kkt_solve(hp, hdiag, f, ev, row_blocks, d, free_vars,
                                free_index, ridge,
                                pcg_prev.empty() ? nullptr : &pcg_prev,
                                options, result.cg_iterations);
            if (!sol.empty()) {
                pcg_prev.assign(n, 0.0);
                for (std::size_t a = 0; a < k; ++a) {
                    pcg_prev[free_vars[a]] = sol[a];
                }
            }
        }
        if (sol.empty()) {
            if (seeded) {
                std::fill(fixed_zero.begin(), fixed_zero.end(), 0);
                seeded = false;
                continue;
            }
            throw std::runtime_error(std::string(name) +
                                     ": singular KKT system");
        }

        // Decision thresholds scale with the iterate, so round-off on
        // loads of order 1e9 is not mislabeled negative.  CG rounds
        // widen the band two orders above the inner solve's ~1e-9
        // accuracy so coordinates inside the error band do not flip
        // classification from round to round.
        const double decision_tol = used_cg ? 1e-7 : 1e-9;
        double xmax = 0.0;
        for (std::size_t a = 0; a < k; ++a) {
            xmax = std::max(xmax, std::abs(sol[a]));
        }
        const double neg_tol = decision_tol * std::max(1.0, xmax);
        const double mu_tol =
            decision_tol * std::max({1.0, fmax, hmax * xmax});

        std::vector<std::size_t> negatives;
        for (std::size_t a = 0; a < k; ++a) {
            if (sol[a] < -neg_tol) negatives.push_back(a);
        }

        // Pinned-coordinate multipliers mu_j = (H x - f + E' nu)_j.  In
        // the exact-LU regime the H row walk restricted to the free
        // columns visits the same nonzero terms, ascending, as a dense
        // free-variable sweep (the skipped terms are exact zeros); E' nu
        // gathers over E's nonzeros.
        Vector etnu;
        if (m > 0) {
            const Vector nu(sol.begin() + static_cast<std::ptrdiff_t>(k),
                            sol.begin() + static_cast<std::ptrdiff_t>(k + m));
            etnu = e.multiply_transpose(nu);
        }
        hp.prepare_mu(used_cg);
        std::vector<std::size_t> violators;
        for (std::size_t j = 0; j < n; ++j) {
            if (!fixed_zero[j]) continue;
            double mu = -f[j];
            hp.add_mu_terms(j, free_index, sol, mu);
            if (m > 0) mu += etnu[j];
            if (mu < -mu_tol) violators.push_back(j);
        }

        if (negatives.empty() && violators.empty()) {
            // Feasible and dual-feasible: the KKT point.
            result.x.assign(n, 0.0);
            for (std::size_t a = 0; a < k; ++a) {
                result.x[free_vars[a]] = std::max(0.0, sol[a]);
            }
            result.converged = true;
            result.warm_accepted = seeded;
            break;
        }

        // Keep the newest subproblem iterate: a round-capped solve must
        // hand back the last E-feasible point (projected CG keeps
        // E_F x = d even truncated), not the all-zero initialization;
        // the final clamp below flags it honestly.
        result.x.assign(n, 0.0);
        for (std::size_t a = 0; a < k; ++a) {
            result.x[free_vars[a]] = sol[a];
        }
        const std::size_t infeasible = negatives.size() + violators.size();
        bool block_step = false;
        if (infeasible < best_infeasible) {
            best_infeasible = infeasible;
            nonimproving = 0;
            block_step = true;
        } else if (nonimproving < kMaxNonimproving) {
            ++nonimproving;
            block_step = true;
        }
        if (block_step) {
            for (std::size_t a : negatives) fixed_zero[free_vars[a]] = 1;
            for (std::size_t j : violators) fixed_zero[j] = 0;
        } else {
            // Murty's rule: flip only the largest-index infeasibility —
            // finite by construction.
            const std::size_t neg_j =
                negatives.empty() ? 0 : free_vars[negatives.back()];
            const std::size_t vio_j = violators.empty() ? 0 : violators.back();
            if (!negatives.empty() && (violators.empty() || neg_j > vio_j)) {
                fixed_zero[neg_j] = 1;
            } else {
                fixed_zero[vio_j] = 0;
            }
        }
        result.converged = false;
    }

    if (!result.converged) {
        // Terminated without a verified KKT point (round cap or
        // budget): clamp the last iterate so the caller still gets a
        // nonnegative point, honestly flagged.
        for (double& v : result.x) v = std::max(0.0, v);
    }
    result.active.assign(fixed_zero.begin(), fixed_zero.end());
    if (m > 0) {
        result.equality_violation =
            nrm_inf(sub(e.multiply(result.x), d));
    }
    // A budget trip inside projected CG surfaces through expired():
    // the round then finishes on the truncated iterate and the next
    // round's poll breaks the loop, so both paths land here tripped.
    if (options.budget != nullptr && options.budget->expired()) {
        budget_tripped = true;
    }
    result.outcome = result.converged  ? SolveOutcome::converged
                     : budget_tripped ? SolveOutcome::budget_exhausted
                                      : SolveOutcome::iteration_capped;
    if (options.counters != nullptr) {
        options.counters->qp_active_set_rounds += result.iterations;
        options.counters->qp_cg_iterations += result.cg_iterations;
        if (result.outcome == SolveOutcome::iteration_capped) {
            ++options.counters->capped_solves;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(name, result.x));
    return result;
}

}  // namespace

EqQpNonnegResult solve_eq_qp_nonneg_operator(
    const HessianOperator& h, const Vector& f, const SparseMatrix& e,
    const Vector& d, const EqQpNonnegOptions& options) {
    const std::size_t n = h.dimension;
    const std::size_t m = e.rows();
    if (f.size() != n || (m > 0 && e.cols() != n) || d.size() != m) {
        throw std::invalid_argument(
            "solve_eq_qp_nonneg_operator: dimension mismatch");
    }
    if (!h.apply || !h.diag || !h.column) {
        throw std::invalid_argument(
            "solve_eq_qp_nonneg_operator: apply, diag and column "
            "closures must all be set");
    }
    if (h.diagonal != nullptr && h.diagonal->size() != n) {
        throw std::invalid_argument(
            "solve_eq_qp_nonneg_operator: diagonal size mismatch");
    }
    if (m > 0) {
        TME_CONTRACT_DBG_CHECK(check::csr_structure(
            e, "solve_eq_qp_nonneg_operator equality operator"));
        // Partition constraints: every variable in at most one row.
        std::vector<std::uint8_t> in_row(n, 0);
        const CsrView ev = e.view();
        for (std::size_t t = 0; t < ev.offsets[m]; ++t) {
            if (in_row[ev.col_index[t]]) {
                throw std::invalid_argument(
                    "solve_eq_qp_nonneg_operator: a column of E has more "
                    "than one nonzero (equality rows must partition the "
                    "variables)");
            }
            in_row[ev.col_index[t]] = 1;
        }
    }
    TME_CONTRACT_DBG_CHECK(
        check::finite(f, "solve_eq_qp_nonneg_operator f"));
    TME_CONTRACT_DBG_CHECK(
        check::finite(d, "solve_eq_qp_nonneg_operator d"));
    if (h.diagonal != nullptr) {
        TME_CONTRACT_DBG_CHECK(check::finite(
            *h.diagonal, "solve_eq_qp_nonneg_operator added diagonal"));
    }
    HessianAccess hp(h);
    return eq_qp_nonneg_active_set(hp, f, e, d, options);
}

}  // namespace tme::linalg
