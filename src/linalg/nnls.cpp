#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr_kernels.hpp"

namespace tme::linalg {

namespace detail {

namespace {

/// c - a*b with the product rounded before the subtraction, whatever the
/// build's contraction defaults: a product passed to mul_add is never
/// fused into it.
inline double sub_rounded_product(double a, double b, double c) {
    return mul_add(-1.0, a * b, c);
}

}  // namespace

void packed_forward_substitute(const double* l, std::size_t k, double* x) {
    // Rows i..i+3 each run their own t-ascending chain over the solved
    // prefix x[0..i), side by side, so four chains are in flight instead
    // of one; the 4x4 triangle then continues each chain at t = i, i+1,
    // i+2 in serial order.
    std::size_t i = 0;
    for (; i + 4 <= k; i += 4) {
        const double* r0 = l + i * (i + 1) / 2;
        const double* r1 = r0 + (i + 1);
        const double* r2 = r1 + (i + 2);
        const double* r3 = r2 + (i + 3);
        double v0 = x[i];
        double v1 = x[i + 1];
        double v2 = x[i + 2];
        double v3 = x[i + 3];
        for (std::size_t t = 0; t < i; ++t) {
            const double xt = x[t];
            v0 = sub_rounded_product(r0[t], xt, v0);
            v1 = sub_rounded_product(r1[t], xt, v1);
            v2 = sub_rounded_product(r2[t], xt, v2);
            v3 = sub_rounded_product(r3[t], xt, v3);
        }
        x[i] = v0 / r0[i];
        v1 = mul_add(-r1[i], x[i], v1);
        x[i + 1] = v1 / r1[i + 1];
        v2 = mul_add(-r2[i], x[i], v2);
        v2 = mul_add(-r2[i + 1], x[i + 1], v2);
        x[i + 2] = v2 / r2[i + 2];
        v3 = mul_add(-r3[i], x[i], v3);
        v3 = mul_add(-r3[i + 1], x[i + 1], v3);
        v3 = mul_add(-r3[i + 2], x[i + 2], v3);
        x[i + 3] = v3 / r3[i + 3];
    }
    // The last k mod 4 rows: the same rounding, one row at a time.
    const std::size_t block = i;
    for (; i < k; ++i) {
        const double* row = l + i * (i + 1) / 2;
        double v = x[i];
        for (std::size_t t = 0; t < block; ++t) {
            v = sub_rounded_product(row[t], x[t], v);
        }
        for (std::size_t t = block; t < i; ++t) {
            v = mul_add(-row[t], x[t], v);
        }
        x[i] = v / row[i];
    }
}

}  // namespace detail

namespace {

// --- Gram access ---------------------------------------------------------
//
// The active-set driver below reads the Gram only through a
// GramColumnOracle: nnls_operator's generator, or nnls_gram's dense
// matrix read column by column.  Columns are staged on demand, cached
// while their variable is passive, and answer the factor's entry and
// diagonal reads, the dual sweep and the residual's quadratic form.

class GramAccess {
  public:
    explicit GramAccess(const GramColumnOracle& oracle)
        : oracle_(&oracle), scratch_(oracle.dimension, 0.0) {}

    // Entry reads resolve against the staged column when j is staged
    // (O(1) from the dense scratch) and against the cached sparse
    // passive columns otherwise (binary search; only the rare
    // rank-deficient rebuild takes this path).
    double entry(std::size_t i, std::size_t j) const {
        if (j == staged_) return scratch_[i];
        const auto it = cache_.find(j);
        if (it == cache_.end()) return 0.0;
        const Col& col = it->second;
        const auto pos = std::lower_bound(col.idx.begin(), col.idx.end(), i);
        if (pos != col.idx.end() && *pos == i) {
            return col.val[static_cast<std::size_t>(pos - col.idx.begin())];
        }
        return 0.0;
    }
    double diag(std::size_t j) const { return entry(j, j); }

    void stage(std::size_t j) {
        clear_stage();
        oracle_->column(j, scratch_, staged_support_);
        staged_ = j;
    }
    void commit(std::size_t j) {
        Col col;
        col.idx = staged_support_;
        col.val.reserve(staged_support_.size());
        for (std::size_t q : staged_support_) col.val.push_back(scratch_[q]);
        cache_[j] = std::move(col);
        clear_stage();
    }
    void discard(std::size_t) { clear_stage(); }
    void drop(std::size_t j) { cache_.erase(j); }

    // Dual sweep w = atb - (G + shift I) x as a scatter over the cached
    // passive columns only.  Every coordinate j subtracts its nonzero
    // terms in passive order; the terms a dense row sweep would add on
    // top are exact-0.0 products, which never change the accumulator.
    // O(sum passive col nnz).
    void dual_sweep(Vector& w, const Vector& atb, const Vector& x,
                    const std::vector<std::size_t>& passive,
                    double shift) const {
        w = atb;
        for (std::size_t p : passive) {
            const auto it = cache_.find(p);
            const Col& col = it->second;
            const double xp = x[p];
            bool diag_seen = false;
            for (std::size_t k = 0; k < col.idx.size(); ++k) {
                const std::size_t q = col.idx[k];
                if (q == p) diag_seen = true;
                w[q] = detail::mul_add(
                    -(col.val[k] + (q == p ? shift : 0.0)), xp, w[q]);
            }
            if (!diag_seen && shift != 0.0) {
                // Structurally empty diagonal: the dense sweep still
                // subtracts the virtual shift term there.
                w[p] = detail::mul_add(-(0.0 + shift), xp, w[p]);
            }
        }
    }

    double quad_row(std::size_t p, const Vector& x, double shift) {
        stage(p);
        double gx = 0.0;
        const std::size_t n = x.size();
        for (std::size_t q = 0; q < n; ++q) {
            if (x[q] != 0.0) {
                gx += (scratch_[q] + (p == q ? shift : 0.0)) * x[q];
            }
        }
        clear_stage();
        return gx;
    }

  private:
    struct Col {
        std::vector<std::size_t> idx;
        std::vector<double> val;
    };

    void clear_stage() {
        for (std::size_t q : staged_support_) scratch_[q] = 0.0;
        staged_support_.clear();
        staged_ = SIZE_MAX;
    }

    const GramColumnOracle* oracle_;
    mutable std::vector<double> scratch_;
    std::vector<std::size_t> staged_support_;
    std::size_t staged_ = SIZE_MAX;
    std::unordered_map<std::size_t, Col> cache_;
};

// Maintains the Cholesky factor of G[passive, passive] incrementally in
// packed lower-triangular storage (row i at offset i(i+1)/2 — the
// factor never re-densifies the passive block, so its footprint is
// O(k^2) in the passive count, not the problem size).  Appending a
// variable costs O(k^2); removing one deletes its row and repairs the
// trailing block with a Givens-style rank-1 *update* (the deleted
// column folds back in additively, so positive definiteness is never
// at risk) in O((k - pos)^2).  Rank-deficient appends fall back to a
// full rebuild with escalating jitter.
class PassiveFactor {
  public:
    /// `shift` is the virtual diagonal shift of NnlsOptions: every read
    /// of a diagonal Gram entry adds it, as if the caller had passed
    /// G + shift*I.
    PassiveFactor(GramAccess& gram, double jitter, double shift)
        : gram_(&gram), jitter_(jitter), shift_(shift) {}

    const std::vector<std::size_t>& passive() const { return passive_; }

    bool append(std::size_t j) {
        const std::size_t k = passive_.size();
        // Solve L w = G[passive, j] (forward substitution on the kxk
        // leading block).
        Vector w(k);
        for (std::size_t i = 0; i < k; ++i) {
            w[i] = gram_->entry(passive_[i], j);
        }
        detail::packed_forward_substitute(l_.data(), k, w.data());
        double diag = gram_->diag(j) + shift_ + jitter_ - dot(w, w);
        if (diag <= 0.0 || !std::isfinite(diag)) {
            // Rank-deficient addition: retry with escalated jitter via a
            // full rebuild including j.
            passive_.push_back(j);
            l_.resize(row_off(k + 1));
            if (rebuild()) return true;
            passive_.pop_back();
            l_.resize(row_off(k));
            rebuild();
            return false;
        }
        l_.resize(row_off(k + 1));
        double* row = l_.data() + row_off(k);
        for (std::size_t i = 0; i < k; ++i) row[i] = w[i];
        row[k] = std::sqrt(diag);
        passive_.push_back(j);
        return true;
    }

    void remove_indices(const std::vector<std::size_t>& to_remove) {
        // Positions in the passive list, removed highest-first so the
        // remaining positions stay valid.
        std::vector<std::size_t> positions;
        for (std::size_t i = 0; i < passive_.size(); ++i) {
            if (std::find(to_remove.begin(), to_remove.end(), passive_[i]) !=
                to_remove.end()) {
                positions.push_back(i);
            }
        }
        for (std::size_t i = positions.size(); i-- > 0;) {
            remove_position(positions[i]);
        }
        for (std::size_t j : to_remove) gram_->drop(j);
    }

    // Solves G[passive,passive] z = rhs[passive].
    Vector solve(const Vector& atb) const {
        const std::size_t k = passive_.size();
        Vector y(k);
        for (std::size_t i = 0; i < k; ++i) y[i] = atb[passive_[i]];
        detail::packed_forward_substitute(l_.data(), k, y.data());
        // The back substitution L' z = y stays one row at a time: row
        // ii's chain runs over z[ii+1..k), so row ii-1's chain starts
        // with z[ii] and no two rows' chains can run side by side.
        Vector z(k);
        for (std::size_t ii = k; ii-- > 0;) {
            double v = y[ii];
            for (std::size_t t = ii + 1; t < k; ++t) {
                v -= l_[row_off(t) + ii] * z[t];
            }
            z[ii] = v / l_[row_off(ii) + ii];
        }
        return z;
    }

  private:
    static std::size_t row_off(std::size_t i) { return i * (i + 1) / 2; }

    void remove_position(std::size_t pos) {
        const std::size_t k = passive_.size();
        const std::size_t m = k - 1 - pos;
        // Save the sub-diagonal of the deleted column: with row/column
        // pos gone, the trailing block must satisfy
        //   L~33 L~33' = L33 L33' + l32 l32',
        // a rank-1 update of the old trailing factor by this vector.
        std::vector<double> v(m);
        for (std::size_t u = 0; u < m; ++u) {
            v[u] = l_[row_off(pos + 1 + u) + pos];
        }
        // Shift rows pos+1..k-1 up one, dropping column pos.  Each
        // destination row ends exactly where its source row begins, so
        // the in-place forward copy never overlaps.
        for (std::size_t r = pos + 1; r < k; ++r) {
            const double* src = l_.data() + row_off(r);
            double* dst = l_.data() + row_off(r - 1);
            for (std::size_t t = 0; t < pos; ++t) dst[t] = src[t];
            for (std::size_t t = pos; t < r; ++t) dst[t] = src[t + 1];
        }
        l_.resize(row_off(k - 1));
        passive_.erase(passive_.begin() +
                       static_cast<std::ptrdiff_t>(pos));
        // Givens-style rank-1 update (LINPACK dchud recurrences) of the
        // trailing block.  An update — unlike a downdate — keeps the
        // diagonal bounded away from zero, so no pivoting or fallback
        // is needed.
        for (std::size_t t = 0; t < m; ++t) {
            const std::size_t g = pos + t;
            double* row = l_.data() + row_off(g);
            const double ljj = row[g];
            const double r = std::sqrt(ljj * ljj + v[t] * v[t]);
            const double cosg = r / ljj;
            const double sing = v[t] / ljj;
            row[g] = r;
            for (std::size_t u = t + 1; u < m; ++u) {
                double& lhg = l_[row_off(pos + u) + g];
                lhg = (lhg + sing * v[u]) / cosg;
                v[u] = cosg * v[u] - sing * lhg;
            }
        }
    }

    bool rebuild() {
        const std::size_t k = passive_.size();
        double jitter = jitter_;
        for (int attempt = 0; attempt < 20; ++attempt) {
            bool ok = true;
            for (std::size_t col = 0; col < k && ok; ++col) {
                double diag = gram_->diag(passive_[col]) + shift_ + jitter;
                const double* crow = l_.data() + row_off(col);
                for (std::size_t t = 0; t < col; ++t) {
                    diag -= crow[t] * crow[t];
                }
                if (diag <= 0.0 || !std::isfinite(diag)) {
                    ok = false;
                    break;
                }
                l_[row_off(col) + col] = std::sqrt(diag);
                for (std::size_t row = col + 1; row < k; ++row) {
                    double v = gram_->entry(passive_[row], passive_[col]);
                    const double* rrow = l_.data() + row_off(row);
                    for (std::size_t t = 0; t < col; ++t) {
                        v -= rrow[t] * crow[t];
                    }
                    l_[row_off(row) + col] = v / l_[row_off(col) + col];
                }
            }
            if (ok) {
                jitter_ = jitter;
                return true;
            }
            double scale = 0.0;
            for (std::size_t i = 0; i < k; ++i) {
                scale = std::max(scale,
                                 gram_->diag(passive_[i]) + shift_);
            }
            jitter = (jitter == 0.0 ? std::max(scale, 1.0) * 1e-12
                                    : jitter * 100.0);
        }
        return false;
    }

    GramAccess* gram_;
    double jitter_;
    double shift_;
    std::vector<double> l_;  // packed lower triangle, k(k+1)/2 entries
    std::vector<std::size_t> passive_;
};

// The Lawson-Hanson driver behind both entry points: identical
// problems follow identical active-set trajectories whichever oracle
// supplies the columns.
NnlsResult nnls_active_set(const GramColumnOracle& oracle, const Vector& atb,
                           double btb, const NnlsOptions& options) {
    const std::size_t n = atb.size();
    const double shift = options.gram_diagonal_shift;
    const SparseMatrix* op = options.gram_operator;
    const std::size_t max_iter =
        options.max_iterations > 0 ? options.max_iterations : 3 * n + 16;

    NnlsResult result;
    result.x.assign(n, 0.0);
    std::vector<bool> in_passive(n, false);
    GramAccess gram(oracle);
    PassiveFactor factor(gram, 0.0, shift);

    double scale = nrm_inf(atb);
    if (scale == 0.0) scale = 1.0;
    const double tol = options.tolerance * scale;

    // Dual w = g - G x; x = 0 initially.
    Vector w = atb;

    // Inner loop: restore primal feasibility of the passive solve.
    const auto restore_feasibility = [&]() {
        while (true) {
            const std::vector<std::size_t>& passive = factor.passive();
            Vector z = factor.solve(atb);
            bool all_positive = true;
            for (double v : z) {
                if (v <= 0.0) {
                    all_positive = false;
                    break;
                }
            }
            if (all_positive) {
                for (std::size_t i = 0; i < passive.size(); ++i) {
                    result.x[passive[i]] = z[i];
                }
                break;
            }
            double alpha = 1.0;
            for (std::size_t i = 0; i < passive.size(); ++i) {
                if (z[i] <= 0.0) {
                    const double xj = result.x[passive[i]];
                    const double denom = xj - z[i];
                    if (denom > 0.0) alpha = std::min(alpha, xj / denom);
                }
            }
            double xmax = 0.0;
            for (std::size_t i = 0; i < passive.size(); ++i) {
                const std::size_t j = passive[i];
                result.x[j] = result.x[j] + alpha * (z[i] - result.x[j]);
                xmax = std::max(xmax, result.x[j]);
            }
            // Remove coordinates pinned at (numerical) zero by the step.
            const double removal_tol = 1e-12 * std::max(1.0, xmax);
            std::vector<std::size_t> to_remove;
            for (std::size_t i = 0; i < passive.size(); ++i) {
                const std::size_t j = passive[i];
                if (result.x[j] <= removal_tol && z[i] <= 0.0) {
                    result.x[j] = 0.0;
                    to_remove.push_back(j);
                    in_passive[j] = false;
                }
            }
            if (to_remove.empty()) {
                // Defensive: force out the most negative z to guarantee
                // progress.
                std::size_t worst = passive[0];
                double worst_z = z[0];
                for (std::size_t i = 1; i < passive.size(); ++i) {
                    if (z[i] < worst_z) {
                        worst_z = z[i];
                        worst = passive[i];
                    }
                }
                result.x[worst] = 0.0;
                to_remove.push_back(worst);
                in_passive[worst] = false;
            }
            factor.remove_indices(to_remove);
            if (factor.passive().empty()) break;
        }
    };

    // Refresh dual: w = g - (G + shift I) x restricted to passive
    // support.  With a sparse operator behind the Gram this is two
    // sparse mat-vecs (O(nnz)); otherwise the scatter over the cached
    // passive columns.
    const auto refresh_dual = [&]() {
        if (op != nullptr) {
            const Vector atax =
                op->multiply_transpose(op->multiply(result.x));
            for (std::size_t j = 0; j < n; ++j) {
                w[j] = atb[j] - atax[j] - shift * result.x[j];
            }
            return;
        }
        gram.dual_sweep(w, atb, result.x, factor.passive(), shift);
    };

    if (options.warm_start != nullptr) {
        if (options.warm_start->size() != n) {
            throw std::invalid_argument("nnls: warm start size");
        }
        for (std::size_t j = 0; j < n; ++j) {
            if ((*options.warm_start)[j] > 0.0) {
                gram.stage(j);
                if (factor.append(j)) {
                    gram.commit(j);
                    in_passive[j] = true;
                } else {
                    gram.discard(j);
                }
            }
        }
        if (!factor.passive().empty()) {
            restore_feasibility();
            TME_CONTRACT_DBG_CHECK(check::solver_boundary(
                "nnls passive set", result.x, factor.passive()));
            refresh_dual();
        }
    }

    bool budget_tripped = false;
    for (result.iterations = 0; result.iterations < max_iter;
         ++result.iterations) {
        // Cooperative deadline: x is primal-feasible after every
        // restore_feasibility(), so stopping between pivots returns a
        // usable (if suboptimal) point.
        if (options.budget != nullptr && options.budget->exhausted()) {
            budget_tripped = true;
            break;
        }
        // Most infeasible dual coordinate among active variables.
        std::size_t best = n;
        double best_w = tol;
        for (std::size_t j = 0; j < n; ++j) {
            if (!in_passive[j] && w[j] > best_w) {
                best_w = w[j];
                best = j;
            }
        }
        if (best == n) {
            result.converged = true;
            break;
        }
        gram.stage(best);
        if (!factor.append(best)) {
            // Numerically dependent column; treat as converged to avoid
            // cycling on a singular passive set.
            gram.discard(best);
            result.converged = true;
            break;
        }
        gram.commit(best);
        in_passive[best] = true;

        restore_feasibility();
        TME_CONTRACT_DBG_CHECK(check::solver_boundary(
            "nnls passive set", result.x, factor.passive()));
        refresh_dual();
    }

    if (btb > 0.0) {
        double quad = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            if (result.x[p] == 0.0) continue;
            const double gx = gram.quad_row(p, result.x, shift);
            quad += result.x[p] * (gx - 2.0 * atb[p]);
        }
        result.residual_norm = std::sqrt(std::max(0.0, quad + btb));
    }
    result.outcome = result.converged ? SolveOutcome::converged
                     : budget_tripped ? SolveOutcome::budget_exhausted
                                      : SolveOutcome::iteration_capped;
    if (options.counters != nullptr) {
        options.counters->nnls_pivots += result.iterations;
        if (result.outcome == SolveOutcome::iteration_capped) {
            ++options.counters->capped_solves;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "nnls", result.x, /*require_nonnegative=*/true));
    return result;
}

}  // namespace

NnlsResult nnls_gram(const Matrix& gram_matrix, const Vector& atb, double btb,
                     const NnlsOptions& options) {
    const std::size_t n = atb.size();
    if (gram_matrix.rows() != n || gram_matrix.cols() != n) {
        throw std::invalid_argument("nnls_gram: dimension mismatch");
    }
    TME_CONTRACT_DBG_CHECK(
        check::solver_boundary("nnls_gram", gram_matrix, atb));
    GramColumnOracle oracle;
    oracle.dimension = n;
    oracle.column = [&gram_matrix](std::size_t j,
                                   std::vector<double>& scratch,
                                   std::vector<std::size_t>& support) {
        support.clear();
        for (std::size_t i = 0; i < scratch.size(); ++i) {
            const double v = gram_matrix(i, j);
            if (v != 0.0) {
                scratch[i] = v;
                support.push_back(i);
            }
        }
    };
    return nnls_operator(oracle, atb, btb, options);
}

NnlsResult nnls_operator(const GramColumnOracle& gram, const Vector& atb,
                         double btb, const NnlsOptions& options) {
    const std::size_t n = atb.size();
    if (gram.dimension != n) {
        throw std::invalid_argument("nnls_operator: dimension mismatch");
    }
    if (!gram.column) {
        throw std::invalid_argument("nnls_operator: null column generator");
    }
    TME_CONTRACT_DBG_CHECK(
        check::finite(atb, "nnls_operator rhs"));
    if (options.gram_operator != nullptr) {
        TME_CONTRACT_DBG_CHECK(check::csr_structure(
            *options.gram_operator, "nnls_operator gram_operator"));
    }
    if (options.gram_operator != nullptr &&
        options.gram_operator->cols() != n) {
        throw std::invalid_argument(
            "nnls_operator: gram_operator column count does not match "
            "the system");
    }
    if (options.gram_diagonal_shift < 0.0) {
        throw std::invalid_argument(
            "nnls_operator: negative gram_diagonal_shift");
    }
    return nnls_active_set(gram, atb, btb, options);
}

}  // namespace tme::linalg
