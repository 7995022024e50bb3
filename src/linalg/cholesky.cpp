#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"

namespace tme::linalg {

namespace {

// Dimension at which Cholesky switches from the exact unblocked kernel
// to the blocked one.  Every system the paper-scale pipeline factors
// (Europe 132 / USA 600-pair reduced problems cap out below this) stays
// bit-for-bit on the historical kernel; generated-backbone systems flip
// to the blocked path.
constexpr std::size_t kBlockedThreshold = 512;

// Panel width of the blocked factorization.
constexpr std::size_t kPanel = 48;

// Factorizes the columns [j0, j1) of l in place, assuming all columns
// < j0 have already been folded into the panel by trailing updates.
// Returns false when a pivot is not positive.
bool factor_panel(Matrix& l, std::size_t j0, std::size_t j1) {
    const std::size_t n = l.rows();
    for (std::size_t j = j0; j < j1; ++j) {
        const double* __restrict lrow_j = l.row_data(j);
        double diag = lrow_j[j];
        for (std::size_t k = j0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
        if (diag <= 0.0 || !std::isfinite(diag)) return false;
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        const double inv = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double* __restrict lrow_i = l.row_data(i);
            double v = lrow_i[j];
            for (std::size_t k = j0; k < j; ++k) v -= lrow_i[k] * lrow_j[k];
            lrow_i[j] = v * inv;
        }
    }
    return true;
}

// Trailing update after the panel [j0, j1): for every (i, c) in the
// lower triangle with i, c >= j1,  l(i, c) -= sum_k l(i, k) l(c, k),
// k over the panel.  2x4 register tiles give each dot product an
// independent accumulator chain (the unblocked kernel's single serial
// chain is what makes it latency-bound).
void trailing_update(Matrix& l, std::size_t j0, std::size_t j1) {
    const std::size_t n = l.rows();
    for (std::size_t i0 = j1; i0 < n; i0 += 2) {
        const std::size_t in = std::min<std::size_t>(2, n - i0);
        const double* __restrict ri0 = l.row_data(i0) + j0;
        const double* __restrict ri1 =
            in > 1 ? l.row_data(i0 + 1) + j0 : ri0;
        for (std::size_t c0 = j1; c0 <= i0 + in - 1; c0 += 4) {
            const std::size_t cn =
                std::min<std::size_t>(4, i0 + in - c0);
            double acc[2][4] = {{0.0, 0.0, 0.0, 0.0},
                                {0.0, 0.0, 0.0, 0.0}};
            for (std::size_t cc = 0; cc < cn; ++cc) {
                const double* __restrict rc = l.row_data(c0 + cc) + j0;
                double s0 = 0.0;
                double s1 = 0.0;
                const std::size_t width = j1 - j0;
                for (std::size_t k = 0; k < width; ++k) {
                    s0 += ri0[k] * rc[k];
                    s1 += ri1[k] * rc[k];
                }
                acc[0][cc] = s0;
                acc[1][cc] = s1;
            }
            for (std::size_t ii = 0; ii < in; ++ii) {
                double* __restrict row = l.row_data(i0 + ii);
                for (std::size_t cc = 0; cc < cn; ++cc) {
                    const std::size_t c = c0 + cc;
                    if (c <= i0 + ii) row[c] -= acc[ii][cc];
                }
            }
        }
    }
}

}  // namespace

Matrix cholesky_factor_unblocked(const Matrix& a, double jitter) {
    const std::size_t n = a.rows();
    Matrix l(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
        if (diag <= 0.0 || !std::isfinite(diag)) return Matrix();
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double v = a(i, j);
            for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
            l(i, j) = v / ljj;
        }
    }
    return l;
}

Matrix cholesky_factor_blocked(const Matrix& a, double jitter) {
    const std::size_t n = a.rows();
    Matrix l(n, n, 0.0);
    // Seed with the lower triangle of a (+ jitter on the diagonal); the
    // factorization then runs fully in place over contiguous rows.
    for (std::size_t i = 0; i < n; ++i) {
        const double* __restrict src = a.row_data(i);
        double* __restrict dst = l.row_data(i);
        for (std::size_t j = 0; j < i; ++j) dst[j] = src[j];
        dst[i] = src[i] + jitter;
    }
    for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
        const std::size_t j1 = std::min(n, j0 + kPanel);
        if (!factor_panel(l, j0, j1)) return Matrix();
        if (j1 < n) trailing_update(l, j0, j1);
    }
    return l;
}

namespace {

// Returns the lower Cholesky factor, or an empty matrix on failure.
Matrix factorize(const Matrix& a, double jitter) {
    return a.rows() >= kBlockedThreshold ? cholesky_factor_blocked(a, jitter)
                                         : cholesky_factor_unblocked(a, jitter);
}

}  // namespace

Cholesky::Cholesky(const Matrix& a, double jitter) {
    if (a.rows() != a.cols()) {
        throw std::invalid_argument("Cholesky: matrix must be square");
    }
    // A NaN/Inf input would fail factorization with a misleading
    // "not positive definite"; name the real problem first.
    TME_CONTRACT_DBG_CHECK(check::finite(a, "Cholesky input"));
    l_ = factorize(a, jitter);
    if (l_.empty() && a.rows() > 0) {
        throw std::runtime_error("Cholesky: matrix not positive definite");
    }
}

Vector Cholesky::solve(const Vector& b) const {
    const std::size_t n = l_.rows();
    if (b.size() != n) {
        throw std::invalid_argument("Cholesky::solve: size mismatch");
    }
    // Forward substitution: L y = b.
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = b[i];
        for (std::size_t k = 0; k < i; ++k) v -= l_(i, k) * y[k];
        y[i] = v / l_(i, i);
    }
    // Back substitution: L' x = y.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double v = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * x[k];
        x[ii] = v / l_(ii, ii);
    }
    return x;
}

std::optional<Cholesky> try_cholesky(const Matrix& a, double jitter) {
    if (a.rows() != a.cols()) return std::nullopt;
    Matrix l = factorize(a, jitter);
    if (l.empty() && a.rows() > 0) return std::nullopt;
    Cholesky c;
    // Reuse the computed factor rather than refactorizing.
    c.l_ = std::move(l);
    return c;
}

Vector solve_spd_robust(const Matrix& a, const Vector& b) {
    if (a.rows() != a.cols() || a.rows() != b.size()) {
        throw std::invalid_argument("solve_spd_robust: dimension mismatch");
    }
    const std::size_t n = a.rows();
    if (n == 0) return {};
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
    const double base = (trace > 0.0 ? trace / static_cast<double>(n) : 1.0);
    double jitter = 0.0;
    for (int attempt = 0; attempt < 24; ++attempt) {
        if (auto c = try_cholesky(a, jitter)) return c->solve(b);
        jitter = (jitter == 0.0 ? base * 1e-12 : jitter * 10.0);
    }
    throw std::runtime_error("solve_spd_robust: factorization failed");
}

}  // namespace tme::linalg
