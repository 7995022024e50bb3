#include "linalg/qr.hpp"

#include <cmath>
#include <stdexcept>

namespace tme::linalg {

Qr::Qr(const Matrix& a) : qr_(a), beta_(a.cols(), 0.0) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) {
        throw std::invalid_argument("Qr: requires rows >= cols");
    }
    for (std::size_t k = 0; k < n; ++k) {
        // Build the Householder reflector for column k.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) norm += qr_(i, k) * qr_(i, k);
        norm = std::sqrt(norm);
        if (norm == 0.0) {
            beta_[k] = 0.0;
            continue;
        }
        const double alpha = (qr_(k, k) >= 0.0 ? -norm : norm);
        const double v0 = qr_(k, k) - alpha;
        // v = (v0, a_{k+1,k}, ..., a_{m-1,k}); beta = 2 / v'v.
        double vtv = v0 * v0;
        for (std::size_t i = k + 1; i < m; ++i) vtv += qr_(i, k) * qr_(i, k);
        beta_[k] = (vtv == 0.0 ? 0.0 : 2.0 / vtv);
        qr_(k, k) = v0;
        // Apply the reflector to the remaining columns.
        for (std::size_t j = k + 1; j < n; ++j) {
            double w = 0.0;
            for (std::size_t i = k; i < m; ++i) w += qr_(i, k) * qr_(i, j);
            w *= beta_[k];
            for (std::size_t i = k; i < m; ++i) qr_(i, j) -= w * qr_(i, k);
        }
        // Store R's diagonal entry in place of the annihilated column head.
        // We keep v in the strictly lower part and remember r_kk separately
        // by overwriting after application; here r_kk = alpha.
        // To keep single-array packing, stash alpha and shift v0 out:
        // we store v (unnormalized) below diagonal and alpha on diagonal.
        // Temporarily hold v0 in a side array? Simpler: normalize v so
        // v0 = 1 and scale beta accordingly.
        const double inv_v0 = 1.0 / v0;
        for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) *= inv_v0;
        beta_[k] *= v0 * v0;
        qr_(k, k) = alpha;
    }
}

Vector Qr::q_transpose_mul(const Vector& b) const {
    const std::size_t m = qr_.rows();
    const std::size_t n = qr_.cols();
    if (b.size() != m) {
        throw std::invalid_argument("Qr::q_transpose_mul: size mismatch");
    }
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
        if (beta_[k] == 0.0) continue;
        // v = (1, qr_(k+1,k), ..., qr_(m-1,k))
        double w = y[k];
        for (std::size_t i = k + 1; i < m; ++i) w += qr_(i, k) * y[i];
        w *= beta_[k];
        y[k] -= w;
        for (std::size_t i = k + 1; i < m; ++i) y[i] -= w * qr_(i, k);
    }
    return y;
}

Vector Qr::solve(const Vector& b) const {
    const std::size_t n = qr_.cols();
    Vector y = q_transpose_mul(b);
    Vector x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double v = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) v -= qr_(ii, j) * x[j];
        const double r = qr_(ii, ii);
        if (r == 0.0) {
            // Rank-deficient column: pick the minimum-norm-ish choice x=0.
            x[ii] = 0.0;
        } else {
            x[ii] = v / r;
        }
    }
    return x;
}

Vector Qr::r_diagonal() const {
    Vector d(qr_.cols());
    for (std::size_t i = 0; i < qr_.cols(); ++i) d[i] = std::abs(qr_(i, i));
    return d;
}

std::size_t Qr::rank(double tol) const {
    const Vector d = r_diagonal();
    double dmax = 0.0;
    for (double v : d) dmax = std::max(dmax, v);
    if (dmax == 0.0) return 0;
    std::size_t r = 0;
    for (double v : d) {
        if (v > tol * dmax) ++r;
    }
    return r;
}

}  // namespace tme::linalg
