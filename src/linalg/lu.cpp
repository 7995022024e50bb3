#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace tme::linalg {

Lu::Lu(const Matrix& a) : lu_(a), perm_(a.rows()) {
    if (a.rows() != a.cols()) {
        throw std::invalid_argument("Lu: matrix must be square");
    }
    const std::size_t n = a.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    const double scale = a.max_abs();
    const double tol = scale * 1e-13;
    min_pivot_ = scale;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest remaining entry in column k.
        std::size_t piv = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(lu_(i, k));
            if (v > best) {
                best = v;
                piv = i;
            }
        }
        if (piv != k) {
            for (std::size_t j = 0; j < n; ++j) {
                std::swap(lu_(k, j), lu_(piv, j));
            }
            std::swap(perm_[k], perm_[piv]);
        }
        const double pivot = lu_(k, k);
        min_pivot_ = std::min(min_pivot_, std::abs(pivot));
        if (std::abs(pivot) <= tol) {
            singular_ = true;
            continue;
        }
        for (std::size_t i = k + 1; i < n; ++i) {
            const double m = lu_(i, k) / pivot;
            lu_(i, k) = m;
            if (m == 0.0) continue;
            for (std::size_t j = k + 1; j < n; ++j) {
                lu_(i, j) -= m * lu_(k, j);
            }
        }
    }
}

Vector Lu::solve(const Vector& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) {
        throw std::invalid_argument("Lu::solve: size mismatch");
    }
    if (singular_) {
        throw std::runtime_error("Lu::solve: matrix is singular");
    }
    // Apply permutation, then forward substitution with unit-lower L.
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = b[perm_[i]];
        for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
        y[i] = v;
    }
    // Back substitution with U.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double v = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(ii, k) * x[k];
        x[ii] = v / lu_(ii, ii);
    }
    return x;
}

}  // namespace tme::linalg
