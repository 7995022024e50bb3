// Householder QR factorization and least-squares solving.
//
// Used for dense least-squares subproblems where forming the Gram matrix
// would square the condition number (e.g. validating NNLS passive-set
// solves in tests, and the mean-variance log-log regression fit).
#pragma once

#include "linalg/matrix.hpp"

namespace tme::linalg {

/// Householder QR of an m x n matrix with m >= n.
class Qr {
  public:
    /// Factorizes a (requires rows >= cols, throws otherwise).
    explicit Qr(const Matrix& a);

    /// Minimizes ||A x - b||_2; returns x of length cols().
    Vector solve(const Vector& b) const;

    /// Computes Q' b (length rows()).
    Vector q_transpose_mul(const Vector& b) const;

    /// Absolute values of the R diagonal (rank diagnostics).
    Vector r_diagonal() const;

    /// Numerical rank: number of |r_ii| above tol * max|r_ii|.
    std::size_t rank(double tol = 1e-10) const;

    std::size_t rows() const { return qr_.rows(); }
    std::size_t cols() const { return qr_.cols(); }

  private:
    Matrix qr_;    // Householder vectors below diagonal, R on/above
    Vector beta_;  // Householder scalars
};

}  // namespace tme::linalg
