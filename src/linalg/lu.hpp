// LU factorization with partial pivoting for general square systems.
//
// Used for the KKT systems of equality-constrained QPs (symmetric but
// indefinite, so Cholesky does not apply) and anywhere a general square
// solve is needed.
#pragma once

#include "linalg/matrix.hpp"

namespace tme::linalg {

/// PA = LU factorization with partial (row) pivoting.
class Lu {
  public:
    /// Factorizes a square matrix.  Throws std::invalid_argument if not
    /// square; singular() reports near-singularity after construction.
    explicit Lu(const Matrix& a);

    /// True when a pivot below `tolerance * max|a_ij|` was encountered.
    bool singular() const { return singular_; }

    /// Solves A x = b.  Throws std::runtime_error if singular().
    Vector solve(const Vector& b) const;

    /// Magnitude of the smallest pivot encountered (diagnostic).
    double min_pivot() const { return min_pivot_; }

  private:
    Matrix lu_;                  // packed L (unit diagonal) and U
    std::vector<std::size_t> perm_;  // row permutation
    bool singular_ = false;
    double min_pivot_ = 0.0;
};

}  // namespace tme::linalg
