// Cholesky (LL') factorization of symmetric positive-definite matrices.
//
// The NNLS and QP solvers repeatedly solve small SPD systems built from
// Gram matrices of routing matrices; Cholesky is the workhorse for those.
// An optional diagonal "jitter" makes semi-definite Gram matrices (rank
// deficient routing submatrices) solvable in a least-norm sense.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace tme::linalg {

/// Lower-triangular Cholesky factor of an SPD matrix.
class Cholesky {
  public:
    /// Factorizes a (must be square and symmetric).  `jitter` is added to
    /// the diagonal before factorization; use a small positive value to
    /// regularize near-singular systems.  Throws std::invalid_argument if
    /// a is not square, std::runtime_error if factorization fails (matrix
    /// not positive definite even after jitter).
    explicit Cholesky(const Matrix& a, double jitter = 0.0);

    /// Solves A x = b via forward/back substitution.
    Vector solve(const Vector& b) const;

    const Matrix& factor() const { return l_; }

    std::size_t dim() const { return l_.rows(); }

  private:
    Cholesky() = default;
    friend std::optional<Cholesky> try_cholesky(const Matrix& a,
                                                double jitter);

    Matrix l_;
};

/// Attempts a Cholesky factorization; returns std::nullopt instead of
/// throwing when the matrix is not positive definite.
std::optional<Cholesky> try_cholesky(const Matrix& a, double jitter = 0.0);

/// Plain column-by-column factorization (the exact kernel the library
/// shipped with): returns the lower factor of a + jitter*I, or an empty
/// matrix when the input is not positive definite.  Kept public as the
/// reference implementation for the blocked kernel's property tests and
/// the solver benches.
Matrix cholesky_factor_unblocked(const Matrix& a, double jitter = 0.0);

/// Right-looking blocked factorization (panel factor + register-tiled
/// trailing update; see PERF.md).  Same contract as the unblocked
/// kernel; the two factors agree to ~1e-12 relative (summation order
/// differs).  `Cholesky` uses this kernel automatically for dimensions
/// >= 512, keeping every paper-scale system on the bitwise-exact
/// unblocked path.
Matrix cholesky_factor_blocked(const Matrix& a, double jitter = 0.0);

/// Solves the SPD system A x = b with automatic escalating jitter: tries
/// exact factorization first, then adds geometrically increasing diagonal
/// regularization (relative to trace(A)/n) until factorization succeeds.
/// This is the robust primitive the active-set solvers use on possibly
/// rank-deficient passive sets.
Vector solve_spd_robust(const Matrix& a, const Vector& b);

}  // namespace tme::linalg
