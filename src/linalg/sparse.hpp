// Compressed-sparse-row matrix.
//
// Routing matrices R (links x OD-pairs) are very sparse: a column has one
// nonzero per link on the OD pair's path.  The estimation solvers need
// R*x, R'*x, Gram products R'R, and row/column slicing; all are provided
// here without densifying.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace tme::linalg {

/// One nonzero entry for triplet-based construction.
struct Triplet {
    std::size_t row = 0;
    std::size_t col = 0;
    double value = 0.0;
};

/// Raw-pointer CSR view for tight solver loops: no bounds checks, no
/// vector indirection, stable for the lifetime of the SparseMatrix it
/// was taken from.  Row i's nonzeros live at [offsets[i], offsets[i+1])
/// in `col_index` / `values`.
struct CsrView {
    std::size_t rows = 0;
    std::size_t cols = 0;
    const std::size_t* offsets = nullptr;   // rows + 1 entries
    const std::size_t* col_index = nullptr;
    const double* values = nullptr;
};

/// Immutable CSR sparse matrix.  Duplicate triplets are summed.
class SparseMatrix {
  public:
    SparseMatrix() = default;

    /// Builds from triplets; entries that sum to exactly zero are kept out.
    SparseMatrix(std::size_t rows, std::size_t cols,
                 std::vector<Triplet> triplets);

    static SparseMatrix from_dense(const Matrix& dense,
                                   double drop_tol = 0.0);

    /// Adopts ready-made CSR arrays (offsets.size() == rows + 1, column
    /// indices sorted strictly ascending within each row).  O(nnz)
    /// validation, no re-sorting — the constructor for kernels that
    /// produce CSR output directly (transpose).  Throws
    /// std::invalid_argument on malformed input.
    static SparseMatrix from_csr(std::size_t rows, std::size_t cols,
                                 std::vector<std::size_t> offsets,
                                 std::vector<std::size_t> col_indices,
                                 std::vector<double> values);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t nonzeros() const { return values_.size(); }

    /// y = A x.
    Vector multiply(const Vector& x) const;

    /// y = A x into a caller-owned buffer (resized to rows()).  Exactly
    /// the arithmetic of multiply(), minus the per-call allocation —
    /// the iterative projection solvers (MART, entropy) call this every
    /// sweep, where a fresh rows()-sized vector per call is pure churn.
    void multiply_into(const Vector& x, Vector& y) const;

    /// y = A' x.
    Vector multiply_transpose(const Vector& x) const;

    /// y = A' x into a caller-owned buffer (resized to cols()).
    void multiply_transpose_into(const Vector& x, Vector& y) const;

    /// Dense Gram matrix G = A' A (cols x cols).
    Matrix gram() const;

    /// Dense copy.
    Matrix to_dense() const;

    /// Entry lookup (O(row nnz)); returns 0 for structural zeros.
    double at(std::size_t i, std::size_t j) const;

    /// New matrix keeping only the given columns (in the given order).
    SparseMatrix select_columns(const std::vector<std::size_t>& cols) const;

    /// Number of nonzeros in column j (O(nnz) scan).
    std::size_t column_nonzeros(std::size_t j) const;

    // Raw CSR access for tight solver loops.
    const std::vector<std::size_t>& row_offsets() const { return offsets_; }
    const std::vector<std::size_t>& column_indices() const { return cols_idx_; }
    const std::vector<double>& values() const { return values_; }

    /// Pointer-level CSR view (valid while this matrix is alive).
    CsrView view() const {
        return {rows_, cols_, offsets_.data(), cols_idx_.data(),
                values_.data()};
    }

    /// Content equality: same shape, same CSR arrays, equal values.
    bool operator==(const SparseMatrix&) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> offsets_;   // rows_+1 entries
    std::vector<std::size_t> cols_idx_;  // column index per nonzero
    std::vector<double> values_;
};

/// CSR transpose (counting pass, values copied verbatim).  Row j of the
/// result lists column j of A with source rows ascending — exactly the
/// order in which the Gram kernels visit column j's carriers, which is
/// what lets `gram_column` reproduce a Gram row bitwise without the
/// Gram ever existing.
SparseMatrix transpose(const SparseMatrix& a);

/// Scatters row j of G = A'A into `scratch` (caller-owned, length
/// A.cols(), all-zero on entry) and appends the ascending support
/// indices to `support` (cleared first).  `at` must be transpose(A)'s
/// view.  The accumulation visits column j's carriers in source-row
/// order and folds each carrying row's full span — the same loop, in
/// the same order, as gram_sparse runs for output row j, so the
/// scattered values are bitwise equal to that Gram row and entries
/// that cancel to exactly 0.0 are absent from `support`.  The
/// caller must zero the support entries of `scratch` back before the
/// next call.
void gram_column(const CsrView& a, const CsrView& at, std::size_t j,
                 double* scratch, std::vector<std::size_t>& support);

/// Writes the diagonal of G = A'A into `out` (length A.cols()); `at`
/// must be transpose(A)'s view.  out[j] is bitwise gram_column's
/// scratch[j] and gram_sparse's G(j, j): the one copy of the Gram
/// diagonal loop, for the Jacobi preconditioners and scale estimates
/// of the operator QPs.
void gram_diagonal(const CsrView& at, double* out);

/// Dense Gram matrix G = A'A accumulated from row outer products over
/// the nonzeros only — A is never densified, so the arithmetic cost is
/// sum_i nnz(row_i)^2 instead of the nnz * cols of the densifying
/// path.  Element-for-element the accumulation order matches
/// gram(A.to_dense()) (source rows ascending), so the two are bitwise
/// equal on finite inputs.  SparseMatrix::gram() forwards here.
Matrix gram_sparse(const SparseMatrix& a);

}  // namespace tme::linalg
