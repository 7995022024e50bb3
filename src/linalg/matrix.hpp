// Dense row-major matrix of doubles plus the BLAS-level-2/3 surface needed
// by the traffic-matrix estimation solvers (gemv, gemm, transpose, Gram
// products).  The level-3 kernels (gemm, gram) are the plain loops: no
// estimation path builds a dense product at scale (the Gram-free solvers
// generate columns on demand), so they serve tests and paper-scale
// setup only.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace tme::linalg {

namespace detail {

/// calloc-backed zeroed buffer (plus transparent-huge-page advice for
/// multi-MB buffers on Linux); defined in matrix.cpp so the platform
/// headers stay out of this widely included header.  Throws
/// std::bad_alloc on failure.
void* zeroed_allocate(std::size_t bytes);
void zeroed_deallocate(void* p);

/// High-water mark of the largest single Matrix allocation (bytes)
/// since the last reset.  Telemetry for the scale gates: the
/// generated-backbone bench asserts that no estimator ever allocates a
/// dense pairs x pairs structure (the operator QP's whole point), and
/// a counter beats auditing call sites by hand.  Relaxed
/// atomics — cheap enough to leave on unconditionally.
std::size_t peak_matrix_allocation_bytes();
void reset_peak_matrix_allocation();

/// Cumulative bytes handed out by zeroed_allocate since the last
/// reset.  Where the peak answers "did anything quadratic appear?",
/// the total measures allocation *churn* — a solver that allocates the
/// same temporary every window shows up here while staying invisible
/// to the peak.  Reported per phase in BENCH_solvers.json.
std::size_t total_matrix_allocation_bytes();
void reset_total_matrix_allocation();

/// Allocator backing Matrix storage: memory comes from calloc, and
/// value-initialization is a no-op (the pages are already zero).  A
/// zero-filled Gram at generated-backbone scale (hundreds of MB) is
/// thereby mapped as untouched zero pages instead of being written
/// once by the constructor and again by the accumulation — the
/// allocation cost of Matrix(n, n, 0.0) drops from O(n^2) writes to
/// O(1).  Element construction with explicit arguments (fills, copies)
/// behaves normally.
template <typename T>
struct ZeroAllocator {
    using value_type = T;
    using is_always_equal = std::true_type;

    ZeroAllocator() = default;
    template <typename U>
    ZeroAllocator(const ZeroAllocator<U>&) {}

    T* allocate(std::size_t n) {
        if (n == 0) return nullptr;
        return static_cast<T*>(zeroed_allocate(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t) { zeroed_deallocate(p); }

    /// Value-initialization: already zero from calloc.  (Safe because
    /// Matrix never shrinks-and-regrows its storage in place — every
    /// buffer is freshly allocated.)
    template <typename U>
    void construct(U*) {}
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    bool operator==(const ZeroAllocator&) const { return true; }
};

}  // namespace detail

/// Dense row-major matrix.  Invariant: data_.size() == rows_*cols_.
class Matrix {
  public:
    /// Empty 0x0 matrix.
    Matrix() = default;

    /// rows x cols matrix, all entries set to `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Builds from nested initializer lists; all rows must have equal size.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);

    /// Diagonal matrix with d on the diagonal.
    static Matrix diagonal(const Vector& d);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    double& operator()(std::size_t i, std::size_t j) {
        return data_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const {
        return data_[i * cols_ + j];
    }

    /// Bounds-checked access; throws std::out_of_range.
    double at(std::size_t i, std::size_t j) const;

    /// Pointer to the start of row i (row-major contiguous storage).
    double* row_data(std::size_t i) { return data_.data() + i * cols_; }
    const double* row_data(std::size_t i) const {
        return data_.data() + i * cols_;
    }

    /// Copies row i into a vector.
    Vector row(std::size_t i) const;

    /// Copies column j into a vector.
    Vector col(std::size_t j) const;

    void set_row(std::size_t i, const Vector& v);
    void set_col(std::size_t j, const Vector& v);

    Matrix transposed() const;

    /// Max |a_ij|.
    double max_abs() const;

    bool operator==(const Matrix& other) const = default;

    /// Human-readable dump (for test failure messages).
    std::string to_string(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double, detail::ZeroAllocator<double>> data_;
};

/// y = A x.
Vector gemv(const Matrix& a, const Vector& x);

/// y = A' x  (transpose product without forming A').
Vector gemv_transpose(const Matrix& a, const Vector& x);

/// C = A B.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C = A' A  (Gram matrix, exploits symmetry).
Matrix gram(const Matrix& a);

/// Copies the strict upper triangle of a square matrix onto the lower
/// one (tiled — a straight column walk over a multi-hundred-MB Gram is
/// a cache miss per element).  The Gram builders finish with this.
void symmetrize_from_upper(Matrix& g);

/// C = alpha*A + beta*B.
Matrix add(double alpha, const Matrix& a, double beta, const Matrix& b);

/// Maximum absolute difference between two equally-sized matrices.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace tme::linalg
