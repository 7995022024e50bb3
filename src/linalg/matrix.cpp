#include "linalg/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace tme::linalg {

namespace detail {

namespace {
std::atomic<std::size_t> g_peak_allocation_bytes{0};
std::atomic<std::size_t> g_total_allocation_bytes{0};
}  // namespace

std::size_t peak_matrix_allocation_bytes() {
    return g_peak_allocation_bytes.load(std::memory_order_relaxed);
}

void reset_peak_matrix_allocation() {
    g_peak_allocation_bytes.store(0, std::memory_order_relaxed);
}

std::size_t total_matrix_allocation_bytes() {
    return g_total_allocation_bytes.load(std::memory_order_relaxed);
}

void reset_total_matrix_allocation() {
    g_total_allocation_bytes.store(0, std::memory_order_relaxed);
}

void* zeroed_allocate(std::size_t bytes) {
    std::size_t peak =
        g_peak_allocation_bytes.load(std::memory_order_relaxed);
    while (bytes > peak &&
           !g_peak_allocation_bytes.compare_exchange_weak(
               peak, bytes, std::memory_order_relaxed)) {
    }
    g_total_allocation_bytes.fetch_add(bytes, std::memory_order_relaxed);
    void* p = std::calloc(bytes, 1);
    if (p == nullptr) throw std::bad_alloc();
#if defined(__linux__)
    // Multi-MB Grams fault in hundreds of thousands of 4 KB pages; ask
    // for transparent huge pages (no-op where THP is off).
    if (bytes >= (std::size_t{8} << 20)) {
        madvise(p, bytes, MADV_HUGEPAGE);
    }
#endif
    return p;
}

void zeroed_deallocate(void* p) { std::free(p); }

}  // namespace detail

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols) {
    if (fill == 0.0 && !std::signbit(fill)) {
        // Value-init path: calloc zero pages, no element writes.
        data_.resize(rows * cols);
    } else {
        data_.assign(rows * cols, fill);
    }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) {
            throw std::invalid_argument("Matrix: ragged initializer list");
        }
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::diagonal(const Vector& d) {
    Matrix m(d.size(), d.size(), 0.0);
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

double Matrix::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) {
        throw std::out_of_range("Matrix::at: index out of range");
    }
    return (*this)(i, j);
}

Vector Matrix::row(std::size_t i) const {
    if (i >= rows_) throw std::out_of_range("Matrix::row: index out of range");
    return Vector(row_data(i), row_data(i) + cols_);
}

Vector Matrix::col(std::size_t j) const {
    if (j >= cols_) throw std::out_of_range("Matrix::col: index out of range");
    Vector v(rows_);
    // Single strided pass over the column: the pointer walks the storage
    // once with a fixed stride instead of re-deriving i*cols_+j per row.
    const double* __restrict src = data_.data() + j;
    double* __restrict dst = v.data();
    for (std::size_t i = 0; i < rows_; ++i, src += cols_) dst[i] = *src;
    return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
    if (i >= rows_ || v.size() != cols_) {
        throw std::invalid_argument("Matrix::set_row: bad row or size");
    }
    std::copy(v.begin(), v.end(), row_data(i));
}

void Matrix::set_col(std::size_t j, const Vector& v) {
    if (j >= cols_ || v.size() != rows_) {
        throw std::invalid_argument("Matrix::set_col: bad column or size");
    }
    double* __restrict dst = data_.data() + j;
    const double* __restrict src = v.data();
    for (std::size_t i = 0; i < rows_; ++i, dst += cols_) *dst = src[i];
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    // Tiled transpose: a straight j-inner loop strides through the output
    // by rows_ doubles per store, missing cache on every write for large
    // matrices.  Square tiles keep both the read rows and the written
    // rows resident while a tile is processed.
    constexpr std::size_t kTile = 32;
    for (std::size_t i0 = 0; i0 < rows_; i0 += kTile) {
        const std::size_t ilim = std::min(rows_, i0 + kTile);
        for (std::size_t j0 = 0; j0 < cols_; j0 += kTile) {
            const std::size_t jlim = std::min(cols_, j0 + kTile);
            for (std::size_t i = i0; i < ilim; ++i) {
                const double* __restrict src = row_data(i);
                for (std::size_t j = j0; j < jlim; ++j) {
                    t(j, i) = src[j];
                }
            }
        }
    }
    return t;
}

double Matrix::max_abs() const {
    double acc = 0.0;
    for (double v : data_) acc = std::max(acc, std::abs(v));
    return acc;
}

std::string Matrix::to_string(int precision) const {
    std::ostringstream os;
    os.precision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t j = 0; j < cols_; ++j) {
            os << (*this)(i, j) << (j + 1 == cols_ ? "" : " ");
        }
        os << '\n';
    }
    return os.str();
}

Vector gemv(const Matrix& a, const Vector& x) {
    if (a.cols() != x.size()) {
        throw std::invalid_argument("gemv: dimension mismatch");
    }
    Vector y(a.rows(), 0.0);
    const std::size_t n = a.cols();
    const double* __restrict xp = x.data();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* __restrict row = a.row_data(i);
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j) acc += row[j] * xp[j];
        y[i] = acc;
    }
    return y;
}

Vector gemv_transpose(const Matrix& a, const Vector& x) {
    if (a.rows() != x.size()) {
        throw std::invalid_argument("gemv_transpose: dimension mismatch");
    }
    Vector y(a.cols(), 0.0);
    const std::size_t n = a.cols();
    double* __restrict yp = y.data();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* __restrict row = a.row_data(i);
        const double xi = x[i];
        if (xi == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) yp[j] += xi * row[j];
    }
    return y;
}

Matrix gemm(const Matrix& a, const Matrix& b) {
    if (a.cols() != b.rows()) {
        throw std::invalid_argument("gemm: dimension mismatch");
    }
    Matrix c(a.rows(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* __restrict arow = a.row_data(i);
        double* __restrict crow = c.row_data(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = arow[k];
            if (aik == 0.0) continue;
            const double* __restrict brow = b.row_data(k);
            for (std::size_t j = 0; j < b.cols(); ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
    return c;
}

Matrix gram(const Matrix& a) {
    const std::size_t n = a.cols();
    Matrix g(n, n, 0.0);
    // Upper triangle by per-row rank-1 updates: every (p, q) element sums
    // its terms with i ascending, skipping exact zeros — the order
    // gram_sparse replays.
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* __restrict row = a.row_data(i);
        for (std::size_t p = 0; p < n; ++p) {
            const double rp = row[p];
            if (rp == 0.0) continue;
            double* __restrict grow = g.row_data(p);
            for (std::size_t q = p; q < n; ++q) grow[q] += rp * row[q];
        }
    }
    symmetrize_from_upper(g);
    return g;
}

void symmetrize_from_upper(Matrix& g) {
    if (g.rows() != g.cols()) {
        throw std::invalid_argument(
            "symmetrize_from_upper: matrix must be square");
    }
    const std::size_t n = g.rows();
    constexpr std::size_t kTile = 64;
    for (std::size_t p0 = 0; p0 < n; p0 += kTile) {
        const std::size_t plim = std::min(n, p0 + kTile);
        for (std::size_t q0 = 0; q0 <= p0; q0 += kTile) {
            const std::size_t qlim = std::min(plim, q0 + kTile);
            for (std::size_t p = p0; p < plim; ++p) {
                double* __restrict grow = g.row_data(p);
                for (std::size_t q = q0; q < qlim && q < p; ++q) {
                    grow[q] = g(q, p);
                }
            }
        }
    }
}

Matrix add(double alpha, const Matrix& a, double beta, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        throw std::invalid_argument("add: dimension mismatch");
    }
    Matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            c(i, j) = alpha * a(i, j) + beta * b(i, j);
        }
    }
    return c;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        throw std::invalid_argument("max_abs_diff: dimension mismatch");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            acc = std::max(acc, std::abs(a(i, j) - b(i, j)));
        }
    }
    return acc;
}

}  // namespace tme::linalg
