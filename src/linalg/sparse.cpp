#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "linalg/csr_kernels.hpp"

namespace tme::linalg {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
    for (const Triplet& t : triplets) {
        if (t.row >= rows || t.col >= cols) {
            throw std::invalid_argument("SparseMatrix: triplet out of range");
        }
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet& a, const Triplet& b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    offsets_.assign(rows_ + 1, 0);
    cols_idx_.reserve(triplets.size());
    values_.reserve(triplets.size());
    std::size_t i = 0;
    while (i < triplets.size()) {
        // Sum duplicates.
        std::size_t j = i;
        double v = 0.0;
        while (j < triplets.size() && triplets[j].row == triplets[i].row &&
               triplets[j].col == triplets[i].col) {
            v += triplets[j].value;
            ++j;
        }
        if (v != 0.0) {
            cols_idx_.push_back(triplets[i].col);
            values_.push_back(v);
            ++offsets_[triplets[i].row + 1];
        }
        i = j;
    }
    for (std::size_t r = 0; r < rows_; ++r) offsets_[r + 1] += offsets_[r];
}

SparseMatrix SparseMatrix::from_csr(std::size_t rows, std::size_t cols,
                                    std::vector<std::size_t> offsets,
                                    std::vector<std::size_t> col_indices,
                                    std::vector<double> values) {
    if (offsets.size() != rows + 1 || offsets.front() != 0 ||
        offsets.back() != col_indices.size() ||
        col_indices.size() != values.size()) {
        throw std::invalid_argument("SparseMatrix::from_csr: bad shape");
    }
    for (std::size_t i = 0; i < rows; ++i) {
        if (offsets[i] > offsets[i + 1]) {
            throw std::invalid_argument(
                "SparseMatrix::from_csr: offsets not monotone");
        }
        for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            if (col_indices[k] >= cols ||
                (k > offsets[i] && col_indices[k - 1] >= col_indices[k])) {
                throw std::invalid_argument(
                    "SparseMatrix::from_csr: columns not sorted unique in "
                    "range");
            }
        }
    }
    SparseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.offsets_ = std::move(offsets);
    m.cols_idx_ = std::move(col_indices);
    m.values_ = std::move(values);
    return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense, double drop_tol) {
    std::vector<Triplet> trips;
    for (std::size_t i = 0; i < dense.rows(); ++i) {
        for (std::size_t j = 0; j < dense.cols(); ++j) {
            const double v = dense(i, j);
            if (std::abs(v) > drop_tol) trips.push_back({i, j, v});
        }
    }
    return SparseMatrix(dense.rows(), dense.cols(), std::move(trips));
}

Vector SparseMatrix::multiply(const Vector& x) const {
    Vector y;
    multiply_into(x, y);
    return y;
}

void SparseMatrix::multiply_into(const Vector& x, Vector& y) const {
    if (x.size() != cols_) {
        throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
    }
    y.assign(rows_, 0.0);
    detail::csr_rows_times(view(), x.data(), 0, rows_, y.data());
}

Vector SparseMatrix::multiply_transpose(const Vector& x) const {
    Vector y;
    multiply_transpose_into(x, y);
    return y;
}

void SparseMatrix::multiply_transpose_into(const Vector& x,
                                           Vector& y) const {
    if (x.size() != rows_) {
        throw std::invalid_argument(
            "SparseMatrix::multiply_transpose: size mismatch");
    }
    y.assign(cols_, 0.0);
    const CsrView a = view();
    for (std::size_t i = 0; i < rows_; ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        detail::csr_scatter(xi, a, offsets_[i], offsets_[i + 1], y.data());
    }
}

Matrix SparseMatrix::gram() const { return gram_sparse(*this); }

namespace {

/// CSC-style column supports of a CSR matrix: for each column p, the
/// CSR positions of its nonzeros (source rows ascending — a
/// column-counting pass over the row-sorted CSR arrays yields them in
/// that order) plus the bounds of the row each nonzero lives in —
/// gram_sparse's indexing pass.
struct ColumnSupports {
    std::vector<std::size_t> col_start;  // cols + 1 entries
    std::vector<std::size_t> entry_pos;
    std::vector<std::size_t> entry_row_start;
    std::vector<std::size_t> entry_row_end;
};

ColumnSupports column_supports(const CsrView& v, std::size_t nnz) {
    ColumnSupports cs;
    cs.col_start.assign(v.cols + 1, 0);
    for (std::size_t k = 0; k < nnz; ++k) {
        ++cs.col_start[v.col_index[k] + 1];
    }
    for (std::size_t p = 0; p < v.cols; ++p) {
        cs.col_start[p + 1] += cs.col_start[p];
    }
    cs.entry_pos.resize(nnz);
    cs.entry_row_start.resize(nnz);
    cs.entry_row_end.resize(nnz);
    std::vector<std::size_t> fill(cs.col_start.begin(),
                                  cs.col_start.end() - 1);
    for (std::size_t i = 0; i < v.rows; ++i) {
        const std::size_t row_start = v.offsets[i];
        const std::size_t row_end = v.offsets[i + 1];
        for (std::size_t k = row_start; k < row_end; ++k) {
            const std::size_t slot = fill[v.col_index[k]]++;
            cs.entry_pos[slot] = k;
            cs.entry_row_start[slot] = row_start;
            cs.entry_row_end[slot] = row_end;
        }
    }
    return cs;
}

}  // namespace

Matrix gram_sparse(const SparseMatrix& a) {
    const CsrView v = a.view();
    Matrix g(v.cols, v.cols, 0.0);

    // CSC-ordered accumulation: for each output row p, visit the source
    // rows carrying column p (ascending) and fold in each carrying
    // row's full span.  Every G(p, q) element thereby accumulates its
    // terms in source-row-ascending order — bitwise what the naive
    // row-outer upper-triangle sweep plus a mirror copy produces
    // (products commute, so the lower entries match their mirrored
    // twins exactly) — but with two locality wins: all updates to G
    // row p happen back to back, and structurally-zero regions of the
    // (potentially huge) output are never touched at all, so their
    // calloc-backed pages stay unfaulted.
    const ColumnSupports cs = column_supports(v, a.nonzeros());
    const std::size_t* __restrict qi = v.col_index;
    const double* __restrict qv = v.values;
    for (std::size_t p = 0; p < v.cols; ++p) {
        double* __restrict grow = g.row_data(p);
        for (std::size_t slot = cs.col_start[p]; slot < cs.col_start[p + 1];
             ++slot) {
            const double vp = qv[cs.entry_pos[slot]];
            const std::size_t row_end = cs.entry_row_end[slot];
            for (std::size_t l = cs.entry_row_start[slot]; l < row_end;
                 ++l) {
                grow[qi[l]] = detail::mul_add(vp, qv[l], grow[qi[l]]);
            }
        }
    }
    return g;
}

Matrix SparseMatrix::to_dense() const {
    Matrix d(rows_, cols_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
            d(i, cols_idx_[k]) = values_[k];
        }
    }
    return d;
}

double SparseMatrix::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) {
        throw std::out_of_range("SparseMatrix::at: index out of range");
    }
    for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        if (cols_idx_[k] == j) return values_[k];
    }
    return 0.0;
}

SparseMatrix SparseMatrix::select_columns(
    const std::vector<std::size_t>& cols) const {
    std::vector<std::size_t> new_index(cols_, SIZE_MAX);
    for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] >= cols_) {
            throw std::out_of_range("select_columns: index out of range");
        }
        new_index[cols[j]] = j;
    }
    std::vector<Triplet> trips;
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
            const std::size_t nj = new_index[cols_idx_[k]];
            if (nj != SIZE_MAX) trips.push_back({i, nj, values_[k]});
        }
    }
    return SparseMatrix(rows_, cols.size(), std::move(trips));
}

std::size_t SparseMatrix::column_nonzeros(std::size_t j) const {
    std::size_t count = 0;
    for (std::size_t c : cols_idx_) {
        if (c == j) ++count;
    }
    return count;
}

SparseMatrix transpose(const SparseMatrix& a) {
    const CsrView v = a.view();
    const std::size_t nnz = a.nonzeros();
    std::vector<std::size_t> offsets(v.cols + 1, 0);
    for (std::size_t k = 0; k < nnz; ++k) {
        ++offsets[v.col_index[k] + 1];
    }
    for (std::size_t p = 0; p < v.cols; ++p) offsets[p + 1] += offsets[p];
    std::vector<std::size_t> cols_idx(nnz);
    std::vector<double> values(nnz);
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < v.rows; ++i) {
        for (std::size_t k = v.offsets[i]; k < v.offsets[i + 1]; ++k) {
            const std::size_t slot = fill[v.col_index[k]]++;
            cols_idx[slot] = i;
            values[slot] = v.values[k];
        }
    }
    return SparseMatrix::from_csr(v.cols, v.rows, std::move(offsets),
                                  std::move(cols_idx), std::move(values));
}

void gram_column(const CsrView& a, const CsrView& at, std::size_t j,
                 double* scratch, std::vector<std::size_t>& support) {
    support.clear();
    // Row j of A' lists column j's carriers with source rows ascending
    // and the stored values verbatim, so this loop replays the Gram
    // kernels' output-row-j accumulation exactly: fold each carrying
    // row's full span, weighted by the carrier value.
    const std::size_t* __restrict qi = a.col_index;
    const double* __restrict qv = a.values;
    double* __restrict sc = scratch;
    std::size_t lo = a.cols;
    std::size_t hi = 0;
    for (std::size_t t = at.offsets[j]; t < at.offsets[j + 1]; ++t) {
        const double vp = at.values[t];
        const std::size_t l = at.col_index[t];
        const std::size_t row_start = a.offsets[l];
        const std::size_t row_end = a.offsets[l + 1];
        if (row_start < row_end) {
            lo = std::min(lo, qi[row_start]);
            hi = std::max(hi, qi[row_end - 1] + 1);
        }
        for (std::size_t k = row_start; k < row_end; ++k) {
            sc[qi[k]] = detail::mul_add(vp, qv[k], sc[qi[k]]);
        }
    }
    for (std::size_t q = lo; q < hi; ++q) {
        if (sc[q] != 0.0) support.push_back(q);
    }
}

void gram_diagonal(const CsrView& at, double* out) {
    // Column j's carriers, source rows ascending: the terms gram_sparse
    // and gram_column fold into G(j, j), in their order and through the
    // same mul_add.
    for (std::size_t j = 0; j < at.rows; ++j) {
        double d = 0.0;
        for (std::size_t t = at.offsets[j]; t < at.offsets[j + 1]; ++t) {
            d = detail::mul_add(at.values[t], at.values[t], d);
        }
        out[j] = d;
    }
}

}  // namespace tme::linalg
