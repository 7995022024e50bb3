// CSR product kernels shared by SparseMatrix::multiply_into /
// multiply_transpose_into (sparse.cpp) and the blocked routing-operator
// products (blocked_spmv.cpp).  Both call these same row and segment
// loops, so a blocked product rounds every sum exactly as the serial
// product does by construction, whatever the compiler's floating-point
// contraction defaults.
#pragma once

#include <cmath>
#include <cstddef>

#include "linalg/sparse.hpp"

namespace tme::linalg::detail {

/// c + a * b: one fused multiply-add where the target has a fast one,
/// plain multiply-then-add otherwise.  Spelled out so that whether a
/// sum is fused never depends on how the optimizer treated one loop.
inline double mul_add(double a, double b, double c) {
#if defined(__FMA__) || defined(FP_FAST_FMA)
    return std::fma(a, b, c);
#else
    return c + a * b;
#endif
}

/// y[i] = sum_t A(i, t) x[t], ascending over row i's entries, for rows
/// [begin, end).  Unit = true is for a matrix whose stored values are
/// all exactly 1.0: it never reads them and adds instead of fusing,
/// which rounds the same because fma(1.0, u, acc) == acc + u.
template <bool Unit = false>
inline void csr_rows_times(const CsrView& a, const double* __restrict x,
                           std::size_t begin, std::size_t end,
                           double* __restrict y) {
    const std::size_t* __restrict off = a.offsets;
    const std::size_t* __restrict cidx = a.col_index;
    const double* __restrict vals = a.values;
    for (std::size_t i = begin; i < end; ++i) {
        double acc = 0.0;
        for (std::size_t t = off[i]; t < off[i + 1]; ++t) {
            if constexpr (Unit) {
                acc += x[cidx[t]];
            } else {
                acc = mul_add(vals[t], x[cidx[t]], acc);
            }
        }
        y[i] = acc;
    }
}

/// y[col(t)] += xi * A(t) for the entries [t0, t1) of one row: the
/// scatter step of y = A' x (Unit as for csr_rows_times).
template <bool Unit = false>
inline void csr_scatter(double xi, const CsrView& a, std::size_t t0,
                        std::size_t t1, double* __restrict y) {
    const std::size_t* __restrict cidx = a.col_index;
    const double* __restrict vals = a.values;
    for (std::size_t t = t0; t < t1; ++t) {
        if constexpr (Unit) {
            y[cidx[t]] += xi;
        } else {
            y[cidx[t]] = mul_add(xi, vals[t], y[cidx[t]]);
        }
    }
}

}  // namespace tme::linalg::detail
