#include "linalg/blocked_spmv.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "check/contract.hpp"
#include "linalg/csr_kernels.hpp"

namespace tme::linalg {

namespace {

using detail::mul_add;

/// Row blocks and column blocks per operator: enough for the pool
/// sizes the engine runs (a block each for up to 16 threads, or a few
/// each for a handful), few enough that the per-row segment table stays
/// small.
constexpr std::size_t kBlocks = 16;

/// Calls f(std::integral_constant<std::size_t, K>, k0) for consecutive
/// sample chunks [k0, k0 + K) covering [0, window), K <= 8, so the
/// per-sample accumulators live in registers with a compile-time trip
/// count.
template <class F>
void for_each_sample_chunk(std::size_t window, F&& f) {
    std::size_t k0 = 0;
    for (; k0 + 8 <= window; k0 += 8) {
        f(std::integral_constant<std::size_t, 8>{}, k0);
    }
    switch (window - k0) {
        case 1: f(std::integral_constant<std::size_t, 1>{}, k0); break;
        case 2: f(std::integral_constant<std::size_t, 2>{}, k0); break;
        case 3: f(std::integral_constant<std::size_t, 3>{}, k0); break;
        case 4: f(std::integral_constant<std::size_t, 4>{}, k0); break;
        case 5: f(std::integral_constant<std::size_t, 5>{}, k0); break;
        case 6: f(std::integral_constant<std::size_t, 6>{}, k0); break;
        case 7: f(std::integral_constant<std::size_t, 7>{}, k0); break;
        default: break;
    }
}

/// Calls f(std::bool_constant<unit>{}): the kernels' Unit argument as a
/// compile-time constant.
template <class F>
void with_unit(bool unit, F&& f) {
    if (unit) {
        f(std::true_type{});
    } else {
        f(std::false_type{});
    }
}

/// v[i * window + k] = sum_t R(i, t) * (w_k[t] * x[t]) for rows
/// [begin, end) and samples [k0, k0 + K), with w_k[t] =
/// gw[group_of[t] * window + k]: the ascending dot product
/// multiply_into forms on u = w_k .* x.  Unit (every R(i, t) == 1.0)
/// skips the values but still rounds w_k[t] * x[t] before the add,
/// exactly as multiply_into's fma(1.0, u[t], acc) does; letting the
/// compiler contract the two into fma(w, x, acc) would not.
template <std::size_t K, bool Unit>
void weighted_rows(const CsrView& r, const double* __restrict x,
                   const std::size_t* __restrict group_of,
                   const double* __restrict gw, std::size_t window,
                   std::size_t k0, std::size_t begin, std::size_t end,
                   double* __restrict v) {
    const std::size_t* __restrict off = r.offsets;
    const std::size_t* __restrict cidx = r.col_index;
    const double* __restrict vals = r.values;
    for (std::size_t i = begin; i < end; ++i) {
        double acc[K] = {};
        for (std::size_t t = off[i]; t < off[i + 1]; ++t) {
            const std::size_t c = cidx[t];
            const double val = Unit ? 1.0 : vals[t];
            const double xc = x[c];
            const double* __restrict wc = gw + group_of[c] * window + k0;
            for (std::size_t k = 0; k < K; ++k) {
                acc[k] = mul_add(val, wc[k] * xc, acc[k]);
            }
        }
        double* __restrict vi = v + i * window + k0;
        for (std::size_t k = 0; k < K; ++k) vi[k] = acc[k];
    }
}

/// y[p] for pairs [begin, end) and samples [k0, k0 + K), as a gather
/// over the rows of R': z_k[p] = sum_i R'(p, i) v_k[i] over pair p's
/// links ascending, from K accumulators at +0, then folded as
/// y[p] = mul_add(w_k[p], z_k[p], y[p]) in sample order, from +0 on
/// the first chunk and from the previous chunk's y[p] after it.  Each
/// z_k[p] takes the terms of multiply_transpose_into's scatter in its
/// source-row order; the scatter skips zero inputs, and adding a signed
/// zero to a sum started at +0 never changes it, so the bits agree.
/// Unit adds v_k[i] instead of fusing it with a value of 1.0.
template <std::size_t K, bool Unit>
void weighted_gather(const CsrView& rt, const double* __restrict v,
                     const std::size_t* __restrict group_of,
                     const double* __restrict gw, std::size_t window,
                     std::size_t k0, std::size_t begin, std::size_t end,
                     double* __restrict y) {
    const std::size_t* __restrict off = rt.offsets;
    const std::size_t* __restrict cidx = rt.col_index;
    const double* __restrict vals = rt.values;
    for (std::size_t p = begin; p < end; ++p) {
        double acc[K] = {};
        for (std::size_t t = off[p]; t < off[p + 1]; ++t) {
            const double* __restrict vi = v + cidx[t] * window + k0;
            for (std::size_t k = 0; k < K; ++k) {
                if constexpr (Unit) {
                    acc[k] += vi[k];
                } else {
                    acc[k] = mul_add(vi[k], vals[t], acc[k]);
                }
            }
        }
        const double* __restrict wp = gw + group_of[p] * window + k0;
        double yp = k0 == 0 ? 0.0 : y[p];
        for (std::size_t k = 0; k < K; ++k) yp = mul_add(wp[k], acc[k], yp);
        y[p] = yp;
    }
}

}  // namespace

std::vector<std::size_t> nnz_balanced_blocks(const CsrView& a,
                                             std::size_t blocks) {
    if (blocks == 0) blocks = 1;
    const std::size_t nnz = a.offsets[a.rows];
    std::vector<std::size_t> bounds(blocks + 1, a.rows);
    bounds[0] = 0;
    for (std::size_t b = 1; b < blocks; ++b) {
        const std::size_t target = nnz * b / blocks;
        bounds[b] = static_cast<std::size_t>(
            std::lower_bound(a.offsets, a.offsets + a.rows, target) -
            a.offsets);
    }
    return bounds;
}

RoutingOperator::RoutingOperator(const SparseMatrix& r)
    : matrix_(&r), r_(r.view()) {
    row_blocks_ = nnz_balanced_blocks(r_, kBlocks);
    // Column blocks balanced by column counts: the bounds of the
    // counting CSR of R' (its row offsets), without building R'.
    // The same scan decides the unit kernels.
    std::vector<std::size_t> col_offsets(r_.cols + 1, 0);
    for (std::size_t t = 0; t < r.nonzeros(); ++t) {
        ++col_offsets[r_.col_index[t] + 1];
        unit_ = unit_ && r_.values[t] == 1.0;
    }
    for (std::size_t c = 0; c < r_.cols; ++c) {
        col_offsets[c + 1] += col_offsets[c];
    }
    const CsrView counts{r_.cols, r_.rows, col_offsets.data(), nullptr,
                         nullptr};
    col_blocks_ = nnz_balanced_blocks(counts, kBlocks);
    // Per row, where each column block's entries start (rows are sorted
    // by column, so a block's entries are one contiguous segment).
    const std::size_t stride = col_blocks_.size();
    segments_.resize(r_.rows * stride);
    for (std::size_t i = 0; i < r_.rows; ++i) {
        const std::size_t* first = r_.col_index + r_.offsets[i];
        const std::size_t* last = r_.col_index + r_.offsets[i + 1];
        for (std::size_t b = 0; b < stride; ++b) {
            segments_[i * stride + b] = static_cast<std::size_t>(
                std::lower_bound(first, last, col_blocks_[b]) -
                r_.col_index);
        }
    }
}

void RoutingOperator::multiply(const Vector& x, Vector& y,
                               BlockRunner* runner) const {
    if (x.size() != r_.cols) {
        throw std::invalid_argument("RoutingOperator::multiply: size mismatch");
    }
    y.resize(r_.rows);
    const double* xp = x.data();
    double* yp = y.data();
    run_blocks(runner, row_blocks_.size() - 1,
               [&](std::size_t b0, std::size_t b1) {
        with_unit(unit_, [&](auto unit) {
            detail::csr_rows_times<decltype(unit)::value>(
                r_, xp, row_blocks_[b0], row_blocks_[b1], yp);
        });
    });
}

void RoutingOperator::multiply_transpose(const Vector& x, Vector& y,
                                         BlockRunner* runner) const {
    if (x.size() != r_.rows) {
        throw std::invalid_argument(
            "RoutingOperator::multiply_transpose: size mismatch");
    }
    y.resize(r_.cols);
    const double* xp = x.data();
    double* yp = y.data();
    const std::size_t stride = col_blocks_.size();
    run_blocks(runner, stride - 1, [&](std::size_t b0, std::size_t b1) {
        const std::size_t* seg = segments_.data();
        std::fill(yp + col_blocks_[b0], yp + col_blocks_[b1], 0.0);
        with_unit(unit_, [&](auto unit) {
            for (std::size_t i = 0; i < r_.rows; ++i) {
                const double xi = xp[i];
                if (xi == 0.0) continue;
                detail::csr_scatter<decltype(unit)::value>(
                    xi, r_, seg[i * stride + b0], seg[i * stride + b1], yp);
            }
        });
    });
}

void RoutingOperator::weighted_normal(
    const Vector& x, const SparseMatrix& rt,
    const std::vector<std::size_t>& group_of,
    const std::vector<double>& group_weights, std::size_t window,
    WeightedNormalScratch& scratch, Vector& y, BlockRunner* runner) const {
    if (window == 0 || x.size() != r_.cols || group_of.size() != r_.cols ||
        group_weights.size() % window != 0) {
        throw std::invalid_argument(
            "RoutingOperator::weighted_normal: size mismatch");
    }
    if (rt.rows() != r_.cols || rt.cols() != r_.rows ||
        rt.nonzeros() != r_.offsets[r_.rows]) {
        throw std::invalid_argument(
            "RoutingOperator::weighted_normal: R' shape mismatch");
    }
    TME_CONTRACT_DBG_CHECK(verify_transpose(rt));
    const std::size_t groups = group_weights.size() / window;
    for (const std::size_t g : group_of) {
        if (g >= groups) {
            throw std::invalid_argument(
                "RoutingOperator::weighted_normal: group out of range");
        }
    }
    scratch.link.resize(r_.rows * window);
    y.resize(r_.cols);
    const CsrView rtv = rt.view();
    const double* xp = x.data();
    const std::size_t* gp = group_of.data();
    const double* wp = group_weights.data();
    double* vp = scratch.link.data();
    double* yp = y.data();
    run_blocks(runner, row_blocks_.size() - 1,
               [&](std::size_t b0, std::size_t b1) {
        with_unit(unit_, [&](auto unit) {
            for_each_sample_chunk(window, [&](auto chunk, std::size_t k0) {
                weighted_rows<decltype(chunk)::value, decltype(unit)::value>(
                    r_, xp, gp, wp, window, k0, row_blocks_[b0],
                    row_blocks_[b1], vp);
            });
        });
    });
    // R' has R's values, so R's unit test covers it.
    run_blocks(runner, col_blocks_.size() - 1,
               [&](std::size_t b0, std::size_t b1) {
        with_unit(unit_, [&](auto unit) {
            for_each_sample_chunk(window, [&](auto chunk, std::size_t k0) {
                weighted_gather<decltype(chunk)::value,
                                decltype(unit)::value>(
                    rtv, vp, gp, wp, window, k0, col_blocks_[b0],
                    col_blocks_[b1], yp);
            });
        });
    });
}

void RoutingOperator::verify_transpose(const SparseMatrix& rt) const {
    // A throwing call leaves the flag unset, so the next R' is checked.
    std::call_once(transpose_verified_, [&] {
        TME_CONTRACT(rt == transpose(*matrix_),
                     "RoutingOperator::weighted_normal: R' is not "
                     "transpose(R)");
    });
}

}  // namespace tme::linalg
