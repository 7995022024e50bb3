// Row- and column-blocked routing-operator products for the operator QPs.
//
// The fanout and Bayesian Hessian applies are R x / R' y products over
// the routing matrix R (links x pairs).  RoutingOperator cuts R into
// nnz-balanced row blocks and nnz-balanced column (pair) blocks and
// runs them through a BlockRunner (linalg/parallel.hpp):
//
//  * R x    — block b owns a range of R's rows; each y[i] is the same
//             ascending dot product SparseMatrix::multiply_into forms;
//  * R' y   — column-blocked scatter: block b owns a range of pairs and
//             walks every row of R in ascending order, scattering only
//             the row's segment of columns inside its range (rows are
//             column-sorted, so the segment is contiguous; its bounds
//             are precomputed per row and block).  Each y[p] therefore
//             accumulates its terms in source-row order with the same
//             zero-input skips as multiply_transpose_into.  For one
//             vector a gather over the rows of R' gives the same sums
//             but is latency-bound on its short per-pair chains —
//             slower than the serial scatter on routing matrices;
//  * sum_k W_k R' R W_k x — the fanout Hessian over all window samples
//             in two passes instead of two per sample: row blocks of R
//             form every sample's R W_k x, then column blocks gather
//             over the rows of the caller's R' (pair p's links
//             ascending, up to 8 samples wide, so the short chains run
//             side by side) and fold y[p] in the serial loop's sample
//             order.
//
// R x and R' y run the same row and segment loops as SparseMatrix's
// products (linalg/csr_kernels.hpp), and every output element is
// written by exactly one block, so the results are bitwise equal to the
// serial calls for every thread count and every partition (pinned by
// tests/linalg/test_blocked_spmv.cpp).
//
// A routing matrix whose stored values are all exactly 1.0 (single-path
// routing: every matrix the routing layer builds) runs value-free
// kernels that never read R's values and add where the valued loops
// fuse a multiply by 1.0.  That is bitwise the same: fma(1.0, u, acc)
// rounds once, exactly as acc + u does.  The operator decides this once
// from its input; any other value keeps the valued loops.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "linalg/parallel.hpp"
#include "linalg/sparse.hpp"

namespace tme::linalg {

/// Row bounds of `blocks` contiguous ranges of a CSR matrix with about
/// equal nonzeros each: block b is rows [bounds[b], bounds[b + 1]).
/// Always blocks + 1 entries (some ranges may be empty).
std::vector<std::size_t> nnz_balanced_blocks(const CsrView& a,
                                             std::size_t blocks);

/// Caller-owned work buffer of RoutingOperator::weighted_normal,
/// reused across applies: R W_k x for every sample, links x window
/// (sample-minor, so a pair's gather reads each link's samples as one
/// contiguous run).
struct WeightedNormalScratch {
    std::vector<double> link;  ///< R W_k x, rows x window
};

class RoutingOperator {
  public:
    /// `r` must outlive the operator.  O(nnz + rows * blocks) setup for
    /// a fixed count of 16 row and 16 column blocks; the same scan
    /// decides whether the value-free kernels apply.
    explicit RoutingOperator(const SparseMatrix& r);

    std::size_t rows() const { return r_.rows; }
    std::size_t cols() const { return r_.cols; }

    /// y = R x (y resized to rows()): bitwise
    /// SparseMatrix::multiply_into.
    void multiply(const Vector& x, Vector& y, BlockRunner* runner) const;

    /// y = R' x (y resized to cols()): bitwise
    /// SparseMatrix::multiply_transpose_into.
    void multiply_transpose(const Vector& x, Vector& y,
                            BlockRunner* runner) const;

    /// y = sum_k W_k R' R W_k x over `window` samples, with W_k =
    /// diag(w_k) and w_k[p] = group_weights[group_of[p] * window + k]:
    /// the weights factor through a group per pair (the fanout QP's
    /// are per-source totals; an identity group_of gives arbitrary
    /// per-pair weights).  `rt` must be transpose(R): a wrong shape or
    /// nonzero count throws std::invalid_argument, and the expensive
    /// contract tier compares it with transpose(R) once per operator.
    /// Bitwise the per-sample loop
    ///   y = 0; for k: u = w_k .* x; z = R'(R u); y += w_k .* z
    /// run with multiply_into / multiply_transpose_into.
    void weighted_normal(const Vector& x, const SparseMatrix& rt,
                         const std::vector<std::size_t>& group_of,
                         const std::vector<double>& group_weights,
                         std::size_t window, WeightedNormalScratch& scratch,
                         Vector& y, BlockRunner* runner) const;

  private:
    /// Throws check::ContractViolation unless rt == transpose(R).
    /// Compares only until one call has passed.
    void verify_transpose(const SparseMatrix& rt) const;

    const SparseMatrix* matrix_;  ///< R, for verify_transpose
    CsrView r_;
    bool unit_ = true;  ///< every stored value of R is exactly 1.0
    std::vector<std::size_t> row_blocks_;  ///< over R's rows
    std::vector<std::size_t> col_blocks_;  ///< over R's columns (pairs)
    /// segments_[i * col_blocks_.size() + b]: first position of row i
    /// whose column is >= col_blocks_[b] (the last one is the row end).
    std::vector<std::size_t> segments_;
    mutable std::once_flag transpose_verified_;
};

}  // namespace tme::linalg
