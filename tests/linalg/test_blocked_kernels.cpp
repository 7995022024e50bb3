// Property tests pinning the blocked / sparse-aware kernels to their
// references: bit-for-bit where the accumulation order is preserved
// (sparse Gram vs the dense Gram, the operator QP's sparse-E path vs
// the dense-H reference), and to tight tolerances where it is not
// (blocked Cholesky).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/cholesky.hpp"
#include "linalg/dense_qp_reference.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qp.hpp"
#include "linalg/sparse.hpp"

namespace tme::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols,
                     std::mt19937_64& rng, double density = 1.0) {
    Matrix m(rows, cols, 0.0);
    std::uniform_real_distribution<double> value(-2.0, 2.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            if (coin(rng) < density) m(i, j) = value(rng);
        }
    }
    return m;
}

// gram_sparse(A) == gram(densify(A)) exactly: same per-element term
// order, and the skipped terms are exact zeros.
TEST(BlockedKernels, SparseGramExactlyMatchesDense) {
    std::mt19937_64 rng(44);
    for (const double density : {0.02, 0.1, 0.5}) {
        for (const std::size_t rows : {1ul, 7ul, 40ul, 120ul}) {
            const std::size_t cols = rows + 13;
            const Matrix dense = random_matrix(rows, cols, rng, density);
            const SparseMatrix sparse = SparseMatrix::from_dense(dense);
            EXPECT_EQ(gram_sparse(sparse), gram(dense))
                << rows << "x" << cols << " density " << density;
        }
    }
}

TEST(BlockedKernels, FromCsrValidates) {
    // Well-formed round trip.
    const SparseMatrix ok = SparseMatrix::from_csr(
        2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
    EXPECT_EQ(ok.nonzeros(), 3u);
    EXPECT_EQ(ok.at(0, 2), 2.0);
    EXPECT_EQ(ok.at(1, 1), 3.0);
    // Shape / monotonicity / sortedness violations.
    EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 2}, {0, 2}, {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(
        SparseMatrix::from_csr(2, 3, {0, 2, 3}, {2, 0, 1}, {1.0, 2.0, 3.0}),
        std::invalid_argument);
    EXPECT_THROW(
        SparseMatrix::from_csr(2, 3, {0, 2, 3}, {0, 3, 1}, {1.0, 2.0, 3.0}),
        std::invalid_argument);
}

TEST(BlockedKernels, TransposedMatchesElementwise) {
    std::mt19937_64 rng(46);
    const Matrix a = random_matrix(37, 91, rng);
    const Matrix t = a.transposed();
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(t(j, i), a(i, j));
        }
    }
}

Matrix random_spd(std::size_t n, std::mt19937_64& rng) {
    const Matrix b = random_matrix(n, n, rng);
    Matrix a = gram(b);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    return a;
}

// Blocked Cholesky regroups the update sums, so it is not bitwise —
// but it must stay within 1e-12 (relative) of the unblocked factor on
// every size, especially ones that straddle the 48-column panel.
TEST(BlockedKernels, CholeskyBlockedMatchesUnblocked) {
    std::mt19937_64 rng(47);
    for (const std::size_t n : {1ul, 2ul, 5ul, 16ul, 47ul, 48ul, 49ul,
                                 96ul, 97ul, 130ul, 191ul, 256ul}) {
        const Matrix spd = random_spd(n, rng);
        const Matrix lu = cholesky_factor_unblocked(spd);
        const Matrix lb = cholesky_factor_blocked(spd);
        ASSERT_FALSE(lu.empty());
        ASSERT_FALSE(lb.empty());
        const double scale = std::max(1.0, lu.max_abs());
        EXPECT_LE(max_abs_diff(lu, lb), 1e-12 * scale) << "n=" << n;
    }
}

TEST(BlockedKernels, CholeskyBlockedDetectsIndefinite) {
    Matrix notspd(60, 60, 0.0);
    for (std::size_t i = 0; i < 60; ++i) notspd(i, i) = 1.0;
    notspd(40, 40) = -1.0;
    EXPECT_TRUE(cholesky_factor_blocked(notspd).empty());
    EXPECT_TRUE(cholesky_factor_unblocked(notspd).empty());
}

// Virtual diagonal shift == materialized shifted copy, bit for bit:
// the same two operands are added at every diagonal read.
TEST(BlockedKernels, NnlsDiagonalShiftMatchesMaterialized) {
    std::mt19937_64 rng(49);
    const Matrix a = random_matrix(40, 25, rng, 0.4);
    const Matrix g = gram(a);
    const double shift = 0.37;
    Matrix g_shifted = g;
    for (std::size_t i = 0; i < g.rows(); ++i) g_shifted(i, i) += shift;
    Vector atb(25);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : atb) v = dist(rng);

    const NnlsResult materialized = nnls_gram(g_shifted, atb);
    NnlsOptions opts;
    opts.gram_diagonal_shift = shift;
    const NnlsResult virtual_shift = nnls_gram(g, atb, 0.0, opts);
    ASSERT_EQ(materialized.x.size(), virtual_shift.x.size());
    for (std::size_t i = 0; i < materialized.x.size(); ++i) {
        EXPECT_EQ(materialized.x[i], virtual_shift.x[i]) << i;
    }
}

// Sparse-operator dual refresh on a strictly convex (ridge) system must
// land on the same unique minimizer as the dense refresh.
TEST(BlockedKernels, NnlsSparseOperatorMatchesDenseRefresh) {
    std::mt19937_64 rng(50);
    const Matrix dense = random_matrix(60, 35, rng, 0.15);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    const Matrix g = gram_sparse(sparse);
    const double ridge = 1e-3;
    Matrix g_shifted = g;
    for (std::size_t i = 0; i < g.rows(); ++i) g_shifted(i, i) += ridge;
    Vector x_true(35);
    std::uniform_real_distribution<double> pos(0.0, 1.0);
    for (double& v : x_true) v = pos(rng);
    const Vector atb = sparse.multiply_transpose(sparse.multiply(x_true));

    const NnlsResult dense_refresh = nnls_gram(g_shifted, atb);
    NnlsOptions opts;
    opts.gram_operator = &sparse;
    opts.gram_diagonal_shift = ridge;
    const NnlsResult sparse_refresh = nnls_gram(g, atb, 0.0, opts);
    ASSERT_EQ(dense_refresh.x.size(), sparse_refresh.x.size());
    double scale = 1.0;
    for (double v : dense_refresh.x) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < dense_refresh.x.size(); ++i) {
        EXPECT_NEAR(dense_refresh.x[i], sparse_refresh.x[i], 1e-9 * scale)
            << i;
    }
}

TEST(BlockedKernels, NnlsGramRejectsBadOperatorAndShift) {
    const Matrix g(3, 3, 0.0);
    const Vector atb{1.0, 1.0, 1.0};
    NnlsOptions opts;
    const SparseMatrix wrong = SparseMatrix::from_dense(Matrix(2, 2, 1.0));
    opts.gram_operator = &wrong;
    EXPECT_THROW(nnls_gram(g, atb, 0.0, opts), std::invalid_argument);
    NnlsOptions neg;
    neg.gram_diagonal_shift = -1.0;
    EXPECT_THROW(nnls_gram(g, atb, 0.0, neg), std::invalid_argument);
}

// Fanout-family QP (one nonzero per column of E): the operator
// solver's sparse-E exact-LU path must return bit-for-bit the dense-H
// reference's minimizer, cold and warm.
TEST(BlockedKernels, QpEqualityOperatorBitwiseMatchesDense) {
    std::mt19937_64 rng(51);
    const std::size_t n = 18;
    const std::size_t m = 4;
    const Matrix h = random_spd(n, rng);
    Vector f(n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : f) v = dist(rng);
    Matrix e(m, n, 0.0);
    std::vector<Triplet> trips;
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t r = j % m;
        e(r, j) = 1.0;
        trips.push_back({r, j, 1.0});
    }
    const SparseMatrix e_sparse(m, n, std::move(trips));
    const Vector d(m, 1.0);
    const HessianOperator hop = testing::dense_hessian(h);

    const EqQpNonnegResult dense_path =
        testing::solve_eq_qp_nonneg(h, f, e, d);
    const EqQpNonnegResult sparse_path =
        solve_eq_qp_nonneg_operator(hop, f, e_sparse, d);
    ASSERT_EQ(dense_path.x.size(), sparse_path.x.size());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dense_path.x[i], sparse_path.x[i]) << i;
    }
    EXPECT_EQ(dense_path.active, sparse_path.active);
    EXPECT_EQ(dense_path.equality_violation,
              sparse_path.equality_violation);

    // Warm-started runs must agree as well (the seed's multiplier
    // checks read E's nonzeros too).
    EqQpNonnegOptions warm;
    warm.warm_start = &dense_path.x;
    const EqQpNonnegResult wd = testing::solve_eq_qp_nonneg(h, f, e, d, warm);
    const EqQpNonnegResult ws =
        solve_eq_qp_nonneg_operator(hop, f, e_sparse, d, warm);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(wd.x[i], ws.x[i]) << i;
    EXPECT_EQ(wd.warm_accepted, ws.warm_accepted);
}

TEST(BlockedKernels, QpRejectsMismatchedOperator) {
    const Matrix h = Matrix::identity(4);
    const Vector f(4, 1.0);
    const Vector d(1, 1.0);
    const SparseMatrix wrong = SparseMatrix::from_dense(Matrix(1, 5, 1.0));
    EXPECT_THROW(solve_eq_qp_nonneg_operator(testing::dense_hessian(h), f,
                                             wrong, d),
                 std::invalid_argument);
}

}  // namespace
}  // namespace tme::linalg
