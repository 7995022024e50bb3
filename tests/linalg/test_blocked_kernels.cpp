// Property tests pinning the blocked / sparse-aware kernels to their
// naive references: bit-for-bit where the accumulation order is
// preserved (gemm, gram, sparse Gram, the QP's sparse-E path), and to
// tight tolerances where it is not (blocked Cholesky).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/cholesky.hpp"
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

// The seed library's plain triple-loop kernels, kept verbatim as the
// bitwise references.
Matrix gemm_naive(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* arow = a.row_data(i);
        double* crow = c.row_data(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = arow[k];
            if (aik == 0.0) continue;
            const double* brow = b.row_data(k);
            for (std::size_t j = 0; j < b.cols(); ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
    return c;
}

Matrix gram_naive(const Matrix& a) {
    const std::size_t n = a.cols();
    Matrix g(n, n, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* row = a.row_data(i);
        for (std::size_t p = 0; p < n; ++p) {
            const double rp = row[p];
            if (rp == 0.0) continue;
            double* grow = g.row_data(p);
            for (std::size_t q = p; q < n; ++q) grow[q] += rp * row[q];
        }
    }
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < p; ++q) g(p, q) = g(q, p);
    }
    return g;
}

TEST(BlockedKernels, GemmBitwiseMatchesNaive) {
    std::mt19937_64 rng(42);
    // Odd shapes straddle every tile boundary of the blocked kernel,
    // including the 512-double column tile (the 1100-column shapes run
    // the j0 loop more than once, with a ragged final tile).
    const std::size_t shapes[][3] = {{1, 1, 1},    {2, 3, 4},
                                     {5, 7, 3},    {16, 16, 16},
                                     {17, 19, 23}, {33, 64, 65},
                                     {70, 41, 129}, {9, 30, 512},
                                     {10, 33, 1100}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s[0], s[1], rng, 0.8);
        const Matrix b = random_matrix(s[1], s[2], rng, 0.8);
        EXPECT_EQ(gemm(a, b), gemm_naive(a, b))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(BlockedKernels, GramBitwiseMatchesNaive) {
    std::mt19937_64 rng(43);
    for (const std::size_t rows : {1ul, 3ul, 8ul, 21ul, 50ul}) {
        for (const std::size_t cols : {1ul, 2ul, 17ul, 64ul, 130ul}) {
            const Matrix a = random_matrix(rows, cols, rng, 0.6);
            EXPECT_EQ(gram(a), gram_naive(a)) << rows << "x" << cols;
        }
    }
    // Past the 512-double column tile: multi-tile rows with a ragged
    // final tile, exercising the diagonal clamp across tile seams.
    const Matrix wide = random_matrix(12, 1100, rng, 0.3);
    EXPECT_EQ(gram(wide), gram_naive(wide));
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

// The multi-RHS solve was rewritten to advance all columns together;
// it must match the per-column solve exactly.
TEST(BlockedKernels, CholeskyMatrixSolveMatchesColumnwise) {
    std::mt19937_64 rng(48);
    const Matrix spd = random_spd(33, rng);
    const Cholesky chol(spd);
    const Matrix b = random_matrix(33, 7, rng);
    const Matrix x = chol.solve(b);
    for (std::size_t j = 0; j < b.cols(); ++j) {
        const Vector xj = chol.solve(b.col(j));
        for (std::size_t i = 0; i < b.rows(); ++i) {
            EXPECT_EQ(x(i, j), xj[i]) << "col " << j << " row " << i;
        }
    }
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

// Fanout-family QP (one nonzero per column of E): the sparse-E path
// must be bit-for-bit the dense path.
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

    const EqQpNonnegResult dense_path = solve_eq_qp_nonneg(h, f, e, d);
    EqQpNonnegOptions opts;
    opts.equality_operator = &e_sparse;
    const EqQpNonnegResult sparse_path =
        solve_eq_qp_nonneg(h, f, e, d, opts);
    ASSERT_EQ(dense_path.x.size(), sparse_path.x.size());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dense_path.x[i], sparse_path.x[i]) << i;
    }
    EXPECT_EQ(dense_path.active, sparse_path.active);
    EXPECT_EQ(dense_path.iterations, sparse_path.iterations);
    EXPECT_EQ(dense_path.equality_violation,
              sparse_path.equality_violation);

    // Warm-started runs must agree as well (the seed-repair sweeps use
    // the operator too).
    EqQpNonnegOptions warm_dense;
    warm_dense.warm_start = &dense_path.x;
    EqQpNonnegOptions warm_sparse;
    warm_sparse.warm_start = &dense_path.x;
    warm_sparse.equality_operator = &e_sparse;
    const EqQpNonnegResult wd = solve_eq_qp_nonneg(h, f, e, d, warm_dense);
    const EqQpNonnegResult ws = solve_eq_qp_nonneg(h, f, e, d, warm_sparse);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(wd.x[i], ws.x[i]) << i;
    EXPECT_EQ(wd.warm_accepted, ws.warm_accepted);
}

TEST(BlockedKernels, QpRejectsMismatchedOperator) {
    const Matrix h = Matrix::identity(4);
    const Vector f(4, 1.0);
    const Matrix e(1, 4, 1.0);
    const Vector d(1, 1.0);
    const SparseMatrix wrong = SparseMatrix::from_dense(Matrix(2, 4, 1.0));
    EqQpNonnegOptions opts;
    opts.equality_operator = &wrong;
    EXPECT_THROW(solve_eq_qp_nonneg(h, f, e, d, opts),
                 std::invalid_argument);
}

}  // namespace
}  // namespace tme::linalg
