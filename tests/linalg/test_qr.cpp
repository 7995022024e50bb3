#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <random>

namespace tme::linalg {
namespace {

TEST(Qr, ExactSquareSolve) {
    Matrix a{{2.0, 0.0}, {0.0, 4.0}};
    const Vector x = Qr(a).solve({2.0, 8.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Qr, OverdeterminedLeastSquares) {
    // Fit y = a + b t through (0,1), (1,3), (2,5): exact line 1 + 2t.
    Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
    const Vector x = Qr(a).solve({1.0, 3.0, 5.0});
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(Qr, ResidualOrthogonalToColumns) {
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix a(10, 4);
    Vector b(10);
    for (std::size_t i = 0; i < 10; ++i) {
        b[i] = dist(rng);
        for (std::size_t j = 0; j < 4; ++j) a(i, j) = dist(rng);
    }
    const Vector x = Qr(a).solve(b);
    const Vector r = sub(gemv(a, x), b);
    const Vector atr = gemv_transpose(a, r);
    EXPECT_LT(nrm_inf(atr), 1e-9);
}

TEST(Qr, ThrowsOnWideMatrix) {
    EXPECT_THROW(Qr(Matrix(2, 3)), std::invalid_argument);
}

TEST(Qr, RankOfFullRank) {
    Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(Qr(a).rank(), 2u);
}

TEST(Qr, RankDeficientDetected) {
    // Second column is 2x the first.
    Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
    EXPECT_EQ(Qr(a).rank(), 1u);
}

TEST(Qr, QTransposePreservesNorm) {
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix a(8, 8);
    Vector b(8);
    for (std::size_t i = 0; i < 8; ++i) {
        b[i] = dist(rng);
        for (std::size_t j = 0; j < 8; ++j) a(i, j) = dist(rng);
    }
    Qr qr(a);
    EXPECT_NEAR(nrm2(qr.q_transpose_mul(b)), nrm2(b), 1e-10);
}

class QrProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(QrProperty, NormalEquationsHold) {
    const std::size_t m = 6 + GetParam() % 10;
    const std::size_t n = 2 + GetParam() % 5;
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
        b[i] = dist(rng);
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    const Vector x = Qr(a).solve(b);
    // A'(Ax - b) = 0 at the least-squares solution.
    const Vector grad = gemv_transpose(a, sub(gemv(a, x), b));
    EXPECT_LT(nrm_inf(grad), 1e-8 * (1.0 + nrm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace tme::linalg
