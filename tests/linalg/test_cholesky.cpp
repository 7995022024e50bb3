#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/matrix.hpp"

namespace tme::linalg {
namespace {

Matrix random_spd(std::size_t n, unsigned seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    Matrix spd = gram(a);
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
    return spd;
}

TEST(Cholesky, SolvesDiagonalSystem) {
    Cholesky c(Matrix::diagonal({4.0, 9.0}));
    const Vector x = c.solve(Vector{8.0, 27.0});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Cholesky, FactorReconstructs) {
    const Matrix spd = random_spd(6, 1);
    Cholesky c(spd);
    const Matrix l = c.factor();
    const Matrix rebuilt = gemm(l, l.transposed());
    EXPECT_LT(max_abs_diff(rebuilt, spd), 1e-10);
}

TEST(Cholesky, ThrowsOnNonSquare) {
    EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, ThrowsOnIndefinite) {
    Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
    EXPECT_THROW(Cholesky{m}, std::runtime_error);
}

TEST(Cholesky, TryCholeskyReturnsNulloptOnIndefinite) {
    Matrix m{{0.0, 0.0}, {0.0, 0.0}};
    EXPECT_FALSE(try_cholesky(m).has_value());
    EXPECT_TRUE(try_cholesky(Matrix::identity(2)).has_value());
}

TEST(Cholesky, JitterRescuesSemidefinite) {
    // Rank-1 matrix; plain factorization fails, jitter succeeds.
    Matrix m{{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_FALSE(try_cholesky(m).has_value());
    EXPECT_TRUE(try_cholesky(m, 1e-8).has_value());
}

TEST(Cholesky, SolveSizeMismatchThrows) {
    Cholesky c(Matrix::identity(3));
    EXPECT_THROW(c.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

class CholeskyProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CholeskyProperty, SolveResidualIsSmall) {
    const std::size_t n = 3 + GetParam() % 12;
    const Matrix spd = random_spd(n, GetParam());
    std::mt19937_64 rng(GetParam() + 77);
    std::uniform_real_distribution<double> dist(-5.0, 5.0);
    Vector b(n);
    for (double& v : b) v = dist(rng);
    Cholesky c(spd);
    const Vector x = c.solve(b);
    const Vector resid = sub(gemv(spd, x), b);
    EXPECT_LT(nrm2(resid), 1e-8 * (1.0 + nrm2(b)));
}

TEST_P(CholeskyProperty, RobustSolveHandlesSingular) {
    const std::size_t n = 4 + GetParam() % 6;
    // Rank-deficient: outer product of one vector.
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(0.1, 2.0);
    Vector v(n);
    for (double& x : v) x = dist(rng);
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) m(i, j) = v[i] * v[j];
    }
    // b in the range of m -> a solution exists despite singularity.
    const Vector b = gemv(m, v);
    const Vector x = solve_spd_robust(m, b);
    const Vector resid = sub(gemv(m, x), b);
    EXPECT_LT(nrm2(resid), 1e-5 * (1.0 + nrm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace tme::linalg
