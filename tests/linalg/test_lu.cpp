#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <random>

namespace tme::linalg {
namespace {

TEST(Lu, SolvesSmallSystem) {
    Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    const Vector x = Lu(a).solve({5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, HandlesPermutation) {
    // Leading zero forces a pivot swap.
    Matrix a{{0.0, 1.0}, {1.0, 0.0}};
    const Vector x = Lu(a).solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    Lu lu(a);
    EXPECT_TRUE(lu.singular());
    EXPECT_THROW(lu.solve({1.0, 1.0}), std::runtime_error);
}

TEST(Lu, ThrowsOnNonSquare) {
    EXPECT_THROW(Lu(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SolveSizeMismatchThrows) {
    Lu lu(Matrix::identity(2));
    EXPECT_THROW(lu.solve(Vector{1.0}), std::invalid_argument);
}

TEST(Lu, IndefiniteSymmetricSystem) {
    // KKT-style indefinite matrix that Cholesky cannot factor.
    Matrix a{{2.0, 0.0, 1.0}, {0.0, 2.0, 1.0}, {1.0, 1.0, 0.0}};
    const Vector b{1.0, 2.0, 3.0};
    const Vector x = Lu(a).solve(b);
    const Vector resid = sub(gemv(a, x), b);
    EXPECT_LT(nrm2(resid), 1e-10);
}

class LuProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LuProperty, RandomSystemResidual) {
    const std::size_t n = 2 + GetParam() % 20;
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    Matrix a(n, n);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = dist(rng);
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    Lu lu(a);
    if (lu.singular()) GTEST_SKIP() << "random matrix was singular";
    const Vector x = lu.solve(b);
    EXPECT_LT(nrm2(sub(gemv(a, x), b)), 1e-8 * (1.0 + nrm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

}  // namespace
}  // namespace tme::linalg
