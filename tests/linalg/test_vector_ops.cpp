#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

namespace tme::linalg {
namespace {

TEST(VectorOps, DotBasic) {
    EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOps, DotEmptyIsZero) { EXPECT_DOUBLE_EQ(dot({}, {}), 0.0); }

TEST(VectorOps, DotSizeMismatchThrows) {
    EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, Nrm2) {
    EXPECT_DOUBLE_EQ(nrm2({3.0, 4.0}), 5.0);
    EXPECT_DOUBLE_EQ(nrm2({}), 0.0);
}

TEST(VectorOps, NrmInf) {
    EXPECT_DOUBLE_EQ(nrm_inf({-1.0, 2.0, -3.0}), 3.0);
}

TEST(VectorOps, Sum) { EXPECT_DOUBLE_EQ(sum({1.5, -0.5, 2.0}), 3.0); }

TEST(VectorOps, Axpy) {
    Vector y{1.0, 1.0};
    axpy(2.0, {3.0, -1.0}, y);
    EXPECT_DOUBLE_EQ(y[0], 7.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(VectorOps, Scale) {
    Vector x{1.0, -2.0};
    scale(-3.0, x);
    EXPECT_DOUBLE_EQ(x[0], -3.0);
    EXPECT_DOUBLE_EQ(x[1], 6.0);
}

TEST(VectorOps, AddSubHadamard) {
    const Vector a{1.0, 2.0};
    const Vector b{3.0, 5.0};
    EXPECT_EQ(add(a, b), (Vector{4.0, 7.0}));
    EXPECT_EQ(sub(a, b), (Vector{-2.0, -3.0}));
    EXPECT_EQ(hadamard(a, b), (Vector{3.0, 10.0}));
}

TEST(VectorOps, MinMaxElement) {
    EXPECT_DOUBLE_EQ(max_element({1.0, 5.0, -2.0}), 5.0);
    EXPECT_DOUBLE_EQ(min_element({1.0, 5.0, -2.0}), -2.0);
    EXPECT_THROW(max_element({}), std::invalid_argument);
    EXPECT_THROW(min_element({}), std::invalid_argument);
}

TEST(VectorOps, AllFinite) {
    EXPECT_TRUE(all_finite({1.0, -2.0}));
    EXPECT_FALSE(all_finite({1.0, std::numeric_limits<double>::infinity()}));
    EXPECT_FALSE(all_finite({std::nan("")}));
}

TEST(VectorOps, Constant) {
    EXPECT_EQ(constant(3, 2.5), (Vector{2.5, 2.5, 2.5}));
}

// Property: Cauchy-Schwarz |x'y| <= ||x|| * ||y|| on pseudo-random data.
class VectorOpsProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(VectorOpsProperty, CauchySchwarz) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-10.0, 10.0);
    Vector x(37);
    Vector y(37);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = dist(rng);
        y[i] = dist(rng);
    }
    EXPECT_LE(std::abs(dot(x, y)), nrm2(x) * nrm2(y) + 1e-9);
}

TEST_P(VectorOpsProperty, TriangleInequality) {
    std::mt19937_64 rng(GetParam() + 1000);
    std::uniform_real_distribution<double> dist(-10.0, 10.0);
    Vector x(23);
    Vector y(23);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = dist(rng);
        y[i] = dist(rng);
    }
    EXPECT_LE(nrm2(add(x, y)), nrm2(x) + nrm2(y) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorOpsProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace tme::linalg
