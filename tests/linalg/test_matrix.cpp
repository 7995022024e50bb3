#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <random>

namespace tme::linalg {
namespace {

TEST(Matrix, ConstructAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(Matrix, InitializerList) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
    Matrix i = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(i(2, 2), 1.0);
}

TEST(Matrix, Diagonal) {
    Matrix d = Matrix::diagonal({2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, RowColAccess) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.row(0), (Vector{1.0, 2.0}));
    EXPECT_EQ(m.col(1), (Vector{2.0, 4.0}));
    m.set_row(0, {5.0, 6.0});
    EXPECT_DOUBLE_EQ(m(0, 0), 5.0);
    m.set_col(0, {7.0, 8.0});
    EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
    EXPECT_THROW(m.set_row(0, {1.0}), std::invalid_argument);
}

TEST(Matrix, Transposed) {
    Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Gemv) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(gemv(m, {1.0, 1.0}), (Vector{3.0, 7.0}));
    EXPECT_EQ(gemv_transpose(m, {1.0, 1.0}), (Vector{4.0, 6.0}));
    EXPECT_THROW(gemv(m, {1.0}), std::invalid_argument);
}

TEST(Matrix, Gemm) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    Matrix c = gemm(a, b);
    EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, GramMatchesExplicitProduct) {
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix a(7, 5);
    for (std::size_t i = 0; i < 7; ++i) {
        for (std::size_t j = 0; j < 5; ++j) a(i, j) = dist(rng);
    }
    const Matrix g = gram(a);
    const Matrix expected = gemm(a.transposed(), a);
    EXPECT_LT(max_abs_diff(g, expected), 1e-12);
}

TEST(Matrix, Add) {
    Matrix a{{1.0, 2.0}};
    Matrix b{{3.0, 4.0}};
    Matrix c = add(2.0, a, -1.0, b);
    EXPECT_DOUBLE_EQ(c(0, 0), -1.0);
}

TEST(Matrix, MaxAbs) {
    Matrix m{{3.0, 0.0}, {0.0, -4.0}};
    EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, GemvTransposeAgreesWithExplicitTranspose) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix a(6, 4);
    Vector x(6);
    for (std::size_t i = 0; i < 6; ++i) {
        x[i] = dist(rng);
        for (std::size_t j = 0; j < 4; ++j) a(i, j) = dist(rng);
    }
    const Vector y1 = gemv_transpose(a, x);
    const Vector y2 = gemv(a.transposed(), x);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-12);
}

}  // namespace
}  // namespace tme::linalg
