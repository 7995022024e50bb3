#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <random>

#include "routing/routing_matrix.hpp"
#include "topology/builders.hpp"

namespace tme::linalg {
namespace {

SparseMatrix small() {
    // [1 0 2]
    // [0 3 0]
    return SparseMatrix(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
}

TEST(Sparse, BasicAccess) {
    const SparseMatrix m = small();
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.nonzeros(), 3u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(Sparse, DuplicatesSummed) {
    SparseMatrix m(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
    EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(Sparse, ZeroSumDropped) {
    SparseMatrix m(1, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {0, 1, 2.0}});
    EXPECT_EQ(m.nonzeros(), 1u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Sparse, OutOfRangeTripletThrows) {
    EXPECT_THROW(SparseMatrix(1, 1, {{1, 0, 1.0}}), std::invalid_argument);
}

TEST(Sparse, Multiply) {
    const SparseMatrix m = small();
    EXPECT_EQ(m.multiply({1.0, 1.0, 1.0}), (Vector{3.0, 3.0}));
    EXPECT_EQ(m.multiply_transpose({1.0, 2.0}), (Vector{1.0, 6.0, 2.0}));
    EXPECT_THROW(m.multiply({1.0}), std::invalid_argument);
}

TEST(Sparse, ToDenseRoundTrip) {
    const SparseMatrix m = small();
    const Matrix d = m.to_dense();
    const SparseMatrix back = SparseMatrix::from_dense(d);
    EXPECT_EQ(back.nonzeros(), m.nonzeros());
    EXPECT_DOUBLE_EQ(back.at(0, 2), 2.0);
}

TEST(Sparse, SelectColumns) {
    const SparseMatrix m = small();
    const SparseMatrix sel = m.select_columns({2, 0});
    EXPECT_EQ(sel.cols(), 2u);
    EXPECT_DOUBLE_EQ(sel.at(0, 0), 2.0);  // old column 2
    EXPECT_DOUBLE_EQ(sel.at(0, 1), 1.0);  // old column 0
    EXPECT_THROW(m.select_columns({5}), std::out_of_range);
}

TEST(Sparse, ColumnNonzeros) {
    const SparseMatrix m = small();
    EXPECT_EQ(m.column_nonzeros(0), 1u);
    EXPECT_EQ(m.column_nonzeros(1), 1u);
}

class SparseProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SparseProperty, AgreesWithDenseOperations) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    std::uniform_int_distribution<std::size_t> ri(0, 9);
    std::uniform_int_distribution<std::size_t> ci(0, 7);
    std::vector<Triplet> trips;
    for (int k = 0; k < 25; ++k) trips.push_back({ri(rng), ci(rng), dist(rng)});
    SparseMatrix s(10, 8, trips);
    const Matrix d = s.to_dense();

    Vector x(8);
    Vector y(10);
    for (double& v : x) v = dist(rng);
    for (double& v : y) v = dist(rng);

    const Vector sx = s.multiply(x);
    const Vector dx = gemv(d, x);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(sx[i], dx[i], 1e-12);

    const Vector sty = s.multiply_transpose(y);
    const Vector dty = gemv_transpose(d, y);
    for (std::size_t j = 0; j < 8; ++j) EXPECT_NEAR(sty[j], dty[j], 1e-12);

    EXPECT_LT(max_abs_diff(s.gram(), gram(d)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/// gram_diagonal is bitwise gram_column's diagonal entry and
/// gram_sparse's, column by column.
void expect_gram_diagonal_bitwise(const SparseMatrix& a) {
    const SparseMatrix at = transpose(a);
    const Matrix g = gram_sparse(a);
    Vector diag(a.cols(), -1.0);
    gram_diagonal(at.view(), diag.data());
    std::vector<double> scratch(a.cols(), 0.0);
    std::vector<std::size_t> support;
    for (std::size_t j = 0; j < a.cols(); ++j) {
        gram_column(a.view(), at.view(), j, scratch.data(), support);
        EXPECT_EQ(diag[j], scratch[j]) << "column " << j;
        EXPECT_EQ(diag[j], g(j, j)) << "column " << j;
        for (std::size_t q : support) scratch[q] = 0.0;
    }
}

// Values other than 0 and 1 throughout: with 0/1 entries every product
// is exact and any accumulation order (fused or not) agrees.
TEST(GramDiagonal, RandomValuesMatchGramColumnAndGramSparseBitwise) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> value(-3.0, 3.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (const double density : {0.05, 0.3, 0.9}) {
        for (const std::size_t rows : {1ul, 9ul, 60ul}) {
            const std::size_t cols = rows + 11;
            std::vector<Triplet> trips;
            for (std::size_t i = 0; i < rows; ++i) {
                for (std::size_t j = 0; j < cols; ++j) {
                    if (coin(rng) < density) {
                        trips.push_back({i, j, value(rng)});
                    }
                }
            }
            SCOPED_TRACE(::testing::Message()
                         << rows << "x" << cols << " density " << density);
            expect_gram_diagonal_bitwise(
                SparseMatrix(rows, cols, std::move(trips)));
        }
    }
}

TEST(GramDiagonal, WeightedRoutingMatrixMatchesBitwise) {
    // A generated backbone's routing pattern with fractional weights on
    // every carrier, as load-balanced path splits would give.
    const topology::Topology topo = topology::generated_backbone(20, 4.0, 3);
    const SparseMatrix r = routing::igp_routing_matrix(topo);
    std::mt19937_64 rng(8);
    std::uniform_real_distribution<double> split(0.05, 1.0);
    std::vector<double> values = r.values();
    for (double& v : values) v *= split(rng);
    expect_gram_diagonal_bitwise(
        SparseMatrix::from_csr(r.rows(), r.cols(), r.row_offsets(),
                               r.column_indices(), std::move(values)));
}

}  // namespace
}  // namespace tme::linalg
