#include "linalg/nnls.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "linalg/csr_kernels.hpp"

namespace tme::linalg {
namespace {

// NNLS on an explicit matrix, through its Gram form: the estimators
// only ever hand the solver a Gram (dense or generated), so these
// explicit-A entry points live with the tests.  The sparse overload
// also runs the dual refresh over A's nonzeros.
NnlsResult nnls(const Matrix& a, const Vector& b,
                const NnlsOptions& options = {}) {
    if (a.rows() != b.size()) {
        throw std::invalid_argument("nnls: dimension mismatch");
    }
    NnlsResult r =
        nnls_gram(gram(a), gemv_transpose(a, b), dot(b, b), options);
    r.residual_norm = nrm2(sub(gemv(a, r.x), b));
    return r;
}

NnlsResult nnls(const SparseMatrix& a, const Vector& b,
                const NnlsOptions& options = {}) {
    if (a.rows() != b.size()) {
        throw std::invalid_argument("nnls: dimension mismatch");
    }
    NnlsOptions sparse_options = options;
    if (sparse_options.gram_operator == nullptr) {
        sparse_options.gram_operator = &a;
    }
    NnlsResult r = nnls_gram(gram_sparse(a), a.multiply_transpose(b),
                             dot(b, b), sparse_options);
    r.residual_norm = nrm2(sub(a.multiply(r.x), b));
    return r;
}

TEST(Nnls, UnconstrainedInteriorSolution) {
    // Well-conditioned system whose LS solution is positive.
    Matrix a{{2.0, 0.0}, {0.0, 3.0}};
    const NnlsResult r = nnls(a, {4.0, 9.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 2.0, 1e-9);
    EXPECT_NEAR(r.x[1], 3.0, 1e-9);
    EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(Nnls, ActiveConstraintPinsToZero) {
    // LS solution would be negative in x1; NNLS must clamp it to 0.
    Matrix a{{1.0, 1.0}, {0.0, 1.0}};
    // Unconstrained solution of [x0+x1; x1] = [1; -1] is x1=-1, x0=2.
    const NnlsResult r = nnls(a, {1.0, -1.0});
    EXPECT_GE(r.x[0], 0.0);
    EXPECT_DOUBLE_EQ(r.x[1], 0.0);
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);  // best fit with x1 = 0
}

TEST(Nnls, ZeroRhsGivesZero) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const NnlsResult r = nnls(a, {0.0, 0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.x[0], 0.0);
    EXPECT_DOUBLE_EQ(r.x[1], 0.0);
}

TEST(Nnls, DimensionMismatchThrows) {
    EXPECT_THROW(nnls(Matrix(2, 2), Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(nnls_gram(Matrix(2, 3), Vector{1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Nnls, SparseAndDenseAgree) {
    Matrix a{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}, {1.0, 1.0, 0.0}};
    const Vector b{2.0, 1.0, 1.5};
    const NnlsResult dense = nnls(a, b);
    const NnlsResult sparse = nnls(SparseMatrix::from_dense(a), b);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-9);
    }
}

// KKT conditions characterize the NNLS optimum:
//   x >= 0;  w = A'(b - Ax) <= 0 on the active set; w = 0 where x > 0.
class NnlsKkt : public ::testing::TestWithParam<unsigned> {};

TEST_P(NnlsKkt, SatisfiedOnRandomProblems) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t m = 8 + GetParam() % 12;
    const std::size_t n = 4 + GetParam() % 10;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
        b[i] = dist(rng);
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    const NnlsResult r = nnls(a, b);
    ASSERT_TRUE(r.converged);
    const Vector w = gemv_transpose(a, sub(b, gemv(a, r.x)));
    const double scale = 1.0 + nrm_inf(w);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_GE(r.x[j], 0.0);
        if (r.x[j] > 1e-9) {
            EXPECT_NEAR(w[j], 0.0, 1e-6 * scale) << "stationarity at " << j;
        } else {
            EXPECT_LE(w[j], 1e-6 * scale) << "dual feasibility at " << j;
        }
    }
}

TEST_P(NnlsKkt, RecoversTrueNonnegativeSolution) {
    // Consistent system with known non-negative generator and full column
    // rank: NNLS must recover it (it's the unique LS optimum).
    std::mt19937_64 rng(GetParam() + 500);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    const std::size_t m = 20;
    const std::size_t n = 6;
    Matrix a(m, n);
    Vector truth(n);
    for (double& v : truth) v = dist(rng);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    const Vector b = gemv(a, truth);
    const NnlsResult r = nnls(a, b);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(r.x[j], truth[j], 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsKkt,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

TEST(NnlsGram, MatchesExplicitForm) {
    Matrix a{{1.0, 2.0}, {3.0, 1.0}, {0.5, 0.5}};
    const Vector b{1.0, 2.0, 0.5};
    const NnlsResult direct = nnls(a, b);
    const NnlsResult viagram =
        nnls_gram(gram(a), gemv_transpose(a, b), dot(b, b));
    EXPECT_NEAR(direct.x[0], viagram.x[0], 1e-9);
    EXPECT_NEAR(direct.x[1], viagram.x[1], 1e-9);
    EXPECT_NEAR(direct.residual_norm, viagram.residual_norm, 1e-8);
}

TEST(NnlsGram, RankDeficientGramDoesNotCrash) {
    // Gram of a rank-1 matrix: NNLS should still terminate with a
    // feasible, stationary point.
    Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    const Vector b{1.0, 2.0};
    const NnlsResult r = nnls(a, b);
    EXPECT_LE(r.residual_norm, 1e-6);
    for (double v : r.x) EXPECT_GE(v, 0.0);
}

// detail::packed_forward_substitute's arithmetic, one row at a time:
// row i subtracts its terms t-ascending, rounding the product first
// against earlier four-row blocks and through mul_add inside its own.
// In a build without FMA both are the plain `v -= row[t] * x[t]` loop
// the helper replaced in PassiveFactor's append and solve.
void serial_forward_substitute(const std::vector<double>& l, std::size_t k,
                               std::vector<double>& x) {
    for (std::size_t i = 0; i < k; ++i) {
        const double* row = l.data() + i * (i + 1) / 2;
        const std::size_t block = i - i % 4;
        double v = x[i];
        for (std::size_t t = 0; t < i; ++t) {
            v = t < block ? detail::mul_add(-1.0, row[t] * x[t], v)
                          : detail::mul_add(-row[t], x[t], v);
        }
        x[i] = v / row[i];
    }
}

TEST(PackedForwardSubstitute, MatchesSerialLoopBitwise) {
    // Every remainder of k mod 4 (the four-row blocks and the serial
    // tail), and a passive set of paper-scale size.  The estimators'
    // dense oracles run nnls_gram, which solves through this same
    // helper, so their bitwise gates cannot see a scheduling slip here.
    std::vector<std::size_t> sizes;
    for (std::size_t k = 0; k <= 67; ++k) sizes.push_back(k);
    sizes.push_back(600);
    std::mt19937_64 rng(20);
    std::uniform_real_distribution<double> off(-1.0, 1.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (const std::size_t k : sizes) {
        // Random factor whose diagonal grows with the row, so the
        // solution stays O(1) and finite at every size.
        std::vector<double> l(k * (k + 1) / 2);
        for (std::size_t i = 0; i < k; ++i) {
            double* row = l.data() + i * (i + 1) / 2;
            for (std::size_t t = 0; t < i; ++t) row[t] = off(rng);
            row[i] = 0.5 * static_cast<double>(i) + 1.0 + unit(rng);
        }
        std::vector<double> b(k);
        for (double& v : b) v = off(rng);
        std::vector<double> fast = b;
        std::vector<double> ref = b;
        detail::packed_forward_substitute(l.data(), k, fast.data());
        serial_forward_substitute(l, k, ref);
        for (std::size_t i = 0; i < k; ++i) {
            ASSERT_TRUE(std::isfinite(ref[i])) << "k=" << k << " i=" << i;
            EXPECT_EQ(fast[i], ref[i]) << "k=" << k << " i=" << i;
        }
    }
}

}  // namespace
}  // namespace tme::linalg
