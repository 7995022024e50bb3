// Row-/column-blocked routing-operator kernels (linalg/blocked_spmv.hpp)
// against the serial SparseMatrix products they replace: bit for bit,
// for every way a runner may order or group the blocks, and on matrices
// with fewer rows and columns than blocks (empty blocks).  The thread-pool side of the same contract lives in
// tests/engine/test_parallel_determinism.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "check/contract.hpp"
#include "linalg/blocked_spmv.hpp"
#include "linalg/csr_kernels.hpp"
#include "routing/routing_matrix.hpp"
#include "topology/builders.hpp"

namespace tme::linalg {
namespace {

bool bitwise_equal(const Vector& a, const Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs single blocks in descending order.
struct ReverseRunner final : BlockRunner {
    void run(std::size_t blocks, BlockBody body) override {
        for (std::size_t b = blocks; b-- > 0;) body(b, b + 1);
    }
};

/// Cuts [0, blocks) into seeded random ranges and runs them in a
/// shuffled order.
struct ShuffledRangeRunner final : BlockRunner {
    explicit ShuffledRangeRunner(unsigned seed) : rng(seed) {}
    void run(std::size_t blocks, BlockBody body) override {
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        std::uniform_int_distribution<std::size_t> len(1, 4);
        for (std::size_t b = 0; b < blocks;) {
            const std::size_t e = std::min(blocks, b + len(rng));
            ranges.emplace_back(b, e);
            b = e;
        }
        std::shuffle(ranges.begin(), ranges.end(), rng);
        for (const auto& [b, e] : ranges) body(b, e);
    }
    std::mt19937_64 rng;
};

SparseMatrix backbone_routing(std::size_t pops) {
    const topology::Topology topo = topology::generated_backbone(pops, 4.0, 1);
    return routing::igp_routing_matrix(topo);
}

/// A backbone routing matrix with one entry set to 2.0: routing
/// structure on the valued kernels (every routing matrix the builders
/// make is 0/1 and takes the value-free ones).
SparseMatrix mixed_routing(std::size_t pops) {
    const SparseMatrix r = backbone_routing(pops);
    std::vector<double> values = r.values();
    values[values.size() / 2] = 2.0;
    return SparseMatrix::from_csr(r.rows(), r.cols(), r.row_offsets(),
                                  r.column_indices(), std::move(values));
}

/// Random CSR with empty rows and columns and signed values.
SparseMatrix random_sparse(std::size_t rows, std::size_t cols,
                           std::mt19937_64& rng) {
    std::vector<Triplet> trips;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_real_distribution<double> value(-3.0, 3.0);
    for (std::size_t i = 0; i < rows; ++i) {
        if (i % 7 == 3) continue;  // empty row
        for (std::size_t j = 0; j < cols; ++j) {
            if (j % 11 == 5) continue;  // empty column
            if (coin(rng) < 0.08) trips.push_back({i, j, value(rng)});
        }
    }
    return SparseMatrix(rows, cols, std::move(trips));
}

/// Inputs with exact zeros of both signs, so the zero-input skips of
/// the serial scatter are exercised.
Vector input_vector(std::size_t n, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    Vector x(n);
    for (double& v : x) {
        const double d = u(rng);
        v = d < -0.8 ? 0.0 : d < -0.7 ? -0.0 : 1e3 * d;
    }
    return x;
}

/// The fanout Hessian apply as the serial per-sample loop (its fold
/// through mul_add, so it rounds the same at every optimization level).
Vector weighted_normal_reference(const SparseMatrix& r, const Vector& x,
                                 const std::vector<Vector>& w) {
    Vector y(r.cols(), 0.0), u(r.cols()), v, z;
    for (const Vector& wk : w) {
        for (std::size_t p = 0; p < r.cols(); ++p) u[p] = wk[p] * x[p];
        r.multiply_into(u, v);
        r.multiply_transpose_into(v, z);
        for (std::size_t p = 0; p < r.cols(); ++p) {
            y[p] = detail::mul_add(wk[p], z[p], y[p]);
        }
    }
    return y;
}

/// Per-group weights, group-major: out[g * window + k] = w_k of group g.
std::vector<double> group_major(const std::vector<Vector>& w) {
    const std::size_t n = w.front().size();
    std::vector<double> out(n * w.size());
    for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t k = 0; k < w.size(); ++k) {
            out[g * w.size() + k] = w[k][g];
        }
    }
    return out;
}

/// The blocked fanout Hessian apply against the per-sample loop on r,
/// for several window widths and weight groupings, under every runner.
void weighted_normal_matches_per_sample_loop(const SparseMatrix& r,
                                             std::mt19937_64& rng) {
    const RoutingOperator op(r);
    const SparseMatrix rt = transpose(r);
    ReverseRunner reverse;
    ShuffledRangeRunner shuffled(5);
    const std::vector<BlockRunner*> runners = {nullptr, &reverse, &shuffled};
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    // Per-pair weights (identity groups) and weights shared by groups of
    // pairs, as the fanout QP's per-source totals are.
    std::vector<std::size_t> identity(r.cols()), grouped(r.cols());
    for (std::size_t p = 0; p < r.cols(); ++p) {
        identity[p] = p;
        grouped[p] = p % 13;
    }
    // Chunked sample loops: every remainder width, one and two 8-wide
    // chunks, and chunks followed by a remainder.
    for (std::size_t window :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 17u}) {
        for (const std::vector<std::size_t>* group_of : {&identity, &grouped}) {
            const std::size_t groups = group_of == &identity ? r.cols() : 13;
            std::vector<Vector> gw(window, Vector(groups));
            for (Vector& wk : gw) {
                for (double& v : wk) {
                    const double d = u(rng);
                    v = d < -0.5 ? 0.0 : 1e6 * d;  // zero totals too
                }
            }
            std::vector<Vector> w(window, Vector(r.cols()));
            for (std::size_t k = 0; k < window; ++k) {
                for (std::size_t p = 0; p < r.cols(); ++p) {
                    w[k][p] = gw[k][(*group_of)[p]];
                }
            }
            const std::vector<double> weights = group_major(gw);
            const Vector x = input_vector(r.cols(), rng);
            const Vector want = weighted_normal_reference(r, x, w);
            for (BlockRunner* runner : runners) {
                WeightedNormalScratch scratch;
                Vector got;
                op.weighted_normal(x, rt, *group_of, weights, window,
                                   scratch, got, runner);
                EXPECT_TRUE(bitwise_equal(got, want))
                    << "pairs " << r.cols() << " window " << window
                    << " groups " << groups;
            }
        }
    }
}

TEST(BlockedSpmv, NnzBalancedBlocksCoverEveryRowOnce) {
    std::mt19937_64 rng(1);
    const SparseMatrix r = random_sparse(50, 80, rng);
    for (std::size_t blocks : {0u, 1u, 3u, 16u, 49u, 50u, 200u}) {
        const std::vector<std::size_t> b = nnz_balanced_blocks(r.view(), blocks);
        ASSERT_EQ(b.size(), std::max<std::size_t>(blocks, 1) + 1);
        EXPECT_EQ(b.front(), 0u);
        EXPECT_EQ(b.back(), r.rows());
        EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    }
}

TEST(BlockedSpmv, ProductsMatchSerialBitwiseForEveryPartition) {
    std::mt19937_64 rng(7);
    // The small matrices have fewer rows / columns than blocks.
    // Routing matrices run the value-free kernels, the others the
    // valued ones.
    const std::vector<SparseMatrix> matrices = {
        backbone_routing(40), random_sparse(60, 90, rng),
        random_sparse(9, 40, rng), random_sparse(40, 12, rng),
        backbone_routing(3), mixed_routing(40)};
    ReverseRunner reverse;
    ShuffledRangeRunner shuffled(3);
    const std::vector<BlockRunner*> runners = {nullptr, &reverse, &shuffled};
    for (const SparseMatrix& r : matrices) {
        const RoutingOperator op(r);
        for (int trial = 0; trial < 3; ++trial) {
            const Vector x = input_vector(r.cols(), rng);
            const Vector t = input_vector(r.rows(), rng);
            const Vector rx = r.multiply(x);
            const Vector rtt = r.multiply_transpose(t);
            for (BlockRunner* runner : runners) {
                Vector got;
                op.multiply(x, got, runner);
                EXPECT_TRUE(bitwise_equal(got, rx)) << r.rows() << "x" << r.cols();
                op.multiply_transpose(t, got, runner);
                EXPECT_TRUE(bitwise_equal(got, rtt)) << r.rows() << "x" << r.cols();
            }
        }
    }
}

TEST(BlockedSpmv, WeightedNormalMatchesPerSampleLoopBitwise) {
    std::mt19937_64 rng(11);
    // The 3-PoP backbone has fewer links and pairs than blocks.  The
    // backbones run the value-free kernels, the random and mixed
    // matrices the valued ones.
    const SparseMatrix random = random_sparse(60, 90, rng);
    for (const SparseMatrix& r : {backbone_routing(40), backbone_routing(3),
                                  random, mixed_routing(40)}) {
        weighted_normal_matches_per_sample_loop(r, rng);
    }
}

TEST(BlockedSpmv, RejectsMismatchedSizes) {
    const SparseMatrix r = backbone_routing(10);
    const RoutingOperator op(r);
    Vector y;
    WeightedNormalScratch scratch;
    EXPECT_THROW(op.multiply(Vector(r.cols() + 1), y, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(op.multiply_transpose(Vector(r.cols()), y, nullptr),
                 std::invalid_argument);
    const SparseMatrix rt = transpose(r);
    const std::vector<std::size_t> groups(r.cols(), 0);
    EXPECT_THROW(op.weighted_normal(Vector(r.cols()), rt, groups,
                                    std::vector<double>(3), 2, scratch, y,
                                    nullptr),
                 std::invalid_argument);
    const std::vector<std::size_t> out_of_range(r.cols(), 5);
    EXPECT_THROW(op.weighted_normal(Vector(r.cols()), rt, out_of_range,
                                    std::vector<double>(4), 2, scratch, y,
                                    nullptr),
                 std::invalid_argument);
}

TEST(BlockedSpmv, WeightedNormalRejectsAWrongTranspose) {
    const SparseMatrix r = backbone_routing(10);
    const RoutingOperator op(r);
    const SparseMatrix rt = transpose(r);
    const std::vector<std::size_t> groups(r.cols(), 0);
    const std::vector<double> weights = {1.0, 2.0};
    WeightedNormalScratch scratch;
    Vector y;
    const auto apply = [&](const SparseMatrix& t) {
        op.weighted_normal(Vector(r.cols(), 1.0), t, groups, weights, 2,
                           scratch, y, nullptr);
    };
    // R in place of R': the wrong shape.
    EXPECT_THROW(apply(r), std::invalid_argument);
    // R' without its last nonzero: the right shape, one entry short.
    std::vector<std::size_t> offsets = rt.row_offsets();
    std::vector<std::size_t> columns = rt.column_indices();
    std::vector<double> values = rt.values();
    --offsets.back();
    columns.pop_back();
    values.pop_back();
    EXPECT_THROW(apply(SparseMatrix::from_csr(rt.rows(), rt.cols(), offsets,
                                              columns, values)),
                 std::invalid_argument);
    // R' with one value changed: shape and count agree, so only the
    // expensive contract tier sees it.  It compares once per operator,
    // so this comes before the correct R'.
    values = rt.values();
    values[values.size() / 2] = 2.0;
    const SparseMatrix changed = SparseMatrix::from_csr(
        rt.rows(), rt.cols(), rt.row_offsets(), rt.column_indices(), values);
    if (check::contracts_dbg_compiled()) {
        EXPECT_THROW(apply(changed), check::ContractViolation);
    }
    EXPECT_NO_THROW(apply(rt));
}

}  // namespace
}  // namespace tme::linalg
