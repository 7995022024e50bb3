#include "linalg/qp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

#include "linalg/dense_qp_reference.hpp"
#include "linalg/lu.hpp"
#include "routing/routing_matrix.hpp"
#include "topology/builders.hpp"

namespace tme::linalg {
namespace {

using testing::dense_hessian;
using testing::solve_eq_qp_nonneg;

/// The two solvers the small dense cases below run against: the test
/// oracle, and the production operator solver through the dense-H
/// adapter (exact-LU regime at these sizes).
enum class QpSolver { dense_reference, operator_exact_lu };

class EqQpNonneg : public ::testing::TestWithParam<QpSolver> {
  protected:
    static EqQpNonnegResult solve(const Matrix& h, const Vector& f,
                                  const Matrix& e, const Vector& d,
                                  const EqQpNonnegOptions& options = {}) {
        if (GetParam() == QpSolver::dense_reference) {
            return solve_eq_qp_nonneg(h, f, e, d, options);
        }
        return solve_eq_qp_nonneg_operator(
            dense_hessian(h), f, SparseMatrix::from_dense(e), d, options);
    }
};

class EqQpNonnegWarm : public EqQpNonneg {};

std::string solver_name(const ::testing::TestParamInfo<QpSolver>& info) {
    return info.param == QpSolver::dense_reference ? "DenseReference"
                                                   : "Operator";
}

TEST_P(EqQpNonneg, MatchesEqualityOnlyWhenInterior) {
    const Matrix h = Matrix::identity(2);
    const Vector f{0.0, 0.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const EqQpNonnegResult r = solve(h, f, e, d);
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], 1.0, 1e-5);
    EXPECT_LT(r.equality_violation, 1e-6);
}

TEST_P(EqQpNonneg, ClampsNegativeCoordinates) {
    // min 1/2 x'Ix - f'x with f = (3, -1), sum = 2: unconstrained
    // equality solution is (3, -1)+nu*(1,1) -> (2.5, -0.5)... must clamp
    // x1 to 0 and put everything on x0.
    const Matrix h = Matrix::identity(2);
    const Vector f{3.0, -1.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const EqQpNonnegResult r = solve(h, f, e, d);
    EXPECT_NEAR(r.x[0], 2.0, 1e-5);
    EXPECT_NEAR(r.x[1], 0.0, 1e-8);
}

TEST_P(EqQpNonneg, ReportsActiveSet) {
    const Matrix h = Matrix::identity(2);
    const Vector f{3.0, -1.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const EqQpNonnegResult r = solve(h, f, e, d);
    ASSERT_EQ(r.active.size(), 2u);
    EXPECT_EQ(r.active[0], 0);
    EXPECT_NE(r.active[1], 0);
    EXPECT_EQ(r.x[1], 0.0);
}

TEST_P(EqQpNonnegWarm, ExactSeedConvergesInOneSolve) {
    const Matrix h = Matrix::identity(2);
    const Vector f{3.0, -1.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const EqQpNonnegResult cold = solve(h, f, e, d);
    ASSERT_TRUE(cold.converged);
    EXPECT_GT(cold.iterations, 1u);

    EqQpNonnegOptions options;
    options.warm_start = &cold.x;
    const EqQpNonnegResult warm = solve(h, f, e, d, options);
    ASSERT_TRUE(warm.converged);
    EXPECT_TRUE(warm.warm_accepted);
    EXPECT_EQ(warm.iterations, 1u);
    EXPECT_NEAR(warm.x[0], cold.x[0], 1e-10);
    EXPECT_NEAR(warm.x[1], cold.x[1], 1e-10);
}

TEST_P(EqQpNonnegWarm, InconsistentSeedStillReturnsColdMinimizer) {
    // Seed pins the coordinate the optimum needs free (and frees the
    // one that must be pinned): verification must repair or fall back,
    // never return a seed-biased point.
    const Matrix h = Matrix::identity(2);
    const Vector f{3.0, -1.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const EqQpNonnegResult cold = solve(h, f, e, d);

    const Vector wrong{0.0, 2.0};
    EqQpNonnegOptions options;
    options.warm_start = &wrong;
    const EqQpNonnegResult warm = solve(h, f, e, d, options);
    ASSERT_TRUE(warm.converged);
    EXPECT_NEAR(warm.x[0], cold.x[0], 1e-9);
    EXPECT_NEAR(warm.x[1], cold.x[1], 1e-9);
}

TEST_P(EqQpNonnegWarm, AllZeroSeedRunsCold) {
    // A seed with nothing free cannot satisfy E x = d; the solver must
    // ignore it and solve cold.
    const Matrix h = Matrix::identity(2);
    const Vector f{0.0, 0.0};
    const Matrix e{{1.0, 1.0}};
    const Vector d{2.0};
    const Vector zeros(2, 0.0);
    EqQpNonnegOptions options;
    options.warm_start = &zeros;
    const EqQpNonnegResult r = solve(h, f, e, d, options);
    EXPECT_FALSE(r.warm_accepted);
    EXPECT_NEAR(r.x[0], 1.0, 1e-8);
    EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST_P(EqQpNonnegWarm, SeedPinningAWholeEqualityRowFallsBackCold) {
    // Pinning every variable of one sum constraint leaves that
    // multiplier row without free support — a structurally singular
    // KKT system.  The solver must fall back to the cold path instead
    // of throwing.
    const Matrix h = Matrix::identity(4);
    const Vector f{1.0, 2.0, 1.0, 2.0};
    Matrix e(2, 4, 0.0);
    e(0, 0) = e(0, 1) = 1.0;
    e(1, 2) = e(1, 3) = 1.0;
    const Vector d{1.0, 1.0};
    const EqQpNonnegResult cold = solve(h, f, e, d);

    const Vector seed{0.0, 0.0, 0.5, 0.5};  // row 0 fully pinned
    EqQpNonnegOptions options;
    options.warm_start = &seed;
    const EqQpNonnegResult warm = solve(h, f, e, d, options);
    EXPECT_FALSE(warm.warm_accepted);
    ASSERT_TRUE(warm.converged);
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(warm.x[j], cold.x[j], 1e-9) << "var " << j;
    }
}

TEST_P(EqQpNonnegWarm, SizeMismatchThrows) {
    const Matrix h = Matrix::identity(2);
    const Vector bad(3, 1.0);
    EqQpNonnegOptions options;
    options.warm_start = &bad;
    EXPECT_THROW(solve(h, {0.0, 0.0}, Matrix{{1.0, 1.0}}, {2.0}, options),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Solvers, EqQpNonneg,
                         ::testing::Values(QpSolver::dense_reference,
                                           QpSolver::operator_exact_lu),
                         solver_name);
INSTANTIATE_TEST_SUITE_P(Solvers, EqQpNonnegWarm,
                         ::testing::Values(QpSolver::dense_reference,
                                           QpSolver::operator_exact_lu),
                         solver_name);

class EqQpNonnegProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EqQpNonnegProperty, FeasibleAndNoWorseThanProjectedCandidates) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t n = 6;
    Matrix a(8, n);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    Matrix h = gram(a);
    for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.1;
    Vector f(n);
    for (double& v : f) v = dist(rng);
    // Two disjoint sum constraints.
    Matrix e(2, n, 0.0);
    for (std::size_t j = 0; j < n / 2; ++j) e(0, j) = 1.0;
    for (std::size_t j = n / 2; j < n; ++j) e(1, j) = 1.0;
    const Vector d{1.0, 1.0};

    const EqQpNonnegResult r = solve_eq_qp_nonneg(h, f, e, d);
    EXPECT_LT(r.equality_violation, 1e-5);
    for (double v : r.x) EXPECT_GE(v, -1e-12);

    // Objective no worse than a uniform feasible candidate.
    auto objective = [&](const Vector& x) {
        double acc = 0.0;
        const Vector hx = gemv(h, x);
        for (std::size_t i = 0; i < n; ++i) {
            acc += 0.5 * x[i] * hx[i] - f[i] * x[i];
        }
        return acc;
    };
    Vector uniform(n, 1.0 / static_cast<double>(n / 2));
    EXPECT_LE(objective(r.x), objective(uniform) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqQpNonnegProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class EqQpNonnegScale : public ::testing::TestWithParam<unsigned> {};

TEST_P(EqQpNonnegScale, LargeLoadsDoNotBurnExtraRounds) {
    // Regression for the absolute negativity threshold: scaling f and d
    // by 1e9 scales the solution by 1e9, and LU round-off on
    // numerically-zero coordinates lands around 1e9 * eps >> 1e-9.  An
    // absolute threshold mislabels those coordinates negative and burns
    // extra active-set rounds; the scale-relative threshold must make
    // the solve path identical at both magnitudes.
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t n = 6;
    Matrix a(8, n);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    }
    Matrix h = gram(a);
    for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.1;
    Vector f(n);
    for (double& v : f) v = dist(rng);
    Matrix e(2, n, 0.0);
    for (std::size_t j = 0; j < n / 2; ++j) e(0, j) = 1.0;
    for (std::size_t j = n / 2; j < n; ++j) e(1, j) = 1.0;
    const Vector d{1.0, 1.0};

    const EqQpNonnegResult base = solve_eq_qp_nonneg(h, f, e, d);
    ASSERT_TRUE(base.converged);

    const double scale = 1e9;
    Vector f_big = f;
    for (double& v : f_big) v *= scale;
    const Vector d_big{scale, scale};
    const EqQpNonnegResult big = solve_eq_qp_nonneg(h, f_big, e, d_big);
    ASSERT_TRUE(big.converged);

    // Same active-set path at both magnitudes, and the solution scales.
    EXPECT_EQ(big.iterations, base.iterations);
    ASSERT_EQ(big.active.size(), base.active.size());
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(big.active[j] != 0, base.active[j] != 0) << "var " << j;
        EXPECT_NEAR(big.x[j], scale * base.x[j], 1e-6 * scale)
            << "var " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqQpNonnegScale,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- Operator-Hessian solver -------------------------------------------

/// Matrix-free H = A'A over a sparse A, the shape of the estimators'
/// data terms: `apply` runs A'(A x), while `diag` and `column` replay
/// the Gram kernels through gram_diagonal and gram_column on A' — so
/// every generated value is bitwise the dense Gram's.  `a` and `at`
/// must outlive the operator.
HessianOperator gram_operator(const SparseMatrix& a, const SparseMatrix& at,
                              const Vector* diagonal) {
    HessianOperator h;
    h.dimension = a.cols();
    h.apply = [&a](const Vector& x, Vector& y) {
        y = a.multiply_transpose(a.multiply(x));
    };
    const CsrView av = a.view();
    const CsrView atv = at.view();
    h.diag = [atv](Vector& out) { gram_diagonal(atv, out.data()); };
    h.column = [av, atv](std::size_t j, std::vector<double>& scratch,
                         std::vector<std::size_t>& support) {
        gram_column(av, atv, j, scratch.data(), support);
    };
    h.diagonal = diagonal;
    return h;
}

/// Random problem H = A'A + diag(shift) with its dense twin, plus two
/// disjoint sum constraints in both forms.
struct OperatorProblem {
    SparseMatrix a;
    SparseMatrix at;
    Matrix dense_h;  // dense twin, shift already on the diagonal
    Vector shift;
    Vector f;
    Matrix e_dense;
    SparseMatrix e_sparse;
    Vector d;

    HessianOperator hessian() const { return gram_operator(a, at, &shift); }
};

/// Sets E to two disjoint sum rows over the first `covered` variables
/// (halves); the rest sit in no equality row.
void constrain_first(OperatorProblem& p, std::size_t covered) {
    const std::size_t n = p.f.size();
    p.e_dense = Matrix(2, n, 0.0);
    std::vector<Triplet> trips;
    for (std::size_t j = 0; j < covered; ++j) {
        const std::size_t r = j < covered / 2 ? 0 : 1;
        p.e_dense(r, j) = 1.0;
        trips.push_back({r, j, 1.0});
    }
    p.e_sparse = SparseMatrix(2, n, std::move(trips));
}

OperatorProblem make_operator_problem(unsigned seed, std::size_t n,
                                      double shift_value) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(0.1, 1.0);
    std::uniform_int_distribution<int> coin(0, 2);
    Matrix a(2 * n, n, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (coin(rng) == 0) a(i, j) = dist(rng);
        }
    }
    OperatorProblem p;
    p.a = SparseMatrix::from_dense(a);
    p.at = transpose(p.a);
    p.shift.assign(n, shift_value);
    p.dense_h = p.a.gram();
    for (std::size_t i = 0; i < n; ++i) p.dense_h(i, i) += shift_value;
    p.f.resize(n);
    for (double& v : p.f) v = dist(rng) - 0.3;
    constrain_first(p, n);
    p.d = {1.0, 2.0};
    return p;
}

/// Scaled KKT residual of a returned point, computed from the dense H
/// alone.  With g = H x - f, the equality multipliers nu are the least-
/// squares fit of g_F + E_F' nu = 0 over the free set F, and
/// mu = g + E' nu.  The multiplier fields are divided by max(1,
/// |f|_inf, max diag(H) * |x|_inf), the solver's own multiplier scale;
/// the equality field by max(1, |d|_inf).
struct KktResidual {
    double stationarity = 0.0;  ///< max |mu_j| over free j
    double pinned_sign = 0.0;   ///< max (-mu_j)+ over pinned j
    double equality = 0.0;      ///< |E x - d|_inf
    std::size_t pinned_nonzero = 0;  ///< pinned coordinates with x_j != 0
};

KktResidual kkt_residual(const Matrix& h, const Vector& f, const Matrix& e,
                         const Vector& d, const EqQpNonnegResult& r) {
    const std::size_t n = h.rows();
    const std::size_t m = e.rows();
    const Vector g = sub(gemv(h, r.x), f);
    Vector nu(m, 0.0);
    if (m > 0) {
        // Normal equations (E_F E_F') nu = -E_F g_F.
        Matrix normal(m, m, 0.0);
        Vector rhs(m, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            if (r.active[j]) continue;
            for (std::size_t a = 0; a < m; ++a) {
                rhs[a] -= e(a, j) * g[j];
                for (std::size_t b = 0; b < m; ++b) {
                    normal(a, b) += e(a, j) * e(b, j);
                }
            }
        }
        nu = Lu(normal).solve(rhs);
    }
    const Vector mu = add(g, gemv_transpose(e, nu));
    double hmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) hmax = std::max(hmax, h(i, i));
    const double scale = std::max({1.0, nrm_inf(f), hmax * nrm_inf(r.x)});
    KktResidual out;
    for (std::size_t j = 0; j < n; ++j) {
        if (r.active[j]) {
            out.pinned_sign = std::max(out.pinned_sign, -mu[j] / scale);
            out.pinned_nonzero += r.x[j] != 0.0 ? 1 : 0;
        } else {
            out.stationarity =
                std::max(out.stationarity, std::abs(mu[j]) / scale);
        }
    }
    if (m > 0) {
        out.equality =
            nrm_inf(sub(gemv(e, r.x), d)) / std::max(1.0, nrm_inf(d));
    }
    return out;
}

class EqQpOperator : public ::testing::TestWithParam<unsigned> {};

TEST_P(EqQpOperator, GatherPathBitwiseMatchesDense) {
    // Below dense_kkt_limit the operator solver gathers the same KKT
    // doubles the dense reference assembles.  The two pivot differently
    // (block pivoting vs pin-all / release-worst), so their round counts
    // may differ, but the last solve runs on the same free set: the
    // returned minimizer and active set must be bit-for-bit.
    const OperatorProblem p = make_operator_problem(GetParam(), 14, 0.05);
    const EqQpNonnegResult dense =
        solve_eq_qp_nonneg(p.dense_h, p.f, p.e_dense, p.d);

    const EqQpNonnegResult op =
        solve_eq_qp_nonneg_operator(p.hessian(), p.f, p.e_sparse, p.d);
    ASSERT_TRUE(op.converged);
    ASSERT_EQ(op.x.size(), dense.x.size());
    for (std::size_t j = 0; j < dense.x.size(); ++j) {
        EXPECT_EQ(op.x[j], dense.x[j]) << "var " << j;
    }
    EXPECT_EQ(op.cg_iterations, 0u);
    EXPECT_EQ(op.active, dense.active);
}

TEST_P(EqQpOperator, ProjectedCgMatchesDense) {
    // dense_kkt_limit = 0 forces every KKT solve through the
    // matrix-free projected CG; the strictly convex problem has one
    // minimizer, so the two paths must agree to solver precision.  The
    // second pass leaves the last third of the variables in no
    // equality row, which the row-local projection only scales.
    OperatorProblem p = make_operator_problem(GetParam() + 50, 24, 0.5);
    for (const std::size_t covered : {std::size_t{24}, std::size_t{16}}) {
        constrain_first(p, covered);
        const EqQpNonnegResult dense =
            solve_eq_qp_nonneg(p.dense_h, p.f, p.e_dense, p.d);

        EqQpNonnegOptions opts;
        opts.dense_kkt_limit = 0;
        opts.cg_tolerance = 1e-13;
        const EqQpNonnegResult op =
            solve_eq_qp_nonneg_operator(p.hessian(), p.f, p.e_sparse, p.d,
                                        opts);
        ASSERT_TRUE(op.converged) << "covered " << covered;
        EXPECT_GT(op.cg_iterations, 0u);
        // The CG path trades the last two digits of active-set
        // resolution for scale-independence (decision band 1e-7 vs the
        // gather path's 1e-9), so agreement is to ~1e-6 relative, not
        // bitwise.
        const double scale = std::max(1.0, nrm_inf(dense.x));
        for (std::size_t j = 0; j < dense.x.size(); ++j) {
            EXPECT_NEAR(op.x[j], dense.x[j], 1e-6 * scale)
                << "covered " << covered << " var " << j;
        }
        EXPECT_LT(op.equality_violation, 1e-9 * scale);
    }
}

TEST_P(EqQpOperator, WarmStartOnCgPathReturnsSameMinimizer) {
    const OperatorProblem p = make_operator_problem(GetParam() + 90, 20,
                                                    0.4);
    EqQpNonnegOptions opts;
    opts.dense_kkt_limit = 0;
    const EqQpNonnegResult cold =
        solve_eq_qp_nonneg_operator(p.hessian(), p.f, p.e_sparse, p.d,
                                    opts);
    ASSERT_TRUE(cold.converged);

    EqQpNonnegOptions warm_opts = opts;
    warm_opts.warm_start = &cold.x;
    const EqQpNonnegResult warm =
        solve_eq_qp_nonneg_operator(p.hessian(), p.f, p.e_sparse, p.d,
                                    warm_opts);
    ASSERT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, cold.iterations);
    const double scale = std::max(1.0, nrm_inf(cold.x));
    for (std::size_t j = 0; j < cold.x.size(); ++j) {
        EXPECT_NEAR(warm.x[j], cold.x[j], 1e-6 * scale) << "var " << j;
    }
}

TEST_P(EqQpOperator, KktCertificateHoldsInBothRegimes) {
    // Optimality checked from the dense H alone, without a second
    // solver: both test shapes above, each through the exact-LU
    // gather (default limit) and through projected CG (limit 0).
    const OperatorProblem problems[] = {
        make_operator_problem(GetParam(), 14, 0.05),
        make_operator_problem(GetParam() + 50, 24, 0.5)};
    for (const OperatorProblem& p : problems) {
        for (const std::size_t limit : {EqQpNonnegOptions{}.dense_kkt_limit,
                                        std::size_t{0}}) {
            EqQpNonnegOptions opts;
            opts.dense_kkt_limit = limit;
            const EqQpNonnegResult r = solve_eq_qp_nonneg_operator(
                p.hessian(), p.f, p.e_sparse, p.d, opts);
            ASSERT_TRUE(r.converged) << "limit " << limit;
            const KktResidual kkt =
                kkt_residual(p.dense_h, p.f, p.e_dense, p.d, r);
            // The exact-LU solve is off only by its 1e-10 ridge; the CG
            // regime's decision band sits at 1e-7.
            const double tol = limit == 0 ? 1e-6 : 1e-8;
            EXPECT_LE(kkt.stationarity, tol) << "limit " << limit;
            EXPECT_LE(kkt.pinned_sign, tol) << "limit " << limit;
            EXPECT_LE(kkt.equality, tol) << "limit " << limit;
            EXPECT_EQ(kkt.pinned_nonzero, 0u) << "limit " << limit;
            for (double v : r.x) EXPECT_GE(v, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqQpOperator,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(EqQpOperatorWarm, DriftedSeedOnExactLuPathReturnsColdMinimizerBitwise) {
    // A seed drifted from the cold solution (a few coordinates flipped
    // between pinned and free) is repaired by the pivoting itself: the
    // warm solve is accepted and ends on the cold solve's free set, so
    // the exact-LU minimizer is the same doubles.
    for (unsigned seed = 1; seed <= 40; ++seed) {
        const OperatorProblem p = make_operator_problem(seed + 300, 30, 0.05);
        const EqQpNonnegResult cold =
            solve_eq_qp_nonneg_operator(p.hessian(), p.f, p.e_sparse, p.d);
        ASSERT_TRUE(cold.converged) << "seed " << seed;

        Vector drifted = cold.x;
        std::mt19937_64 rng(seed);
        std::vector<std::size_t> order(drifted.size());
        for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t t = 0; t < 6; ++t) {
            double& v = drifted[order[t]];
            v = v > 0.0 ? 0.0 : 1.0;
        }
        EqQpNonnegOptions opts;
        opts.warm_start = &drifted;
        const EqQpNonnegResult warm = solve_eq_qp_nonneg_operator(
            p.hessian(), p.f, p.e_sparse, p.d, opts);
        ASSERT_TRUE(warm.converged) << "seed " << seed;
        EXPECT_TRUE(warm.warm_accepted) << "seed " << seed;
        EXPECT_EQ(warm.active, cold.active) << "seed " << seed;
        for (std::size_t j = 0; j < cold.x.size(); ++j) {
            EXPECT_EQ(warm.x[j], cold.x[j]) << "seed " << seed << " var " << j;
        }
    }
}

TEST(EqQpOperatorEdge, NoEqualityReducesToBoundConstrainedSolve) {
    // m == 0 is the Bayesian MAP shape: normal equations with
    // non-negativity only.  Gather path bitwise vs the dense solver,
    // CG path to 1e-6.
    const OperatorProblem p = make_operator_problem(7, 12, 0.3);
    const EqQpNonnegResult dense =
        solve_eq_qp_nonneg(p.dense_h, p.f, Matrix(0, 12), {});
    const EqQpNonnegResult gather =
        solve_eq_qp_nonneg_operator(p.hessian(), p.f, SparseMatrix(), {});
    for (std::size_t j = 0; j < dense.x.size(); ++j) {
        EXPECT_EQ(gather.x[j], dense.x[j]) << "var " << j;
    }
    EqQpNonnegOptions opts;
    opts.dense_kkt_limit = 0;
    const EqQpNonnegResult cg = solve_eq_qp_nonneg_operator(
        p.hessian(), p.f, SparseMatrix(), {}, opts);
    const double scale = std::max(1.0, nrm_inf(dense.x));
    for (std::size_t j = 0; j < dense.x.size(); ++j) {
        EXPECT_NEAR(cg.x[j], dense.x[j], 1e-6 * scale) << "var " << j;
    }
}

TEST(EqQpOperatorEdge, Validation) {
    const OperatorProblem p = make_operator_problem(3, 10, 0.1);
    const HessianOperator h = p.hessian();
    // f of the wrong length.
    EXPECT_THROW(
        solve_eq_qp_nonneg_operator(h, Vector(3, 0.0), p.e_sparse, p.d),
        std::invalid_argument);
    // Added diagonal of the wrong length.
    const Vector bad_diag(4, 1.0);
    HessianOperator bad = h;
    bad.diagonal = &bad_diag;
    EXPECT_THROW(solve_eq_qp_nonneg_operator(bad, p.f, p.e_sparse, p.d),
                 std::invalid_argument);
    // Warm-start seed of the wrong length.
    const Vector bad_seed(3, 1.0);
    EqQpNonnegOptions opts;
    opts.warm_start = &bad_seed;
    EXPECT_THROW(
        solve_eq_qp_nonneg_operator(h, p.f, p.e_sparse, p.d, opts),
        std::invalid_argument);
    // A variable in two equality rows (column 2 of E holds two
    // nonzeros): the rows must partition the variables, in both
    // inner-solve regimes.
    std::vector<Triplet> trips;
    for (std::size_t j = 0; j < 10; ++j) {
        trips.push_back({j < 5 ? 0u : 1u, j, 1.0});
    }
    trips.push_back({1, 2, 0.5});
    const SparseMatrix overlapping(2, 10, std::move(trips));
    for (const std::size_t limit : {EqQpNonnegOptions{}.dense_kkt_limit,
                                    std::size_t{0}}) {
        EqQpNonnegOptions limit_opts;
        limit_opts.dense_kkt_limit = limit;
        EXPECT_THROW(solve_eq_qp_nonneg_operator(h, p.f, overlapping, p.d,
                                                 limit_opts),
                     std::invalid_argument)
            << "limit " << limit;
    }
    // Every closure must be set.
    for (int which = 0; which < 3; ++which) {
        HessianOperator unset = h;
        if (which == 0) unset.apply = nullptr;
        if (which == 1) unset.diag = nullptr;
        if (which == 2) unset.column = nullptr;
        EXPECT_THROW(
            solve_eq_qp_nonneg_operator(unset, p.f, p.e_sparse, p.d),
            std::invalid_argument)
            << "closure " << which;
    }
}

TEST(EqQpOperatorEdge, RowWithoutFreeSupportIsSingularInBothRegimes) {
    // An equality row with no columns stays unsupported whatever the
    // driver releases: once its support repairs run out, the KKT solve
    // must report the system singular in the CG regime (S_rr = 0) as
    // in the exact-LU regime (a zero KKT row).
    const OperatorProblem p = make_operator_problem(5, 10, 0.1);
    std::vector<Triplet> trips;
    for (std::size_t j = 0; j < 10; ++j) {
        trips.push_back({j < 5 ? 0u : 1u, j, 1.0});
    }
    const SparseMatrix e(3, 10, std::move(trips));
    const Vector d = {1.0, 2.0, 0.0};
    for (const std::size_t limit : {EqQpNonnegOptions{}.dense_kkt_limit,
                                    std::size_t{0}}) {
        EqQpNonnegOptions opts;
        opts.dense_kkt_limit = limit;
        EXPECT_THROW(
            solve_eq_qp_nonneg_operator(p.hessian(), p.f, e, d, opts),
            std::runtime_error)
            << "limit " << limit;
    }
}

TEST(EqQpOperatorScale, HundredPopFanoutShapeKktResiduals) {
    // Property test at generated-backbone scale (100 PoPs, 9900 pairs):
    // the projected-CG path must satisfy the KKT conditions of the
    // fanout-shaped QP — per-source sum constraints met, per-source
    // stationarity value constant across the free fanouts, pinned
    // multipliers non-negative — without ever allocating anything
    // quadratic in the pair count.
    const topology::Topology topo = topology::generated_backbone(100, 4.0, 1);
    const SparseMatrix r = routing::igp_routing_matrix(topo);
    const SparseMatrix rt = transpose(r);
    const std::size_t pairs = r.cols();
    const std::size_t nodes = topo.pop_count();

    Vector gdiag(pairs, 0.0);
    gram_operator(r, rt, nullptr).diag(gdiag);
    double diag_mean = 0.0;
    for (std::size_t p = 0; p < pairs; ++p) diag_mean += gdiag[p];
    diag_mean /= static_cast<double>(pairs);
    const Vector shift(pairs, 0.5 * diag_mean);
    const HessianOperator h = gram_operator(r, rt, &shift);

    std::vector<Triplet> trips;
    std::vector<std::size_t> source_of(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
        source_of[p] = topo.pair_nodes(p).first;
        trips.push_back({source_of[p], p, 1.0});
    }
    const SparseMatrix e(nodes, pairs, std::move(trips));
    const Vector d(nodes, 1.0);

    // f = H alpha for a feasible fanout vector, plus a bias that drives
    // part of the optimum onto the boundary.
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    Vector alpha(pairs);
    Vector row_sum(nodes, 0.0);
    for (std::size_t p = 0; p < pairs; ++p) {
        alpha[p] = dist(rng);
        row_sum[source_of[p]] += alpha[p];
    }
    for (std::size_t p = 0; p < pairs; ++p) alpha[p] /= row_sum[source_of[p]];
    auto h_times = [&](const Vector& x) {
        Vector y(pairs, 0.0);
        h.apply(x, y);
        for (std::size_t p = 0; p < pairs; ++p) y[p] += shift[p] * x[p];
        return y;
    };
    Vector f = h_times(alpha);
    for (std::size_t p = 0; p < pairs; ++p) {
        f[p] += (dist(rng) - 0.7) * 0.05 * diag_mean;
    }

    EqQpNonnegOptions opts;
    opts.cg_tolerance = 1e-12;
    detail::reset_peak_matrix_allocation();
    const EqQpNonnegResult result =
        solve_eq_qp_nonneg_operator(h, f, e, d, opts);
    // 9900 free variables >> dense_kkt_limit: this must have gone
    // through the projected CG, and nothing close to a pairs x pairs
    // dense matrix may have been allocated along the way.
    EXPECT_GT(result.cg_iterations, 0u);
    EXPECT_LT(detail::peak_matrix_allocation_bytes(),
              pairs * pairs * sizeof(double) / 16);

    ASSERT_EQ(result.x.size(), pairs);
    double xmax = 0.0;
    for (double v : result.x) {
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GE(v, 0.0);
        xmax = std::max(xmax, v);
    }
    EXPECT_LT(result.equality_violation, 1e-8);

    // KKT residuals: within each source, (H x - f)_p must be a constant
    // -nu_r on the free fanouts and >= -nu_r (up to scale) on the
    // pinned ones.
    const Vector hx = h_times(result.x);
    double hmax = 0.0;
    for (std::size_t p = 0; p < pairs; ++p) {
        hmax = std::max(hmax, gdiag[p] + shift[p]);
    }
    const double tol = 1e-6 * std::max(1.0, hmax * std::max(1.0, xmax));
    std::vector<double> nu(nodes, 0.0);
    std::vector<bool> nu_set(nodes, false);
    for (std::size_t p = 0; p < pairs; ++p) {
        if (result.active[p]) continue;
        const double grad = hx[p] - f[p];
        const std::size_t src = source_of[p];
        if (!nu_set[src]) {
            nu[src] = -grad;
            nu_set[src] = true;
        } else {
            EXPECT_NEAR(grad, -nu[src], tol) << "pair " << p;
        }
    }
    for (std::size_t p = 0; p < pairs; ++p) {
        if (!result.active[p]) continue;
        EXPECT_GE(hx[p] - f[p] + nu[source_of[p]], -tol) << "pair " << p;
    }
}

}  // namespace
}  // namespace tme::linalg
