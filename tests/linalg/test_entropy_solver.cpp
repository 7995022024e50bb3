#include "linalg/entropy_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "core/gravity.hpp"
#include "linalg/matrix.hpp"
#include "scenario/scenario.hpp"

namespace tme::linalg {
namespace {

TEST(GeneralizedKl, ZeroAtPrior) {
    EXPECT_NEAR(generalized_kl({1.0, 2.0}, {1.0, 2.0}), 0.0, 1e-14);
}

TEST(GeneralizedKl, PositiveAwayFromPrior) {
    EXPECT_GT(generalized_kl({2.0, 1.0}, {1.0, 2.0}), 0.0);
}

TEST(GeneralizedKl, HandlesZeroEntries) {
    // s_i = 0 contributes p_i.
    EXPECT_NEAR(generalized_kl({0.0}, {1.5}), 1.5, 1e-14);
}

TEST(GeneralizedKl, RejectsNonpositivePrior) {
    EXPECT_THROW(generalized_kl({1.0}, {0.0}), std::invalid_argument);
}

TEST(EntropySolver, NoRegularizationSolvesLeastSquares) {
    // Full-rank consistent system: solution is exact regardless of prior.
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0, 0.0},
                                                     {0.0, 1.0},
                                                     {1.0, 1.0}});
    const Vector b{2.0, 3.0, 5.0};
    const Vector prior{1.0, 1.0};
    const EntropySolverResult r = kl_regularized_ls(a, b, prior, 0.0);
    EXPECT_NEAR(r.s[0], 2.0, 1e-4);
    EXPECT_NEAR(r.s[1], 3.0, 1e-4);
}

TEST(EntropySolver, InfiniteRegularizationSticksToPrior) {
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0, 1.0}});
    const Vector b{10.0};
    const Vector prior{1.0, 2.0};
    // w huge -> stay at the prior.
    const EntropySolverResult r = kl_regularized_ls(a, b, prior, 1e12);
    EXPECT_NEAR(r.s[0], prior[0], 1e-3);
    EXPECT_NEAR(r.s[1], prior[1], 1e-3);
}

TEST(EntropySolver, UnderdeterminedNoWorseThanKlProjection) {
    // One equation, two unknowns: x0 + x1 = 6; prior (1, 2).  The exact
    // KL projection onto the constraint scales the prior: (2, 4).  The
    // solver's objective must not exceed that candidate's.
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0, 1.0}});
    const Vector b{6.0};
    const Vector prior{1.0, 2.0};
    const double w = 1e-3;
    EntropySolverOptions options;
    options.max_iterations = 50000;
    options.tolerance = 1e-13;
    const EntropySolverResult r =
        kl_regularized_ls(a, b, prior, w, options);
    const Vector projection{2.0, 4.0};
    const auto objective = [&](const Vector& s) {
        const Vector resid = sub(a.multiply(s), b);
        return dot(resid, resid) + w * generalized_kl(s, prior);
    };
    EXPECT_NEAR(r.s[0] + r.s[1], 6.0, 1e-2);
    // First-order methods stop at a numerical stationary point; allow a
    // few percent of objective slack against the analytic candidate.
    EXPECT_LE(objective(r.s), 1.05 * objective(projection));
}

TEST(EntropySolver, RejectsNegativeWeight) {
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0}});
    EXPECT_THROW(kl_regularized_ls(a, {1.0}, {1.0}, -1.0),
                 std::invalid_argument);
}

TEST(EntropySolver, DimensionMismatchThrows) {
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0, 1.0}});
    EXPECT_THROW(kl_regularized_ls(a, {1.0, 2.0}, {1.0, 1.0}, 1.0),
                 std::invalid_argument);
}

TEST(EntropySolver, ZeroPriorEntriesAreFloored) {
    SparseMatrix a = SparseMatrix::from_dense(Matrix{{1.0, 1.0}});
    const Vector b{2.0};
    // A zero prior entry must not produce NaNs.
    const EntropySolverResult r = kl_regularized_ls(a, b, {0.0, 1.0}, 1.0);
    EXPECT_TRUE(all_finite(r.s));
    // Mass should concentrate on the pair the prior favours.
    EXPECT_GT(r.s[1], r.s[0]);
}

namespace reference {

/// The production solver's prior floor and initial Armijo step.
constexpr double kPriorFloor = 1e-12;
constexpr double kInitialStep = 1.0;

/// The pre-operator-rewrite solver, verbatim: per-iteration forward
/// re-multiply, allocating objective evaluation, log(s/p) recomputed
/// for every gradient.  Kept as the oracle for the rewrite's
/// bitwise-equivalence pins; it honours options.initial with the
/// production clamp.
double objective(const SparseMatrix& a, const Vector& b, const Vector& prior,
                 double w, const Vector& s) {
    const Vector r = sub(a.multiply(s), b);
    return dot(r, r) + (w > 0.0 ? w * generalized_kl(s, prior) : 0.0);
}

EntropySolverResult kl_regularized_ls(const SparseMatrix& a, const Vector& b,
                                      const Vector& prior, double w,
                                      const EntropySolverOptions& options) {
    const std::size_t n = a.cols();
    Vector p = prior;
    double pmean = 0.0;
    for (double v : p) pmean += std::max(v, 0.0);
    pmean = (pmean > 0.0 ? pmean / static_cast<double>(n) : 1.0);
    const double floor = kPriorFloor * pmean;
    for (double& v : p) v = std::max(v, floor);

    EntropySolverResult result;
    if (options.initial != nullptr) {
        result.s = *options.initial;
        for (double& v : result.s) {
            v = (std::isfinite(v) && v > floor) ? v : floor;
        }
    } else {
        result.s = p;
    }
    double bscale = nrm_inf(b);
    if (bscale == 0.0) bscale = 1.0;
    const double grad_scale = std::max(1.0, bscale * bscale);
    double f = objective(a, b, p, w, result.s);
    double eta = kInitialStep;
    for (result.iterations = 0; result.iterations < options.max_iterations;
         ++result.iterations) {
        const Vector resid = sub(a.multiply(result.s), b);
        Vector grad = a.multiply_transpose(resid);
        scale(2.0, grad);
        if (w > 0.0) {
            for (std::size_t i = 0; i < n; ++i) {
                grad[i] += w * std::log(result.s[i] / p[i]);
            }
        }
        double stat = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            stat = std::max(stat, std::abs(result.s[i] * grad[i]));
        }
        if (stat <= options.tolerance * grad_scale) {
            result.converged = true;
            break;
        }
        const double norm = std::max(stat, 1e-300);
        bool accepted = false;
        for (int bt = 0; bt < 60; ++bt) {
            Vector trial(n);
            const double step = eta / norm;
            for (std::size_t i = 0; i < n; ++i) {
                double ex = -step * result.s[i] * grad[i];
                ex = std::clamp(ex, -40.0, 40.0);
                trial[i] = result.s[i] * std::exp(ex);
            }
            const double ft = objective(a, b, p, w, trial);
            if (ft < f - 1e-12 * std::abs(f)) {
                result.s = std::move(trial);
                f = ft;
                accepted = true;
                eta = std::min(eta * 2.0, 1e6);
                break;
            }
            eta *= 0.5;
            if (eta < 1e-18) break;
        }
        if (!accepted) {
            result.converged = true;
            break;
        }
    }
    result.objective = f;
    return result;
}

}  // namespace reference

TEST(EntropySolver, OperatorRewriteMatchesReferenceBitwise) {
    // The buffer-reusing operator-form loop carries A s across accepted
    // steps instead of re-multiplying; every objective value, gradient,
    // and Armijo decision must be bit-for-bit the historical solver's.
    std::mt19937_64 rng(41);
    std::uniform_real_distribution<double> dist(0.2, 2.0);
    const std::size_t rows = 7;
    const std::size_t cols = 11;
    Matrix dense(rows, cols, 0.0);
    std::uniform_int_distribution<int> coin(0, 2);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            if (coin(rng) == 0) dense(i, j) = 1.0;
        }
    }
    const SparseMatrix a = SparseMatrix::from_dense(dense);
    Vector truth(cols);
    for (double& v : truth) v = dist(rng);
    const Vector b = a.multiply(truth);
    Vector prior(cols);
    for (double& v : prior) v = dist(rng);

    EntropySolverOptions options;
    options.max_iterations = 500;
    for (const double w : {0.0, 0.05, 2.0}) {
        const EntropySolverResult fast =
            kl_regularized_ls(a, b, prior, w, options);
        const EntropySolverResult ref =
            reference::kl_regularized_ls(a, b, prior, w, options);
        EXPECT_EQ(fast.iterations, ref.iterations) << "w=" << w;
        EXPECT_EQ(fast.converged, ref.converged) << "w=" << w;
        EXPECT_EQ(fast.objective, ref.objective) << "w=" << w;
        ASSERT_EQ(fast.s.size(), ref.s.size());
        for (std::size_t i = 0; i < cols; ++i) {
            EXPECT_EQ(fast.s[i], ref.s[i]) << "w=" << w << " i=" << i;
        }
    }
}

TEST(EntropySolver, WarmStartMatchesReferenceBitwiseAtPaperScale) {
    // The path a streaming window runs: the USA busy sample with its
    // gravity prior, seeded with the previous sample's solution.
    const scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::usa, 1);
    const std::size_t k = sc.busy_mid();
    const auto gravity_prior = [&](std::size_t sample) {
        core::SnapshotProblem problem;
        problem.topo = &sc.topo;
        problem.routing = &sc.routing;
        problem.loads = sc.loads[sample];
        return core::gravity_estimate(problem);
    };
    const double w = 1e-3;
    EntropySolverOptions cold;
    cold.max_iterations = 300;
    const Vector seed =
        kl_regularized_ls(sc.routing, sc.loads[k - 1], gravity_prior(k - 1),
                          w, cold)
            .s;
    EntropySolverOptions warm = cold;
    warm.initial = &seed;
    const Vector prior = gravity_prior(k);
    const EntropySolverResult fast =
        kl_regularized_ls(sc.routing, sc.loads[k], prior, w, warm);
    const EntropySolverResult ref = reference::kl_regularized_ls(
        sc.routing, sc.loads[k], prior, w, warm);
    EXPECT_GT(fast.iterations, 0u);  // the seed is not already optimal
    EXPECT_EQ(fast.iterations, ref.iterations);
    EXPECT_EQ(fast.converged, ref.converged);
    EXPECT_EQ(fast.objective, ref.objective);
    ASSERT_EQ(fast.s.size(), ref.s.size());
    for (std::size_t i = 0; i < fast.s.size(); ++i) {
        EXPECT_EQ(fast.s[i], ref.s[i]) << "i=" << i;
    }
}

TEST(EntropySolver, WarmInitialIterateReachesColdMinimizer) {
    // The rewrite must keep the warm-start contract: strictly convex
    // objective (w > 0), so an arbitrary positive initial iterate lands
    // on the cold minimizer.
    SparseMatrix a = SparseMatrix::from_dense(
        Matrix{{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}});
    const Vector b{3.0, 4.0};
    const Vector prior{1.0, 1.0, 1.0};
    EntropySolverOptions options;
    options.max_iterations = 50000;
    options.tolerance = 1e-12;
    const EntropySolverResult cold =
        kl_regularized_ls(a, b, prior, 0.3, options);
    const Vector seed{0.9, 1.7, 2.4};
    EntropySolverOptions warm = options;
    warm.initial = &seed;
    const EntropySolverResult hot =
        kl_regularized_ls(a, b, prior, 0.3, warm);
    for (std::size_t i = 0; i < cold.s.size(); ++i) {
        EXPECT_NEAR(hot.s[i], cold.s[i], 1e-5 * (1.0 + cold.s[i]));
    }
}

class EntropySolverProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EntropySolverProperty, ObjectiveNotWorseThanPrior) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(0.1, 2.0);
    const std::size_t m = 5;
    const std::size_t n = 9;
    Matrix dense(m, n, 0.0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (coin(rng) != 0) dense(i, j) = 1.0;
        }
    }
    SparseMatrix a = SparseMatrix::from_dense(dense);
    Vector truth(n);
    for (double& v : truth) v = dist(rng);
    const Vector b = a.multiply(truth);
    Vector prior(n);
    for (double& v : prior) v = dist(rng);

    const double w = 0.1;
    const EntropySolverResult r = kl_regularized_ls(a, b, prior, w);

    auto objective = [&](const Vector& s) {
        const Vector resid = sub(a.multiply(s), b);
        return dot(resid, resid) + w * generalized_kl(s, prior);
    };
    EXPECT_LE(r.objective, objective(prior) + 1e-9);
    EXPECT_NEAR(r.objective, objective(r.s), 1e-9);
    for (double v : r.s) EXPECT_GT(v, 0.0);  // multiplicative iterates
}

TEST_P(EntropySolverProperty, GradientStationarityAtSolution) {
    std::mt19937_64 rng(GetParam() + 99);
    std::uniform_real_distribution<double> dist(0.2, 1.5);
    SparseMatrix a = SparseMatrix::from_dense(
        Matrix{{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}});
    Vector truth{dist(rng), dist(rng), dist(rng)};
    const Vector b = a.multiply(truth);
    Vector prior{dist(rng), dist(rng), dist(rng)};
    const double w = 0.5;
    EntropySolverOptions options;
    options.max_iterations = 20000;
    options.tolerance = 1e-12;
    const EntropySolverResult r =
        kl_regularized_ls(a, b, prior, w, options);
    // grad = 2A'(As-b) + w log(s/p); complementarity |s .* grad| ~ 0.
    Vector grad = a.multiply_transpose(sub(a.multiply(r.s), b));
    scale(2.0, grad);
    for (std::size_t i = 0; i < 3; ++i) {
        grad[i] += w * std::log(r.s[i] / prior[i]);
        EXPECT_NEAR(r.s[i] * grad[i], 0.0, 1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropySolverProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace tme::linalg
