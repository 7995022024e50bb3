#include "core/kruithof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "linalg/entropy_solver.hpp"
#include "routing/routing_matrix.hpp"
#include "test_helpers.hpp"
#include "topology/builders.hpp"
#include "traffic/traffic_matrix.hpp"

namespace tme::core {
namespace {

using testing::SmallNetwork;
using testing::tiny_network;

TEST(KruithofIpf, MatchesMarginalsExactly) {
    const std::size_t n = 4;
    linalg::Vector prior(n * (n - 1), 1.0);
    const linalg::Vector rows{4.0, 3.0, 2.0, 1.0};
    const linalg::Vector cols{1.0, 2.0, 3.0, 4.0};
    const KruithofResult r = kruithof_ipf(n, prior, rows, cols);
    EXPECT_TRUE(r.converged);
    traffic::TrafficMatrix tm(n, r.s);
    const linalg::Vector rt = tm.row_totals();
    const linalg::Vector ct = tm.col_totals();
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(rt[i], rows[i], 1e-8);
        EXPECT_NEAR(ct[i], cols[i], 1e-8);
    }
}

TEST(KruithofIpf, FixedPointWhenPriorAlreadyConsistent) {
    const std::size_t n = 3;
    linalg::Vector prior(n * (n - 1), 2.0);
    traffic::TrafficMatrix tm(n, prior);
    const KruithofResult r =
        kruithof_ipf(n, prior, tm.row_totals(), tm.col_totals());
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2u);
    for (std::size_t p = 0; p < prior.size(); ++p) {
        EXPECT_NEAR(r.s[p], prior[p], 1e-9);
    }
}

TEST(KruithofIpf, RejectsDisagreeingTotals) {
    linalg::Vector prior(6, 1.0);
    EXPECT_THROW(
        kruithof_ipf(3, prior, {1.0, 1.0, 1.0}, {5.0, 5.0, 5.0}),
        std::invalid_argument);
}

TEST(KruithofIpf, PreservesPriorZeros) {
    // Multiplicative scaling can never resurrect a zero prior entry.
    const std::size_t n = 3;
    linalg::Vector prior(n * (n - 1), 1.0);
    prior[0] = 0.0;  // demand 0->1
    traffic::TrafficMatrix seed_tm(n, linalg::Vector(n * (n - 1), 1.0));
    const KruithofResult r = kruithof_ipf(
        n, prior, seed_tm.row_totals(), seed_tm.col_totals());
    EXPECT_DOUBLE_EQ(r.s[0], 0.0);
}

TEST(KruithofGeneral, SolvesConsistentSystem) {
    const SmallNetwork net = tiny_network();
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    KruithofOptions options;
    options.max_iterations = 3000;
    options.tolerance = 1e-9;
    const KruithofResult r = kruithof_general(snap, prior, options);
    EXPECT_TRUE(r.converged) << "violation " << r.max_violation;
    const linalg::Vector pred = net.routing.multiply(r.s);
    for (std::size_t l = 0; l < pred.size(); ++l) {
        EXPECT_NEAR(pred[l], snap.loads[l],
                    1e-6 * (1.0 + snap.loads[l]));
    }
}

TEST(KruithofGeneral, MinimizesKlAmongFeasible) {
    // Krupp's theorem: the iteration converges to the KL-closest
    // feasible point.  Compare against the entropy solver with tiny
    // data weight... instead compare KL divergence against a few other
    // feasible points: the truth itself must not beat it by KL.
    const SmallNetwork net = tiny_network(3);
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    KruithofOptions options;
    options.max_iterations = 5000;
    const KruithofResult r = kruithof_general(snap, prior, options);
    ASSERT_TRUE(r.converged);
    EXPECT_LE(linalg::generalized_kl(r.s, prior),
              linalg::generalized_kl(net.truth, prior) + 1e-6);
}

TEST(KruithofGeneral, ZeroLoadZerosDemands) {
    const SmallNetwork net = tiny_network();
    SnapshotProblem snap = net.snapshot();
    // Zero out one ingress link: all demands from that PoP must go to 0.
    const std::size_t link = net.topo.ingress_link(0);
    snap.loads[link] = 0.0;
    linalg::Vector prior(net.truth.size(), 1.0);
    const KruithofResult r = kruithof_general(snap, prior);
    for (std::size_t m = 1; m < net.topo.pop_count(); ++m) {
        EXPECT_DOUBLE_EQ(r.s[net.topo.pair_index(0, m)], 0.0);
    }
}

TEST(KruithofIpf, MatchesDenseReferenceBitwise) {
    // The flat skip-diagonal rewrite must reproduce the historical
    // TrafficMatrix-based sweep bit-for-bit: same totals in the same
    // summation order, same scaling products.
    const std::size_t n = 6;
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> dist(0.2, 3.0);
    linalg::Vector prior(n * (n - 1));
    for (double& v : prior) v = dist(rng);
    traffic::TrafficMatrix target(n, prior);
    linalg::Vector rows = target.row_totals();
    linalg::Vector cols = target.col_totals();
    // Perturb the prior so the iteration actually has work to do.
    for (double& v : prior) v *= dist(rng);

    KruithofOptions options;
    options.max_iterations = 200;
    const KruithofResult fast =
        kruithof_ipf(n, prior, rows, cols, options);

    // Reference: the pre-rewrite implementation, verbatim.
    traffic::TrafficMatrix tm(n, prior);
    KruithofResult ref;
    for (ref.iterations = 0; ref.iterations < options.max_iterations;
         ++ref.iterations) {
        linalg::Vector rt = tm.row_totals();
        for (std::size_t i = 0; i < n; ++i) {
            if (rt[i] <= 0.0) continue;
            const double f = rows[i] / rt[i];
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j) tm.set(i, j, tm(i, j) * f);
            }
        }
        linalg::Vector ct = tm.col_totals();
        for (std::size_t j = 0; j < n; ++j) {
            if (ct[j] <= 0.0) continue;
            const double f = cols[j] / ct[j];
            for (std::size_t i = 0; i < n; ++i) {
                if (i != j) tm.set(i, j, tm(i, j) * f);
            }
        }
        rt = tm.row_totals();
        ct = tm.col_totals();
        double viol = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (rows[i] > 0.0) {
                viol = std::max(viol,
                                std::abs(rt[i] - rows[i]) / rows[i]);
            }
            if (cols[i] > 0.0) {
                viol = std::max(viol,
                                std::abs(ct[i] - cols[i]) / cols[i]);
            }
        }
        ref.max_violation = viol;
        if (viol <= options.tolerance) {
            ref.converged = true;
            break;
        }
    }
    ref.s = tm.to_pair_vector();

    EXPECT_EQ(fast.converged, ref.converged);
    EXPECT_EQ(fast.iterations, ref.iterations);
    EXPECT_EQ(fast.max_violation, ref.max_violation);
    ASSERT_EQ(fast.s.size(), ref.s.size());
    for (std::size_t p = 0; p < ref.s.size(); ++p) {
        EXPECT_EQ(fast.s[p], ref.s[p]) << "pair " << p;
    }
}

TEST(KruithofIpf, CheckCadenceReachesSameFixedPoint) {
    const std::size_t n = 5;
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    linalg::Vector prior(n * (n - 1));
    for (double& v : prior) v = dist(rng);
    traffic::TrafficMatrix target(n, prior);
    const linalg::Vector rows = target.row_totals();
    const linalg::Vector cols = target.col_totals();
    for (double& v : prior) v *= dist(rng);

    const KruithofResult every = kruithof_ipf(n, prior, rows, cols);
    KruithofOptions sparse_checks;
    sparse_checks.check_every = 7;
    const KruithofResult cadenced =
        kruithof_ipf(n, prior, rows, cols, sparse_checks);
    ASSERT_TRUE(every.converged);
    ASSERT_TRUE(cadenced.converged);
    // The cadenced run may do a few extra sweeps past the tolerance;
    // both land on the (unique) biproportional fit.
    for (std::size_t p = 0; p < every.s.size(); ++p) {
        EXPECT_NEAR(cadenced.s[p], every.s[p],
                    1e-9 * (1.0 + every.s[p]));
    }
    EXPECT_GE(cadenced.iterations, every.iterations);
}

TEST(KruithofGeneral, CheckCadenceReachesSameSolution) {
    const SmallNetwork net = tiny_network(5);
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    KruithofOptions base;
    base.max_iterations = 3000;
    base.tolerance = 1e-9;
    const KruithofResult every = kruithof_general(snap, prior, base);
    KruithofOptions cadenced_options = base;
    cadenced_options.check_every = 10;
    const KruithofResult cadenced =
        kruithof_general(snap, prior, cadenced_options);
    ASSERT_TRUE(every.converged);
    ASSERT_TRUE(cadenced.converged);
    for (std::size_t p = 0; p < every.s.size(); ++p) {
        EXPECT_NEAR(cadenced.s[p], every.s[p],
                    1e-7 * (1.0 + every.s[p]));
    }
}

TEST(KruithofGeneral, FractionalRoutingTakesPowPath) {
    // ECMP-style fractional routing entries exercise the pow branch of
    // the MART update (the 0/1 fast path must not change semantics for
    // general non-negative matrices).
    const std::size_t links = 4;
    const std::size_t pairs = 3;
    std::vector<linalg::Triplet> trips = {
        {0, 0, 0.5}, {1, 0, 0.5}, {0, 1, 1.0}, {2, 1, 0.5},
        {2, 2, 1.0}, {3, 2, 0.5},
    };
    const linalg::SparseMatrix r(links, pairs, std::move(trips));
    const linalg::Vector truth{2.0, 1.0, 3.0};
    SnapshotProblem snap;
    snap.routing = &r;
    snap.loads = r.multiply(truth);
    linalg::Vector prior(pairs, 1.0);
    KruithofOptions options;
    options.max_iterations = 5000;
    options.tolerance = 1e-10;
    const KruithofResult result = kruithof_general(snap, prior, options);
    EXPECT_TRUE(result.converged) << result.max_violation;
    const linalg::Vector pred = r.multiply(result.s);
    for (std::size_t l = 0; l < links; ++l) {
        EXPECT_NEAR(pred[l], snap.loads[l], 1e-7 * (1.0 + snap.loads[l]));
    }
}

/// The MART loop as it was before the fused O(nnz) rewrite: per-row
/// prediction re-scan, an unconditional std::pow per nonzero, and a
/// full R s re-multiply per sweep for the convergence check.
KruithofResult kruithof_general_reference(const SnapshotProblem& problem,
                                          const linalg::Vector& prior,
                                          const KruithofOptions& options) {
    const linalg::SparseMatrix& r = *problem.routing;
    const linalg::Vector& t = problem.loads;
    double tmax = linalg::nrm_inf(t);
    if (tmax == 0.0) tmax = 1.0;

    KruithofResult result;
    result.s = prior;
    const double pmean =
        linalg::sum(result.s) / static_cast<double>(result.s.size());
    for (double& v : result.s) v = std::max(v, 1e-12 * pmean);

    const auto& offsets = r.row_offsets();
    const auto& cols = r.column_indices();
    const auto& vals = r.values();
    for (result.iterations = 0; result.iterations < options.max_iterations;
         ++result.iterations) {
        for (std::size_t l = 0; l < r.rows(); ++l) {
            double pred = 0.0;
            for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                pred += vals[k] * result.s[cols[k]];
            }
            if (pred <= 0.0) continue;
            if (t[l] <= 0.0) {
                for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                    result.s[cols[k]] = 0.0;
                }
                continue;
            }
            const double ratio = t[l] / pred;
            for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                result.s[cols[k]] *= std::pow(ratio, vals[k]);
            }
        }
        const linalg::Vector pred = r.multiply(result.s);
        double viol = 0.0;
        for (std::size_t l = 0; l < t.size(); ++l) {
            viol = std::max(viol, std::abs(pred[l] - t[l]) / tmax);
        }
        result.max_violation = viol;
        if (viol <= options.tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

TEST(KruithofGeneral, MatchesPreRewriteLoopOnGeneratedBackbone) {
    // 25-PoP generated backbone (600 pairs), consistent gravity-form
    // loads with jitter, flat prior at the truth's scale, a fixed sweep
    // count: the fused loop must stay within 1e-9 (relative) of the
    // pre-rewrite one.
    const topology::Topology topo = topology::generated_backbone(25, 4.0, 1);
    const linalg::SparseMatrix r = routing::igp_routing_matrix(topo);
    std::mt19937_64 rng(33);
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    linalg::Vector truth(topo.pair_count());
    for (std::size_t p = 0; p < truth.size(); ++p) {
        const auto [src, dst] = topo.pair_nodes(p);
        truth[p] = topo.pop(src).weight * topo.pop(dst).weight * jitter(rng);
    }
    SnapshotProblem snap;
    snap.topo = &topo;
    snap.routing = &r;
    snap.loads = r.multiply(truth);
    const linalg::Vector prior(
        truth.size(), linalg::sum(truth) / static_cast<double>(truth.size()));
    KruithofOptions options;
    options.max_iterations = 40;
    options.tolerance = 0.0;

    const KruithofResult fast = kruithof_general(snap, prior, options);
    const KruithofResult ref =
        kruithof_general_reference(snap, prior, options);
    ASSERT_EQ(fast.s.size(), ref.s.size());
    double scale = 1.0;
    for (double v : ref.s) scale = std::max(scale, v);
    for (std::size_t p = 0; p < ref.s.size(); ++p) {
        EXPECT_LE(std::abs(fast.s[p] - ref.s[p]), 1e-9 * scale) << "pair " << p;
    }
}

TEST(KruithofGeneral, RejectsBadPrior) {
    const SmallNetwork net = tiny_network();
    EXPECT_THROW(
        kruithof_general(net.snapshot(), linalg::Vector(3, 1.0)),
        std::invalid_argument);
    EXPECT_THROW(
        kruithof_general(net.snapshot(),
                         linalg::Vector(net.truth.size(), 0.0)),
        std::invalid_argument);
}

}  // namespace
}  // namespace tme::core
