// Solver-kernel perf bench and regression gate: the sparse-aware /
// blocked numerical stack at generated-backbone scale.
//
// Phases, each of which FAILS the bench (non-zero exit) when a gate is
// missed:
//
//  1. Dense kernels.  The blocked Cholesky must match the unblocked
//     factor to 1e-12 (relative) and beat it by >= 1.5x at n >= 1000.
//
//  2. Scaling (generated backbones, 25 -> 100 -> 200 PoPs).  Sparse
//     routing-matrix products vs their densified counterparts, and the
//     dense-output sparse Gram accumulation, which must agree with
//     densify-then-gram exactly up to 100 PoPs (at 200 PoPs the dense
//     P x P Gram would be ~12.7 GB, and nothing builds one).
//
//  3. (retired: the paper-scale Gram exactness check is a unit test in
//     tests/core/test_estimator_oracles.cpp, next to the estimators'
//     dense-oracle gates.)
//
//  4. Projection hot paths, timed: Kruithof MART at 100 PoPs, the flat
//     IPF at 100 nodes, and the operator-form entropy loop, which must
//     finish a 9900-pair window inside a wall-clock budget.  Their
//     equality to the pre-rewrite loops is pinned in tests/
//     (test_kruithof.cpp, test_entropy_solver.cpp).
//
//  5. 200-PoP generated backbone.  Gravity, Kruithof, entropy,
//     Bayesian and fanout (operator QPs) all complete a window, and the
//     peak dense Matrix allocation stays orders of magnitude below the
//     12.7 GB pairs^2 Hessian/Gram.  Vardi joins through its Gram-free
//     NNLS — its dense transformed Gram would be those same 12.7 GB —
//     and a warm start from the cold solution must verify and return
//     the same estimate to 1e-9.  Hessian-apply kernel rows and the
//     fanout-only engine window run serial, inline and pooled, with
//     pooled == serial gated bitwise.
//
//  6. Contract-layer cost.
//
//  7. 500-PoP Gram-free window.  Gravity, Kruithof, entropy, Bayesian
//     and fanout complete a window at 249500 pairs with no pairs x pairs
//     structure ever materialized (peak dense Matrix allocation
//     < 10 MB), and the engine's default schedule finishes a full
//     window off the epoch's shared routing transpose.  The fanout
//     Hessian apply is timed inline and pooled beside them.
//
// Results land in BENCH_solvers.json next to BENCH_engine.json so the
// perf trajectory stays machine-readable across PRs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "check/contract.hpp"
#include "core/bayesian.hpp"
#include "core/entropy.hpp"
#include "core/fanout.hpp"
#include "core/gravity.hpp"
#include "core/kruithof.hpp"
#include "core/vardi.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_cache.hpp"
#include "engine/method.hpp"
#include "engine/thread_pool.hpp"
#include "linalg/blocked_spmv.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr_kernels.hpp"
#include "linalg/entropy_solver.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"
#include "linalg/sparse.hpp"
#include "obs/report.hpp"
#include "routing/routing_matrix.hpp"
#include "topology/builders.hpp"
#include "traffic/traffic_matrix.hpp"

namespace {

using namespace tme;
using Clock = std::chrono::steady_clock;

bool g_ok = true;

template <typename... Args>
void fail(const char* fmt, Args... args) {
    std::printf("FAIL: ");
    std::printf(fmt, args...);
    std::printf("\n");
    g_ok = false;
}

/// Best-of-`reps` wall time of `fn` in seconds.
template <typename Fn>
double time_best(std::size_t reps, Fn&& fn) {
    double best = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        best = std::min(best, s);
    }
    return best;
}

/// Mean wall time per call of `fn` over `calls` calls (one untimed
/// warm-up call first).
template <typename Fn>
double seconds_per_call(std::size_t calls, Fn&& fn) {
    fn();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    return std::chrono::duration<double>(Clock::now() - t0).count() /
           static_cast<double>(calls);
}

/// Kernel-region helpers: pool workers that, with the calling thread,
/// fill every hardware thread.
std::size_t pool_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

/// Pool workers help regions only while a solve scope is open (the
/// CG-regime operator QPs open their own).  Call inside a scope right
/// before a timed kernel loop: a batch of short busy tasks spreads the
/// workers over CPUs, after which they spin, ready for its regions.
void warm_pool(engine::ThreadPool& pool) {
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {
        const Clock::time_point end =
            Clock::now() + std::chrono::milliseconds(20);
        while (Clock::now() < end) {
        }
    });
    pool.run_batch(std::move(tasks));
}

/// The fanout QP's apply weights over a window of link loads:
/// source_of[p] = src(p) and weights[n * window + k] = te_k(n), the
/// per-source totals RoutingOperator::weighted_normal reads.
struct FanoutApplyWeights {
    std::vector<std::size_t> source_of;
    std::vector<double> weights;
};

FanoutApplyWeights fanout_apply_weights(
    const topology::Topology& topo, const std::vector<linalg::Vector>& loads) {
    const std::size_t window = loads.size();
    FanoutApplyWeights out;
    out.source_of.resize(topo.pair_count());
    for (std::size_t p = 0; p < topo.pair_count(); ++p) {
        out.source_of[p] = topo.pair_nodes(p).first;
    }
    out.weights.resize(topo.pop_count() * window);
    for (std::size_t n = 0; n < topo.pop_count(); ++n) {
        for (std::size_t k = 0; k < window; ++k) {
            out.weights[n * window + k] = loads[k][topo.ingress_link(n)];
        }
    }
    return out;
}

/// One full window through the engine: its result, wall time, and the
/// kernel blocks pool helpers ran inside it.
struct TimedWindow {
    engine::WindowResult result;
    double seconds = 0.0;
    std::size_t helper_blocks = 0;
};

/// Feeds all but the last sample of `loads` into `eng` (its
/// min_series_window is the window size, so no series method solves
/// yet), then times the ingest of the last sample.
TimedWindow ingest_timed_window(engine::OnlineEngine& eng,
                                const std::vector<linalg::Vector>& loads) {
    const std::size_t last = loads.size() - 1;
    for (std::size_t k = 0; k < last; ++k) eng.ingest(k, loads[k]);
    TimedWindow out;
    const std::size_t blocks_before = eng.metrics().kernel_helper_blocks;
    out.seconds =
        time_best(1, [&] { out.result = eng.ingest(last, loads[last]); });
    out.helper_blocks = eng.metrics().kernel_helper_blocks - blocks_before;
    return out;
}

double vec_max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
    double worst = a.size() == b.size() ? 0.0 : 1e300;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    return worst;
}

bool vec_bitwise(const linalg::Vector& a, const linalg::Vector& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return false;
    }
    return true;
}

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             unsigned seed) {
    linalg::Matrix m(rows, cols);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
    }
    return m;
}

linalg::Matrix random_spd(std::size_t n, unsigned seed) {
    const linalg::Matrix b = random_matrix(n, n, seed);
    linalg::Matrix a = linalg::gram(b);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) += static_cast<double>(n);
    }
    return a;
}

struct CholeskyPoint {
    std::size_t n = 0;
    double unblocked_seconds = 0.0;
    double blocked_seconds = 0.0;
    double speedup = 0.0;
    double max_factor_diff = 0.0;
};

struct ScalePoint {
    std::size_t pops = 0;
    std::size_t links = 0;
    std::size_t pairs = 0;
    std::size_t nonzeros = 0;
    double routing_build_seconds = 0.0;
    double gemv_dense_seconds = 0.0;
    double gemv_sparse_seconds = 0.0;
    double gemv_t_dense_seconds = 0.0;
    double gemv_t_sparse_seconds = 0.0;
    double gram_dense_seconds = 0.0;   // densify + dense gram
    double gram_sparse_seconds = 0.0;  // sparse accumulate, dense out
    bool gram_measured = false;
    bool gram_exact = false;
};

/// Synthetic consistent demands on a generated backbone: gravity-form
/// positive demands with deterministic jitter.
linalg::Vector synthetic_demands(const topology::Topology& topo,
                                 unsigned seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    linalg::Vector s(topo.pair_count());
    for (std::size_t p = 0; p < s.size(); ++p) {
        const auto [src, dst] = topo.pair_nodes(p);
        s[p] = topo.pop(src).weight * topo.pop(dst).weight * jitter(rng);
    }
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_solvers.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::printf("usage: %s [--json PATH]\n", argv[0]);
            return 2;
        }
    }

    bench::header(
        "Solver kernels: sparse-aware / blocked paths at backbone scale",
        "engineering bench (no paper figure); ROADMAP stress-scaling item",
        "identical numerics, large constant-factor wins at generated "
        "backbone scale");

    // ---- Phase 1: dense kernels -------------------------------------
    std::printf("\n[1] dense kernels\n");
    // Three gated sizes above 1000 with best-of-3 timings: the gate
    // takes the best speedup across them, so a single noisy
    // measurement on a shared runner cannot flip the verdict.  (Sizes
    // whose row stride is a multiple of 4 KB — 1024, 1536 — alias L1
    // cache sets and run measurably worse in both kernels; 1280 and
    // 1448 are the representative non-pathological points.)
    std::vector<CholeskyPoint> chol_points;
    double chol_gate_speedup = 0.0;
    for (const std::size_t n : {512ul, 1024ul, 1280ul, 1448ul}) {
        const linalg::Matrix spd = random_spd(n, 21 + (unsigned)n);
        CholeskyPoint pt;
        pt.n = n;
        linalg::Matrix lu_ref;
        linalg::Matrix lb;
        pt.unblocked_seconds = time_best(
            3, [&] { lu_ref = linalg::cholesky_factor_unblocked(spd); });
        pt.blocked_seconds = time_best(
            3, [&] { lb = linalg::cholesky_factor_blocked(spd); });
        pt.speedup = pt.blocked_seconds > 0.0
                         ? pt.unblocked_seconds / pt.blocked_seconds
                         : 0.0;
        pt.max_factor_diff = linalg::max_abs_diff(lu_ref, lb);
        const double scale = std::max(1.0, lu_ref.max_abs());
        std::printf("  cholesky n=%4zu: unblocked %.3fs -> blocked %.3fs "
                    "(%.2fx, max |dL| %.3g)\n",
                    n, pt.unblocked_seconds, pt.blocked_seconds, pt.speedup,
                    pt.max_factor_diff);
        if (pt.max_factor_diff > 1e-12 * scale) {
            fail("blocked Cholesky deviates from unblocked "
                 "(%.3g > 1e-12 * %.3g)",
                 pt.max_factor_diff, scale);
        }
        if (n >= 1000) {
            chol_gate_speedup = std::max(chol_gate_speedup, pt.speedup);
        }
        chol_points.push_back(pt);
    }
    if (chol_gate_speedup < 1.5) {
        fail("blocked Cholesky below the 1.5x gate at n >= 1000 "
             "(best %.2fx)",
             chol_gate_speedup);
    }

    // ---- Phase 2: generated-backbone scaling ------------------------
    std::printf("\n[2] scaling on generated backbones (degree 4, seed 1)\n");
    std::vector<ScalePoint> scale_points;
    for (const std::size_t pops : {25ul, 100ul, 200ul}) {
        ScalePoint pt;
        pt.pops = pops;
        topology::Topology topo;
        linalg::SparseMatrix r;
        pt.routing_build_seconds = time_best(1, [&] {
            topo = topology::generated_backbone(pops, 4.0, 1);
            r = routing::igp_routing_matrix(topo);
        });
        pt.links = topo.link_count();
        pt.pairs = topo.pair_count();
        pt.nonzeros = r.nonzeros();

        const linalg::Matrix dense = r.to_dense();
        linalg::Vector x(pt.pairs);
        linalg::Vector t(pt.links);
        std::mt19937_64 rng(5);
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        for (double& v : x) v = dist(rng);
        for (double& v : t) v = dist(rng);

        linalg::Vector sink;
        pt.gemv_dense_seconds =
            time_best(3, [&] { sink = linalg::gemv(dense, x); });
        pt.gemv_sparse_seconds =
            time_best(3, [&] { sink = r.multiply(x); });
        pt.gemv_t_dense_seconds =
            time_best(3, [&] { sink = linalg::gemv_transpose(dense, t); });
        pt.gemv_t_sparse_seconds =
            time_best(3, [&] { sink = r.multiply_transpose(t); });
        std::printf("  pops=%3zu links=%4zu pairs=%5zu nnz=%6zu  "
                    "gemv %7.1fx  gemv' %7.1fx",
                    pops, pt.links, pt.pairs, pt.nonzeros,
                    pt.gemv_dense_seconds /
                        std::max(1e-12, pt.gemv_sparse_seconds),
                    pt.gemv_t_dense_seconds /
                        std::max(1e-12, pt.gemv_t_sparse_seconds));

        // The Gram comparison needs the dense P x P output twice; at
        // 200 PoPs that output alone is ~12.7 GB, so the comparison is
        // capped at 100 PoPs (not silently — no pairs x pairs Gram
        // exists beyond it; the estimators generate Gram columns on
        // demand instead).
        if (pops <= 100) {
            // At 100 PoPs both are floored by materializing the P x P
            // result (page faults + ~0.8 GB of writes).
            linalg::Matrix gs;
            linalg::Matrix gd;
            pt.gram_sparse_seconds =
                time_best(2, [&] { gs = linalg::gram_sparse(r); });
            pt.gram_dense_seconds = time_best(
                1, [&] { gd = linalg::gram(r.to_dense()); });
            pt.gram_measured = true;
            pt.gram_exact = gs == gd;
            std::printf("  gram: densify + dense %.3fs, sparse dense-out "
                        "%.3fs (exact=%s)\n",
                        pt.gram_dense_seconds, pt.gram_sparse_seconds,
                        pt.gram_exact ? "yes" : "NO");
            if (!pt.gram_exact) {
                fail("sparse Gram differs from densify+gram at %zu PoPs "
                     "(max diff %.3g)",
                     pops, linalg::max_abs_diff(gs, gd));
            }
        } else {
            std::printf("  gram: dense output impossible (%zux%zu ~%.1f "
                        "GB)\n",
                        pt.pairs, pt.pairs,
                        static_cast<double>(pt.pairs) *
                            static_cast<double>(pt.pairs) * 8.0 / 1e9);
        }
        scale_points.push_back(pt);
    }

    // ---- Phase 4: projection hot paths -------------------------------
    // The matrix-free rewrites, timed: flat/incremental Kruithof and the
    // operator-form entropy loop (equality to the pre-rewrite loops is
    // pinned in tests/).
    std::printf("\n[4] projection hot paths\n");
    double kruithof_fast_seconds = 0.0;
    double ipf_fast_seconds = 0.0;
    double entropy_window_seconds = 0.0;
    const double entropy_budget_seconds = 20.0;
    {
        // Kruithof/MART at 100 PoPs (9900 pairs), consistent loads.
        const topology::Topology topo =
            topology::generated_backbone(100, 4.0, 1);
        const linalg::SparseMatrix r = routing::igp_routing_matrix(topo);
        const linalg::Vector truth = synthetic_demands(topo, 33);
        core::SnapshotProblem snap;
        snap.topo = &topo;
        snap.routing = &r;
        snap.loads = r.multiply(truth);
        double pm = 0.0;
        for (double v : truth) pm += v;
        pm /= static_cast<double>(truth.size());
        const linalg::Vector prior(r.cols(), pm);  // flat, truth scale
        core::KruithofOptions kopt;
        kopt.max_iterations = 40;
        kopt.tolerance = 0.0;  // fixed sweep count
        kruithof_fast_seconds = time_best(2, [&] {
            (void)core::kruithof_general(snap, prior, kopt);
        });
        std::printf("  kruithof MART 100 PoPs (40 sweeps): %.3fs\n",
                    kruithof_fast_seconds);

        // Classic IPF at 100 nodes.
        const std::size_t nodes = 100;
        std::mt19937_64 rng(9);
        std::uniform_real_distribution<double> dist(0.5, 2.0);
        linalg::Vector ipf_prior(nodes * (nodes - 1));
        for (double& v : ipf_prior) v = dist(rng);
        const traffic::TrafficMatrix target(nodes, ipf_prior);
        const linalg::Vector rows = target.row_totals();
        const linalg::Vector cols = target.col_totals();
        for (double& v : ipf_prior) v *= dist(rng);
        core::KruithofOptions ipf_opt;
        ipf_opt.max_iterations = 50;
        ipf_opt.tolerance = 0.0;
        ipf_fast_seconds = time_best(2, [&] {
            (void)core::kruithof_ipf(nodes, ipf_prior, rows, cols, ipf_opt);
        });
        std::printf("  kruithof IPF 100 nodes (50 sweeps): %.3fs\n",
                    ipf_fast_seconds);

        // Entropy window at 9900 pairs under a wall-clock budget.
        const linalg::Vector gravity_prior = core::gravity_estimate(snap);
        linalg::EntropySolverOptions eopt;
        eopt.max_iterations = 120;
        entropy_window_seconds = time_best(1, [&] {
            (void)linalg::kl_regularized_ls(r, snap.loads, gravity_prior,
                                            1e-3, eopt);
        });
        std::printf("  entropy 9900 pairs (120 iters): %.3fs (budget "
                    "%.0fs)\n",
                    entropy_window_seconds, entropy_budget_seconds);
        if (entropy_window_seconds > entropy_budget_seconds) {
            fail("entropy window exceeds the %.0fs budget at 9900 pairs "
                 "(%.2fs)",
                 entropy_budget_seconds, entropy_window_seconds);
        }
    }

    // ---- Phase 5: 200-PoP window, no dense pairs x pairs anywhere ----
    std::printf("\n[5] 200-PoP generated backbone (39800 pairs)\n");
    double p200_gravity_seconds = 0.0;
    double p200_kruithof_seconds = 0.0;
    double p200_entropy_seconds = 0.0;
    double p200_bayesian_seconds = 0.0;
    double p200_fanout_seconds = 0.0;
    double p200_vardi_seconds = 0.0;
    double p200_vardi_warm_rel_diff = 0.0;
    // Kernel regions (linalg/blocked_spmv.hpp): seconds per Hessian
    // apply — the pre-blocking serial calls, the blocked kernel inline,
    // and the blocked kernel on a pool.
    const std::size_t p200_pool_threads = pool_workers() + 1;
    double p200_fanout_apply_serial_seconds = 0.0;
    double p200_fanout_apply_inline_seconds = 0.0;
    double p200_fanout_apply_pooled_seconds = 0.0;
    double p200_bayesian_apply_serial_seconds = 0.0;
    double p200_bayesian_apply_inline_seconds = 0.0;
    double p200_bayesian_apply_pooled_seconds = 0.0;
    // The fanout-only window through the engine, inline and on a pool
    // of every hardware thread: the one solve's helpers come only from
    // its solve scope.  pooled == serial bitwise is gated.
    double p200_fanout_window_serial_seconds = 0.0;
    double p200_fanout_window_pooled_seconds = 0.0;
    std::size_t p200_fanout_window_helper_blocks = 0;
    std::size_t p200_peak_alloc_bytes = 0;
    std::size_t p200_total_alloc_bytes = 0;
    bool p200_ok = true;
    {
        const topology::Topology topo =
            topology::generated_backbone(200, 4.0, 1);
        const linalg::SparseMatrix r = routing::igp_routing_matrix(topo);
        const std::size_t pairs = r.cols();
        const linalg::Vector truth = synthetic_demands(topo, 77);
        core::SnapshotProblem snap;
        snap.topo = &topo;
        snap.routing = &r;
        snap.loads = r.multiply(truth);

        // Constant-fanout window for the fanout method.
        const std::size_t window = 4;
        const linalg::Vector alpha = traffic::fanouts_from_demands(
            topo.pop_count(), truth);
        std::mt19937_64 rng(5);
        std::uniform_real_distribution<double> dist(0.5, 2.0);
        core::SeriesProblem series;
        series.topo = &topo;
        series.routing = &r;
        const linalg::Vector totals0 =
            traffic::node_totals_from_demands(topo.pop_count(), truth);
        for (std::size_t k = 0; k < window; ++k) {
            linalg::Vector totals = totals0;
            for (double& v : totals) v *= dist(rng);
            series.loads.push_back(r.multiply(
                traffic::demands_from_fanouts(topo.pop_count(), alpha,
                                              totals)));
        }

        linalg::detail::reset_peak_matrix_allocation();
        linalg::detail::reset_total_matrix_allocation();
        const auto check_estimate = [&](const char* name,
                                        const linalg::Vector& est) {
            if (est.size() != pairs) {
                fail("200-PoP %s estimate has wrong size", name);
                p200_ok = false;
                return;
            }
            for (double v : est) {
                if (!std::isfinite(v) || v < 0.0) {
                    fail("200-PoP %s estimate not finite/nonnegative",
                         name);
                    p200_ok = false;
                    return;
                }
            }
        };

        linalg::Vector est;
        p200_gravity_seconds =
            time_best(1, [&] { est = core::gravity_estimate(snap); });
        check_estimate("gravity", est);
        const linalg::Vector prior = est;
        std::printf("  gravity   %7.2fs\n", p200_gravity_seconds);

        core::KruithofOptions kopt;
        kopt.max_iterations = 30;
        kopt.check_every = 10;
        p200_kruithof_seconds = time_best(1, [&] {
            est = core::kruithof_general(snap, prior, kopt).s;
        });
        check_estimate("kruithof", est);
        std::printf("  kruithof  %7.2fs (30 sweeps)\n",
                    p200_kruithof_seconds);

        core::EntropyOptions ent;
        ent.solver.max_iterations = 60;
        p200_entropy_seconds = time_best(1, [&] {
            est = core::entropy_estimate(snap, prior, ent);
        });
        check_estimate("entropy", est);
        std::printf("  entropy   %7.2fs (60 iters)\n",
                    p200_entropy_seconds);

        // Bayesian and fanout run the Gram-free operator QP (the
        // engine's configuration), capped to a bench-sized budget.
        core::BayesianOptions bopt;
        bopt.qp.cg_max_iterations = 120;
        bopt.qp.max_active_set_rounds = 6;
        p200_bayesian_seconds = time_best(1, [&] {
            est = core::bayesian_estimate(snap, prior, bopt);
        });
        check_estimate("bayesian", est);
        std::printf("  bayesian  %7.2fs (operator QP, cg<=120)\n",
                    p200_bayesian_seconds);

        core::FanoutOptions fopt;
        fopt.qp.cg_max_iterations = 150;
        // Round-count headroom, not extra work: the driver stops at
        // convergence, and how many rounds that takes shifts by one or
        // two with the host's FP contraction (-march=native FMA moved
        // this exact problem from 8 rounds to 9).  A cap at the
        // observed minimum makes the gate flake per-CPU.
        fopt.qp.max_active_set_rounds = 12;
        core::FanoutResult fanout_result;
        p200_fanout_seconds = time_best(
            1, [&] { fanout_result = core::fanout_estimate(series, fopt); });
        check_estimate("fanout", fanout_result.mean_demands);
        if (fanout_result.equality_violation > 1e-6) {
            fail("200-PoP fanout equality violation %.3g > 1e-6",
                 fanout_result.equality_violation);
            p200_ok = false;
        }
        const linalg::Vector bayes_operator = est;
        std::printf("  fanout    %7.2fs (operator QP, %zu rounds, %zu cg "
                    "iters, eq viol %.2e)\n",
                    p200_fanout_seconds, fanout_result.qp_iterations,
                    fanout_result.qp_cg_iterations,
                    fanout_result.equality_violation);

        // Kernel regions.  The fanout apply H x = sum_k W_k R' R W_k x
        // over the window and the Bayesian apply R'(R x), each timed as
        // the serial per-sample SparseMatrix calls the operators used
        // before, as the blocked kernel inline, and as the blocked
        // kernel on a pool of every hardware thread inside a solve
        // scope, as a CG-regime solve runs them (pooled == serial
        // bitwise is gated).  Whole pooled solves are timed through the
        // engine below.
        {
            engine::ThreadPool pool(pool_workers());
            const linalg::SolveScope scope(&pool);
            const linalg::RoutingOperator op(r);
            const linalg::SparseMatrix rt = linalg::transpose(r);
            const FanoutApplyWeights fw =
                fanout_apply_weights(topo, series.loads);
            std::vector<linalg::Vector> w(window, linalg::Vector(pairs));
            for (std::size_t p = 0; p < pairs; ++p) {
                for (std::size_t k = 0; k < window; ++k) {
                    w[k][p] = fw.weights[fw.source_of[p] * window + k];
                }
            }
            const linalg::Vector& x = fanout_result.fanouts;
            linalg::Vector y_serial(pairs), u(pairs), v, z;
            const auto fanout_serial = [&] {
                std::fill(y_serial.begin(), y_serial.end(), 0.0);
                for (const linalg::Vector& wk : w) {
                    for (std::size_t p = 0; p < pairs; ++p) {
                        u[p] = wk[p] * x[p];
                    }
                    r.multiply_into(u, v);
                    r.multiply_transpose_into(v, z);
                    for (std::size_t p = 0; p < pairs; ++p) {
                        y_serial[p] =
                            linalg::detail::mul_add(wk[p], z[p], y_serial[p]);
                    }
                }
            };
            linalg::WeightedNormalScratch scratch;
            linalg::Vector y_inline, y_pooled;
            p200_fanout_apply_serial_seconds =
                seconds_per_call(50, fanout_serial);
            p200_fanout_apply_inline_seconds = seconds_per_call(50, [&] {
                op.weighted_normal(x, rt, fw.source_of, fw.weights, window,
                                   scratch, y_inline, nullptr);
            });
            warm_pool(pool);
            p200_fanout_apply_pooled_seconds = seconds_per_call(50, [&] {
                op.weighted_normal(x, rt, fw.source_of, fw.weights, window,
                                   scratch, y_pooled, &pool);
            });
            const bool fanout_apply_bitwise =
                vec_bitwise(y_inline, y_serial) &&
                vec_bitwise(y_pooled, y_serial);

            const linalg::Vector& bx = bayes_operator;
            linalg::Vector tmp, b_serial, b_inline, b_pooled;
            p200_bayesian_apply_serial_seconds = seconds_per_call(200, [&] {
                r.multiply_into(bx, tmp);
                r.multiply_transpose_into(tmp, b_serial);
            });
            p200_bayesian_apply_inline_seconds = seconds_per_call(200, [&] {
                op.multiply(bx, tmp, nullptr);
                op.multiply_transpose(tmp, b_inline, nullptr);
            });
            warm_pool(pool);
            p200_bayesian_apply_pooled_seconds = seconds_per_call(200, [&] {
                op.multiply(bx, tmp, &pool);
                op.multiply_transpose(tmp, b_pooled, &pool);
            });
            const bool bayes_apply_bitwise =
                vec_bitwise(b_inline, b_serial) &&
                vec_bitwise(b_pooled, b_serial);
            std::printf("  kernel    fanout apply (window %zu) serial "
                        "%.3f ms, blocked inline %.3f ms, pooled (%zu "
                        "threads) %.3f ms; bayesian apply %.3f / %.3f / "
                        "%.3f ms; bitwise %s\n",
                        window, 1e3 * p200_fanout_apply_serial_seconds,
                        1e3 * p200_fanout_apply_inline_seconds,
                        p200_pool_threads,
                        1e3 * p200_fanout_apply_pooled_seconds,
                        1e3 * p200_bayesian_apply_serial_seconds,
                        1e3 * p200_bayesian_apply_inline_seconds,
                        1e3 * p200_bayesian_apply_pooled_seconds,
                        fanout_apply_bitwise && bayes_apply_bitwise
                            ? "yes"
                            : "NO");
            if (!fanout_apply_bitwise || !bayes_apply_bitwise) {
                fail("200-PoP blocked Hessian applies differ from the "
                     "serial products (fanout %d, bayesian %d)",
                     fanout_apply_bitwise ? 1 : 0,
                     bayes_apply_bitwise ? 1 : 0);
                p200_ok = false;
            }
        }

        // The fanout-only window through the engine (its operator
        // wiring, fanout's caps above), inline and pooled.
        {
            // One epoch cache: the pooled run reads the derived data the
            // inline run built.
            const auto cache = std::make_shared<engine::RoutingEpochCache>();
            engine::EngineConfig config;
            config.window_size = window;
            config.min_series_window = window;
            config.methods = {engine::Method::fanout};
            config.method_options.fanout.qp = fopt.qp;
            config.warm_start = false;
            const auto fanout_window = [&](std::size_t threads,
                                           double& seconds) {
                config.threads = threads;
                engine::OnlineEngine eng(topo, r, config, cache);
                TimedWindow timed = ingest_timed_window(eng, series.loads);
                seconds = timed.seconds;
                p200_fanout_window_helper_blocks = timed.helper_blocks;
                return std::move(timed.result.runs.at(0).estimate);
            };
            const linalg::Vector serial =
                fanout_window(0, p200_fanout_window_serial_seconds);
            const linalg::Vector pooled = fanout_window(
                p200_pool_threads, p200_fanout_window_pooled_seconds);
            check_estimate("fanout window", pooled);
            const bool bitwise = vec_bitwise(pooled, serial);
            std::printf("  window    fanout only: inline %.2fs, pooled (%zu "
                        "threads) %.2fs, %zu helper blocks; bitwise %s\n",
                        p200_fanout_window_serial_seconds,
                        p200_pool_threads,
                        p200_fanout_window_pooled_seconds,
                        p200_fanout_window_helper_blocks,
                        bitwise ? "yes" : "NO");
            if (!bitwise) {
                fail("200-PoP pooled fanout window differs from the "
                     "inline one");
                p200_ok = false;
            }
        }

        // Vardi through the operator form: the first scale at which
        // the method exists at all — its dense transformed Gram would
        // be the same 12.7 GB the other methods already avoid.  The
        // largest allocation it makes is the O(links^2) window
        // covariance (~11 MB), which is what the peak-allocation gate
        // below budgets for.  A warm start from the cold solution must
        // pass the dual check and land on the same estimate.
        core::VardiOptions vop;
        core::VardiResult vardi_cold;
        p200_vardi_seconds = time_best(
            1, [&] { vardi_cold = core::vardi_estimate(series, vop); });
        check_estimate("vardi", vardi_cold.lambda);
        core::VardiOptions vop_warm = vop;
        vop_warm.warm_start = &vardi_cold.lambda;
        const core::VardiResult vardi_warm =
            core::vardi_estimate(series, vop_warm);
        const double vardi_scale =
            std::max(1.0, linalg::nrm_inf(vardi_cold.lambda));
        p200_vardi_warm_rel_diff =
            vec_max_abs_diff(vardi_warm.lambda, vardi_cold.lambda) /
            vardi_scale;
        std::printf("  vardi     %7.2fs (operator NNLS, warm-vs-cold "
                    "rel |dl| %.3g)\n",
                    p200_vardi_seconds, p200_vardi_warm_rel_diff);
        if (p200_vardi_warm_rel_diff > 1e-9) {
            fail("200-PoP operator Vardi warm start diverges from the "
                 "cold solve (rel %.3g > 1e-9)",
                 p200_vardi_warm_rel_diff);
            p200_ok = false;
        }

        // The point of the whole exercise: nothing dense and quadratic
        // in the pair count was ever allocated.  The largest legitimate
        // dense allocations at this scale are O(links^2) scratch
        // (~11 MB); the gate leaves two orders of headroom below the
        // 12.7 GB dense Hessian/Gram.
        p200_peak_alloc_bytes = linalg::detail::peak_matrix_allocation_bytes();
        p200_total_alloc_bytes =
            linalg::detail::total_matrix_allocation_bytes();
        const std::size_t dense_pairs_bytes =
            pairs * pairs * sizeof(double);
        std::printf("  peak dense Matrix allocation: %.1f MB, cumulative "
                    "churn %.1f MB (dense pairs^2 would be %.1f GB)\n",
                    static_cast<double>(p200_peak_alloc_bytes) / 1e6,
                    static_cast<double>(p200_total_alloc_bytes) / 1e6,
                    static_cast<double>(dense_pairs_bytes) / 1e9);
        if (p200_peak_alloc_bytes >= dense_pairs_bytes / 100) {
            fail("a dense allocation within 100x of pairs^2 happened at "
                 "200 PoPs (%zu bytes)",
                 p200_peak_alloc_bytes);
            p200_ok = false;
        }
    }

    // ---- Phase 6: contract layer cost -------------------------------
    // One gate on src/check/ (docs/STATIC_ANALYSIS.md): estimates are
    // identical with contracts armed and suspended — the validators
    // are read-only observers, and the compiled-out configuration
    // therefore changes no numbers.  The armed/suspended time ratio is
    // reported, not gated: with contracts compiled out both arms run
    // the same machine code, so the ratio is host noise there; that
    // compiled-out sites never evaluate their argument is pinned by
    // tests/check/test_contracts.cpp instead.
    std::printf("\n[6] contract layer (compiled %s, dbg %s)\n",
                check::contracts_compiled() ? "in" : "out",
                check::contracts_dbg_compiled() ? "in" : "out");
    double contracts_armed_seconds = 0.0;
    double contracts_suspended_seconds = 0.0;
    bool contracts_bitwise = true;
    {
        const topology::Topology topo =
            topology::generated_backbone(50, 4.0, 7);
        const linalg::SparseMatrix r = routing::igp_routing_matrix(topo);
        const linalg::Vector truth = synthetic_demands(topo, 71);
        core::SnapshotProblem snap;
        snap.topo = &topo;
        snap.routing = &r;
        snap.loads = r.multiply(truth);
        core::KruithofOptions kopt;
        kopt.max_iterations = 25;
        kopt.tolerance = 0.0;  // fixed sweeps: identical work per run
        linalg::Vector prior(r.cols(), 1.0);

        // Both arms run the SAME lambda into the SAME destination
        // buffers, interleaved rep by rep with each arm keeping its
        // best: two lambda instantiations or two result allocations
        // give the arms different code/data addresses, and on a sub-ms
        // window that alignment skew alone is a stable >1% "overhead".
        // Interleaving also cancels clock-frequency drift between arms.
        linalg::Vector gravity_out;
        core::KruithofResult kruithof_out;
        const auto run_window = [&] {
            gravity_out = core::gravity_estimate(snap);
            kruithof_out = core::kruithof_general(snap, prior, kopt);
        };
        contracts_armed_seconds = 1e300;
        contracts_suspended_seconds = 1e300;
        for (int rep = 0; rep < 25; ++rep) {
            contracts_armed_seconds = std::min(contracts_armed_seconds,
                                               time_best(1, run_window));
            check::ScopedContractSuspend off;
            contracts_suspended_seconds = std::min(
                contracts_suspended_seconds, time_best(1, run_window));
        }
        // Bitwise gate: one untimed run per arm, armed copied aside.
        run_window();
        const linalg::Vector armed_gravity = gravity_out;
        const linalg::Vector armed_kruithof_s = kruithof_out.s;
        {
            check::ScopedContractSuspend off;
            run_window();
        }
        for (std::size_t p = 0; p < armed_gravity.size(); ++p) {
            if (armed_gravity[p] != gravity_out[p] ||
                armed_kruithof_s[p] != kruithof_out.s[p]) {
                contracts_bitwise = false;
                break;
            }
        }
        const double overhead =
            contracts_suspended_seconds > 0.0
                ? contracts_armed_seconds / contracts_suspended_seconds -
                      1.0
                : 0.0;
        std::printf("  gravity+kruithof window: armed %.4fs, "
                    "suspended %.4fs (overhead %+.2f%%, bitwise=%s)\n",
                    contracts_armed_seconds, contracts_suspended_seconds,
                    overhead * 100.0, contracts_bitwise ? "yes" : "NO");
        if (!contracts_bitwise) {
            fail("estimates differ between contracts armed and "
                 "suspended — a validator perturbed the numerics");
        }
    }

    // ---- Phase 7: 500-PoP Gram-free window ---------------------------
    // The Gram-free tentpole gate.  At 249500 pairs even a CSR Gram
    // would be a pairs-coupled structure nobody can afford per epoch;
    // every method below runs off R and R' alone.  Two sub-gates:
    //   * five methods (gravity, Kruithof, entropy, Bayesian operator
    //     QP, fanout operator QP) complete a window inside the wall
    //     budget with peak dense Matrix allocation < 10 MB — five
    //     orders below the ~498 GB dense pairs^2 Gram;
    //   * the engine's default schedule (gravity + Bayesian + fanout)
    //     finishes a full window and built the epoch's shared routing
    //     transpose.
    std::printf("\n[7] 500-PoP generated backbone (Gram-free window)\n");
    double p500_build_seconds = 0.0;
    double p500_gravity_seconds = 0.0;
    double p500_kruithof_seconds = 0.0;
    double p500_entropy_seconds = 0.0;
    double p500_bayesian_seconds = 0.0;
    double p500_fanout_seconds = 0.0;
    double p500_scheduler_seconds = 0.0;
    double p500_fanout_apply_inline_seconds = 0.0;
    double p500_fanout_apply_pooled_seconds = 0.0;
    // The five-method window through an engine whose worker count
    // matches the hardware (helpers come from the workers whose
    // methods finish first).
    const std::size_t p500_pool_threads = pool_workers() + 1;
    double p500_window_pooled_seconds = 0.0;
    std::size_t p500_window_helper_blocks = 0;
    std::size_t p500_pairs = 0;
    std::size_t p500_links = 0;
    std::size_t p500_nnz = 0;
    std::size_t p500_peak_alloc_bytes = 0;
    std::size_t p500_total_alloc_bytes = 0;
    bool p500_transpose_built = false;
    const double p500_budget_seconds = 300.0;
    const std::size_t p500_peak_alloc_limit = 10u * 1000u * 1000u;
    bool p500_ok = true;
    {
        topology::Topology topo;
        linalg::SparseMatrix r;
        p500_build_seconds = time_best(1, [&] {
            topo = topology::generated_backbone(500, 4.0, 1);
            r = routing::igp_routing_matrix(topo);
        });
        const std::size_t pairs = r.cols();
        p500_pairs = pairs;
        p500_links = topo.link_count();
        p500_nnz = r.nonzeros();
        // The shared operator input, exactly as the epoch cache hands
        // it to the estimators: one O(nnz) CSR transpose.
        const linalg::SparseMatrix rt = linalg::transpose(r);
        const linalg::Vector truth = synthetic_demands(topo, 99);
        core::SnapshotProblem snap;
        snap.topo = &topo;
        snap.routing = &r;
        snap.loads = r.multiply(truth);

        const std::size_t window = 4;
        const linalg::Vector alpha = traffic::fanouts_from_demands(
            topo.pop_count(), truth);
        std::mt19937_64 rng(13);
        std::uniform_real_distribution<double> dist(0.5, 2.0);
        core::SeriesProblem series;
        series.topo = &topo;
        series.routing = &r;
        const linalg::Vector totals0 =
            traffic::node_totals_from_demands(topo.pop_count(), truth);
        for (std::size_t k = 0; k < window; ++k) {
            linalg::Vector totals = totals0;
            for (double& v : totals) v *= dist(rng);
            series.loads.push_back(r.multiply(
                traffic::demands_from_fanouts(topo.pop_count(), alpha,
                                              totals)));
        }
        std::printf("  pops=500 links=%zu pairs=%zu nnz=%zu "
                    "(build %.2fs; dense pairs^2 would be %.0f GB)\n",
                    p500_links, pairs, p500_nnz, p500_build_seconds,
                    static_cast<double>(pairs) *
                        static_cast<double>(pairs) * 8.0 / 1e9);

        linalg::detail::reset_peak_matrix_allocation();
        linalg::detail::reset_total_matrix_allocation();
        const auto check_estimate = [&](const char* name,
                                        const linalg::Vector& est) {
            if (est.size() != pairs) {
                fail("500-PoP %s estimate has wrong size", name);
                p500_ok = false;
                return;
            }
            for (double v : est) {
                if (!std::isfinite(v) || v < 0.0) {
                    fail("500-PoP %s estimate not finite/nonnegative",
                         name);
                    p500_ok = false;
                    return;
                }
            }
        };

        linalg::Vector est;
        p500_gravity_seconds =
            time_best(1, [&] { est = core::gravity_estimate(snap); });
        check_estimate("gravity", est);
        const linalg::Vector prior = est;
        std::printf("  gravity   %7.2fs\n", p500_gravity_seconds);

        core::KruithofOptions kopt;
        kopt.max_iterations = 30;
        kopt.check_every = 10;
        p500_kruithof_seconds = time_best(1, [&] {
            est = core::kruithof_general(snap, prior, kopt).s;
        });
        check_estimate("kruithof", est);
        std::printf("  kruithof  %7.2fs (30 sweeps)\n",
                    p500_kruithof_seconds);

        core::EntropyOptions ent;
        ent.solver.max_iterations = 60;
        p500_entropy_seconds = time_best(1, [&] {
            est = core::entropy_estimate(snap, prior, ent);
        });
        check_estimate("entropy", est);
        std::printf("  entropy   %7.2fs (60 iters)\n",
                    p500_entropy_seconds);

        core::BayesianOptions bopt;
        bopt.shared_routing_transpose = &rt;
        bopt.qp.cg_max_iterations = 120;
        bopt.qp.max_active_set_rounds = 6;
        p500_bayesian_seconds = time_best(1, [&] {
            est = core::bayesian_estimate(snap, prior, bopt);
        });
        check_estimate("bayesian", est);
        std::printf("  bayesian  %7.2fs (operator QP, cg<=120)\n",
                    p500_bayesian_seconds);

        core::FanoutOptions fopt;
        fopt.shared_routing_transpose = &rt;
        fopt.qp.cg_max_iterations = 80;
        // 249500 nonneg variables need more block-pivoting rounds than
        // the 200-PoP problem: each round flips the whole infeasibility
        // set, and the set only shrinks to empty after ~a dozen flips
        // at this scale.  Headroom, not extra work — the driver stops
        // at convergence.
        fopt.qp.max_active_set_rounds = 24;
        core::FanoutResult fanout_result;
        p500_fanout_seconds = time_best(
            1, [&] { fanout_result = core::fanout_estimate(series, fopt); });
        check_estimate("fanout", fanout_result.mean_demands);
        if (fanout_result.equality_violation > 1e-6) {
            fail("500-PoP fanout equality violation %.3g > 1e-6",
                 fanout_result.equality_violation);
            p500_ok = false;
        }
        std::printf("  fanout    %7.2fs (operator QP, %zu rounds, %zu cg "
                    "iters, eq viol %.2e)\n",
                    p500_fanout_seconds, fanout_result.qp_iterations,
                    fanout_result.qp_cg_iterations,
                    fanout_result.equality_violation);

        // The fanout Hessian apply at the yardstick's scale, inline and
        // on a pool of every hardware thread, as the 200-PoP kernel rows
        // time it (pooled == serial is gated there).
        {
            engine::ThreadPool pool(pool_workers());
            const linalg::SolveScope scope(&pool);
            const linalg::RoutingOperator op(r);
            const FanoutApplyWeights fw =
                fanout_apply_weights(topo, series.loads);
            const linalg::Vector& x = fanout_result.fanouts;
            linalg::WeightedNormalScratch scratch;
            linalg::Vector y;
            p500_fanout_apply_inline_seconds = seconds_per_call(10, [&] {
                op.weighted_normal(x, rt, fw.source_of, fw.weights, window,
                                   scratch, y, nullptr);
            });
            warm_pool(pool);
            p500_fanout_apply_pooled_seconds = seconds_per_call(10, [&] {
                op.weighted_normal(x, rt, fw.source_of, fw.weights, window,
                                   scratch, y, &pool);
            });
            std::printf("  kernel    fanout apply (window %zu) inline "
                        "%.2f ms, pooled (%zu threads) %.2f ms\n",
                        window, 1e3 * p500_fanout_apply_inline_seconds,
                        p500_pool_threads,
                        1e3 * p500_fanout_apply_pooled_seconds);
        }

        const double p500_window_seconds =
            p500_gravity_seconds + p500_kruithof_seconds +
            p500_entropy_seconds + p500_bayesian_seconds +
            p500_fanout_seconds;
        if (p500_window_seconds > p500_budget_seconds) {
            fail("500-PoP five-method window exceeds the %.0fs budget "
                 "(%.2fs)",
                 p500_budget_seconds, p500_window_seconds);
            p500_ok = false;
        }

        // The engine's default schedule, inline: the operator wiring
        // must build (and read) the epoch's R'.  Both engines below
        // share one epoch cache; warm starts are off, so every timed
        // solve is cold.
        const auto cache = std::make_shared<engine::RoutingEpochCache>();
        const std::shared_ptr<const engine::RoutingEpoch> epoch =
            cache->acquire_shared(r);
        engine::EngineConfig config;
        config.window_size = window;
        config.min_series_window = window;
        config.methods = {engine::Method::gravity, engine::Method::bayesian,
                          engine::Method::fanout};
        config.method_options.bayesian.qp.cg_max_iterations = 120;
        config.method_options.bayesian.qp.max_active_set_rounds = 6;
        config.method_options.fanout.qp.cg_max_iterations = 80;
        config.method_options.fanout.qp.max_active_set_rounds = 24;
        config.warm_start = false;
        engine::WindowResult wres;
        {
            engine::OnlineEngine eng(topo, r, config, cache);
            TimedWindow timed = ingest_timed_window(eng, series.loads);
            p500_scheduler_seconds = timed.seconds;
            wres = std::move(timed.result);
        }
        for (const engine::MethodRun& run : wres.runs) {
            check_estimate("engine", run.estimate);
        }
        if (wres.runs.size() != 3) {
            fail("500-PoP engine window ran %zu methods, expected 3",
                 wres.runs.size());
            p500_ok = false;
        }
        p500_transpose_built = epoch->routing_transpose_built();
        std::printf("  engine    %7.2fs (default schedule; R' built=%s)\n",
                    p500_scheduler_seconds,
                    p500_transpose_built ? "yes" : "NO");
        if (!p500_transpose_built) {
            fail("500-PoP default schedule never built the shared "
                 "routing transpose — the operator wiring is not "
                 "engaged");
            p500_ok = false;
        }

        // The yardstick window on every core: all five methods through
        // an engine with one worker per hardware thread, so the workers
        // whose methods finish first help the operator QPs.
        {
            engine::EngineConfig five = config;
            five.methods = {engine::Method::gravity,
                            engine::Method::kruithof,
                            engine::Method::entropy,
                            engine::Method::bayesian,
                            engine::Method::fanout};
            five.method_options.kruithof = kopt;
            five.method_options.entropy = ent;
            five.threads = p500_pool_threads;
            engine::OnlineEngine pooled(topo, r, five, cache);
            const TimedWindow timed =
                ingest_timed_window(pooled, series.loads);
            p500_window_pooled_seconds = timed.seconds;
            p500_window_helper_blocks = timed.helper_blocks;
            for (const engine::MethodRun& run : timed.result.runs) {
                check_estimate("pooled engine", run.estimate);
            }
            std::printf("  window    %7.2fs (five methods on %zu worker "
                        "threads, %zu helper blocks; serial sum %.2fs)\n",
                        p500_window_pooled_seconds, p500_pool_threads,
                        p500_window_helper_blocks, p500_window_seconds);
        }

        p500_peak_alloc_bytes =
            linalg::detail::peak_matrix_allocation_bytes();
        p500_total_alloc_bytes =
            linalg::detail::total_matrix_allocation_bytes();
        std::printf("  peak dense Matrix allocation: %.2f MB, cumulative "
                    "churn %.2f MB (limit 10 MB; dense pairs^2 %.0f GB)\n",
                    static_cast<double>(p500_peak_alloc_bytes) / 1e6,
                    static_cast<double>(p500_total_alloc_bytes) / 1e6,
                    static_cast<double>(pairs) *
                        static_cast<double>(pairs) * 8.0 / 1e9);
        if (p500_peak_alloc_bytes >= p500_peak_alloc_limit) {
            fail("a dense allocation >= 10 MB happened inside the "
                 "500-PoP Gram-free window (%zu bytes)",
                 p500_peak_alloc_bytes);
            p500_ok = false;
        }
    }

    // ---- JSON record -------------------------------------------------
    obs::Report report("bench_perf_solvers");
    {
        obs::Json cholesky = obs::Json::array();
        for (const CholeskyPoint& pt : chol_points) {
            obs::Json entry = obs::Json::object();
            entry.set("n", pt.n);
            entry.set("unblocked_seconds", pt.unblocked_seconds);
            entry.set("blocked_seconds", pt.blocked_seconds);
            entry.set("speedup", pt.speedup);
            entry.set("max_factor_diff", pt.max_factor_diff);
            cholesky.push_back(std::move(entry));
        }
        report.set("cholesky", std::move(cholesky));
    }
    report.set("cholesky_gate_speedup", chol_gate_speedup);
    {
        obs::Json scaling = obs::Json::array();
        for (const ScalePoint& pt : scale_points) {
            obs::Json entry = obs::Json::object();
            entry.set("pops", pt.pops);
            entry.set("links", pt.links);
            entry.set("pairs", pt.pairs);
            entry.set("nnz", pt.nonzeros);
            entry.set("routing_build_seconds", pt.routing_build_seconds);
            entry.set("gemv_dense_seconds", pt.gemv_dense_seconds);
            entry.set("gemv_sparse_seconds", pt.gemv_sparse_seconds);
            entry.set("gemv_transpose_dense_seconds",
                      pt.gemv_t_dense_seconds);
            entry.set("gemv_transpose_sparse_seconds",
                      pt.gemv_t_sparse_seconds);
            entry.set("gram_measured", pt.gram_measured);
            entry.set("gram_dense_seconds", pt.gram_dense_seconds);
            entry.set("gram_sparse_seconds", pt.gram_sparse_seconds);
            entry.set("gram_exact", pt.gram_exact);
            scaling.push_back(std::move(entry));
        }
        report.set("scaling", std::move(scaling));
    }
    report.set("kruithof_fast_seconds", kruithof_fast_seconds);
    report.set("ipf_fast_seconds", ipf_fast_seconds);
    report.set("entropy_window_seconds", entropy_window_seconds);
    report.set("entropy_budget_seconds", entropy_budget_seconds);
    report.set("p200_gravity_seconds", p200_gravity_seconds);
    report.set("p200_kruithof_seconds", p200_kruithof_seconds);
    report.set("p200_entropy_seconds", p200_entropy_seconds);
    report.set("p200_bayesian_seconds", p200_bayesian_seconds);
    report.set("p200_fanout_seconds", p200_fanout_seconds);
    report.set("p200_vardi_seconds", p200_vardi_seconds);
    report.set("p200_vardi_warm_rel_diff", p200_vardi_warm_rel_diff);
    report.set("p200_peak_alloc_bytes", p200_peak_alloc_bytes);
    report.set("p200_total_alloc_bytes", p200_total_alloc_bytes);
    report.set("p200_pool_threads", p200_pool_threads);
    report.set("p200_fanout_apply_serial_seconds",
               p200_fanout_apply_serial_seconds);
    report.set("p200_fanout_apply_inline_seconds",
               p200_fanout_apply_inline_seconds);
    report.set("p200_fanout_apply_pooled_seconds",
               p200_fanout_apply_pooled_seconds);
    report.set("p200_bayesian_apply_serial_seconds",
               p200_bayesian_apply_serial_seconds);
    report.set("p200_bayesian_apply_inline_seconds",
               p200_bayesian_apply_inline_seconds);
    report.set("p200_bayesian_apply_pooled_seconds",
               p200_bayesian_apply_pooled_seconds);
    report.set("p200_fanout_window_serial_seconds",
               p200_fanout_window_serial_seconds);
    report.set("p200_fanout_window_pooled_seconds",
               p200_fanout_window_pooled_seconds);
    report.set("p200_fanout_window_helper_blocks",
               p200_fanout_window_helper_blocks);
    report.set("p200_ok", p200_ok);
    report.set("p500_pairs", p500_pairs);
    report.set("p500_links", p500_links);
    report.set("p500_nnz", p500_nnz);
    report.set("p500_build_seconds", p500_build_seconds);
    report.set("p500_gravity_seconds", p500_gravity_seconds);
    report.set("p500_kruithof_seconds", p500_kruithof_seconds);
    report.set("p500_entropy_seconds", p500_entropy_seconds);
    report.set("p500_bayesian_seconds", p500_bayesian_seconds);
    report.set("p500_fanout_seconds", p500_fanout_seconds);
    report.set("p500_scheduler_seconds", p500_scheduler_seconds);
    report.set("p500_fanout_apply_inline_seconds",
               p500_fanout_apply_inline_seconds);
    report.set("p500_fanout_apply_pooled_seconds",
               p500_fanout_apply_pooled_seconds);
    report.set("p500_pool_threads", p500_pool_threads);
    report.set("p500_window_pooled_seconds", p500_window_pooled_seconds);
    report.set("p500_window_helper_blocks", p500_window_helper_blocks);
    report.set("p500_budget_seconds", p500_budget_seconds);
    report.set("p500_peak_alloc_bytes", p500_peak_alloc_bytes);
    report.set("p500_total_alloc_bytes", p500_total_alloc_bytes);
    report.set("p500_routing_transpose_built", p500_transpose_built);
    report.set("p500_ok", p500_ok);
    report.set("contracts_compiled", check::contracts_compiled());
    report.set("contracts_armed_seconds", contracts_armed_seconds);
    report.set("contracts_suspended_seconds", contracts_suspended_seconds);
    report.set("contracts_bitwise", contracts_bitwise);
    report.set("pass", g_ok);
    report.set("host_hardware_concurrency",
               std::thread::hardware_concurrency());
    report.set("compiler", __VERSION__);
    if (report.write_file(json_path)) {
        std::printf("\nwrote %s\n", json_path.c_str());
    } else {
        std::printf("\nWARNING: could not write %s\n", json_path.c_str());
    }

    if (g_ok) {
        std::printf("\nPASS: blocked Cholesky 1e-12-exact (%.2fx at "
                    "n>=1000), sparse Gram exact, 200/500-PoP operator "
                    "windows within budget\n",
                    chol_gate_speedup);
    }
    return g_ok ? 0 : 1;
}
