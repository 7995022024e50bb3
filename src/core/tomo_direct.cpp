#include "core/tomo_direct.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/metrics.hpp"

namespace tme::core {

namespace {

ReducedEstimator default_estimator() {
    return [](const SnapshotProblem& problem, const linalg::Vector& prior) {
        EntropyOptions options;
        options.regularization = 1000.0;
        return entropy_estimate(problem, prior, options);
    };
}

}  // namespace

linalg::Vector estimate_with_measured(const SnapshotProblem& problem,
                                      const linalg::Vector& prior,
                                      const linalg::Vector& true_demands,
                                      const std::vector<std::size_t>& measured,
                                      const ReducedEstimator& estimator) {
    problem.validate();
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t n = r.cols();
    if (prior.size() != n || true_demands.size() != n) {
        throw std::invalid_argument("estimate_with_measured: size mismatch");
    }
    std::vector<bool> is_measured(n, false);
    for (std::size_t p : measured) {
        if (p >= n) {
            throw std::invalid_argument(
                "estimate_with_measured: bad pair index");
        }
        is_measured[p] = true;
    }

    std::vector<std::size_t> unknown;
    unknown.reserve(n - measured.size());
    for (std::size_t p = 0; p < n; ++p) {
        if (!is_measured[p]) unknown.push_back(p);
    }

    linalg::Vector estimate(n, 0.0);
    for (std::size_t p : measured) estimate[p] = true_demands[p];
    if (unknown.empty()) return estimate;

    // Subtract measured contributions from the loads.
    const linalg::Vector known_loads = r.multiply(estimate);
    linalg::Vector reduced_loads = problem.loads;
    for (std::size_t l = 0; l < reduced_loads.size(); ++l) {
        reduced_loads[l] = std::max(0.0, reduced_loads[l] - known_loads[l]);
    }

    const linalg::SparseMatrix reduced_r = r.select_columns(unknown);
    linalg::Vector reduced_prior(unknown.size());
    for (std::size_t i = 0; i < unknown.size(); ++i) {
        reduced_prior[i] = prior[unknown[i]];
    }
    // The reduced routing no longer matches the topology's pair count, so
    // the sub-problem carries no topology (estimators used here work from
    // (R, t) alone).
    SnapshotProblem sub;
    sub.topo = nullptr;
    sub.routing = &reduced_r;
    sub.loads = std::move(reduced_loads);

    const linalg::Vector sub_estimate = estimator(sub, reduced_prior);
    if (sub_estimate.size() != unknown.size()) {
        throw std::runtime_error(
            "estimate_with_measured: estimator returned wrong size");
    }
    for (std::size_t i = 0; i < unknown.size(); ++i) {
        estimate[unknown[i]] = sub_estimate[i];
    }
    return estimate;
}

namespace {

DirectMeasurementCurve run_with_order(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options, bool greedy) {
    const std::size_t n = problem.routing->cols();
    const std::size_t steps =
        options.max_measured == 0 ? n : std::min(options.max_measured, n);
    const ReducedEstimator estimator =
        options.estimator ? options.estimator : default_estimator();
    const double threshold =
        options.threshold > 0.0
            ? options.threshold
            : threshold_for_coverage(true_demands, 0.9);

    DirectMeasurementCurve curve;
    std::vector<std::size_t> measured;

    const linalg::Vector base = estimate_with_measured(
        problem, prior, true_demands, measured, estimator);
    curve.mre.push_back(
        mean_relative_error(true_demands, base, threshold));

    // Pre-computed size order for the largest-first strategy.
    std::vector<std::size_t> by_size(n);
    std::iota(by_size.begin(), by_size.end(), 0);
    std::sort(by_size.begin(), by_size.end(),
              [&true_demands](std::size_t a, std::size_t b) {
                  return true_demands[a] > true_demands[b];
              });

    std::vector<bool> is_measured(n, false);
    for (std::size_t step = 0; step < steps; ++step) {
        std::size_t chosen = n;
        double chosen_mre = 0.0;
        if (greedy) {
            // Exhaustive search: the candidate whose measurement gives
            // the lowest resulting MRE.
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t cand = 0; cand < n; ++cand) {
                if (is_measured[cand]) continue;
                measured.push_back(cand);
                const linalg::Vector est = estimate_with_measured(
                    problem, prior, true_demands, measured, estimator);
                measured.pop_back();
                const double m =
                    mean_relative_error(true_demands, est, threshold);
                if (m < best) {
                    best = m;
                    chosen = cand;
                }
            }
            chosen_mre = best;
        } else {
            for (std::size_t cand : by_size) {
                if (!is_measured[cand]) {
                    chosen = cand;
                    break;
                }
            }
            measured.push_back(chosen);
            const linalg::Vector est = estimate_with_measured(
                problem, prior, true_demands, measured, estimator);
            measured.pop_back();
            chosen_mre = mean_relative_error(true_demands, est, threshold);
        }
        if (chosen == n) break;
        measured.push_back(chosen);
        is_measured[chosen] = true;
        curve.measured.push_back(chosen);
        curve.mre.push_back(chosen_mre);
    }
    return curve;
}

}  // namespace

DirectMeasurementCurve greedy_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options) {
    return run_with_order(problem, prior, true_demands, options, true);
}

DirectMeasurementCurve largest_first_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options) {
    return run_with_order(problem, prior, true_demands, options, false);
}

}  // namespace tme::core
