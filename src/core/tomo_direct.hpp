// Combining tomography with direct measurements (paper Section 5.3.6).
//
// A handful of exactly-measured demands (e.g. from targeted NetFlow or
// per-LSP counters) sharply improves link-load tomography: the measured
// demands' contribution is subtracted from the loads, their routing
// columns are removed, and the estimator runs on the reduced problem.
//
// Two selection strategies from the paper:
//  * greedy  — exhaustive search each step for the demand whose exact
//              measurement most decreases the MRE (the oracle curve of
//              Fig. 16);
//  * largest_first — measure demands by size, the "viable practical
//              approach" the paper discusses (estimators rank demand
//              sizes accurately), which needs noticeably more
//              measurements for the same MRE.
#pragma once

#include <functional>

#include "core/entropy.hpp"
#include "core/problem.hpp"

namespace tme::core {

/// Estimator run on the reduced problem: given (problem, prior) returns
/// the demand estimate.  Defaults to the Entropy method as in the paper.
using ReducedEstimator = std::function<linalg::Vector(
    const SnapshotProblem&, const linalg::Vector&)>;

struct DirectMeasurementOptions {
    /// How many demands to measure (curve length).
    std::size_t max_measured = 0;  ///< 0 = all pairs
    /// MRE threshold (same value used for the reported curve).
    double threshold = 0.0;
    /// Estimator for the reduced problems; defaults to Entropy with
    /// regularization 1000.
    ReducedEstimator estimator;
};

struct DirectMeasurementCurve {
    /// measured[i] = pair measured at step i (in order).
    std::vector<std::size_t> measured;
    /// mre[i] = MRE after i demands are measured (mre[0] = no direct
    /// measurements), so size is measured.size() + 1.
    linalg::Vector mre;
};

/// Estimates with a fixed set of exactly-measured demands and returns
/// the full estimate vector (measured entries set to their true values).
linalg::Vector estimate_with_measured(const SnapshotProblem& problem,
                                      const linalg::Vector& prior,
                                      const linalg::Vector& true_demands,
                                      const std::vector<std::size_t>& measured,
                                      const ReducedEstimator& estimator);

/// Greedy oracle selection (exhaustive search per step, as in the paper).
DirectMeasurementCurve greedy_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options);

/// Measure demands in descending true-size order.
DirectMeasurementCurve largest_first_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options);

}  // namespace tme::core
