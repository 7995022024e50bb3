// Estimation quality metrics (paper Section 5.3.1).
//
// The headline metric is the mean relative error over large demands
// (eq. 8):
//
//     MRE = (1/N_T) * sum_{i : s_i > s_T} | (shat_i - s_i) / s_i |
//
// with the threshold s_T chosen so that demands above it carry ~90% of
// total traffic (29 demands in the paper's European network, 155 in the
// American one).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace tme::core {

/// Threshold such that demands strictly greater than it carry at least
/// `coverage` (default 0.9) of total traffic; picks the smallest such set
/// of largest demands.  Throws on empty or all-zero input.
double threshold_for_coverage(const linalg::Vector& true_demands,
                              double coverage = 0.9);

/// Indices of demands strictly above the threshold, descending by size.
std::vector<std::size_t> demands_above(const linalg::Vector& true_demands,
                                       double threshold);

/// Mean relative error over demands above `threshold` (eq. 8).
double mean_relative_error(const linalg::Vector& true_demands,
                           const linalg::Vector& estimate, double threshold);

/// Convenience: MRE with threshold at the given coverage.
double mre_at_coverage(const linalg::Vector& true_demands,
                       const linalg::Vector& estimate, double coverage = 0.9);

}  // namespace tme::core
