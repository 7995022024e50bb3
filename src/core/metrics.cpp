#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tme::core {

double threshold_for_coverage(const linalg::Vector& true_demands,
                              double coverage) {
    if (true_demands.empty()) {
        throw std::invalid_argument("threshold_for_coverage: empty input");
    }
    if (coverage <= 0.0 || coverage > 1.0) {
        throw std::invalid_argument("threshold_for_coverage: bad coverage");
    }
    linalg::Vector sorted = true_demands;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const double total = linalg::sum(sorted);
    if (total <= 0.0) {
        throw std::invalid_argument("threshold_for_coverage: zero traffic");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        acc += sorted[i];
        if (acc >= coverage * total) {
            // Demands strictly greater than this value form the set; use
            // a threshold just below the last included demand so it is
            // included by the strict comparison.
            return std::nextafter(sorted[i], 0.0);
        }
    }
    return 0.0;
}

std::vector<std::size_t> demands_above(const linalg::Vector& true_demands,
                                       double threshold) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < true_demands.size(); ++i) {
        if (true_demands[i] > threshold) idx.push_back(i);
    }
    std::sort(idx.begin(), idx.end(),
              [&true_demands](std::size_t a, std::size_t b) {
                  return true_demands[a] > true_demands[b];
              });
    return idx;
}

double mean_relative_error(const linalg::Vector& true_demands,
                           const linalg::Vector& estimate, double threshold) {
    if (true_demands.size() != estimate.size()) {
        throw std::invalid_argument("mean_relative_error: size mismatch");
    }
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < true_demands.size(); ++i) {
        if (true_demands[i] > threshold) {
            acc += std::abs((estimate[i] - true_demands[i]) /
                            true_demands[i]);
            ++count;
        }
    }
    if (count == 0) {
        throw std::invalid_argument(
            "mean_relative_error: no demands above threshold");
    }
    return acc / static_cast<double>(count);
}

double mre_at_coverage(const linalg::Vector& true_demands,
                       const linalg::Vector& estimate, double coverage) {
    return mean_relative_error(true_demands, estimate,
                               threshold_for_coverage(true_demands,
                                                      coverage));
}

}  // namespace tme::core
