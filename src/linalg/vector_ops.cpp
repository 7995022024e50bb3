#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tme::linalg {

namespace {

void require_same_size(const Vector& x, const Vector& y, const char* op) {
    if (x.size() != y.size()) {
        throw std::invalid_argument(std::string(op) +
                                    ": vector size mismatch");
    }
}

}  // namespace

double dot(const Vector& x, const Vector& y) {
    require_same_size(x, y, "dot");
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
    return acc;
}

double nrm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double sum(const Vector& x) {
    double acc = 0.0;
    for (double v : x) acc += v;
    return acc;
}

double nrm_inf(const Vector& x) {
    double acc = 0.0;
    for (double v : x) acc = std::max(acc, std::abs(v));
    return acc;
}

void axpy(double alpha, const Vector& x, Vector& y) {
    require_same_size(x, y, "axpy");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(double alpha, Vector& x) {
    for (double& v : x) v *= alpha;
}

Vector add(const Vector& x, const Vector& y) {
    require_same_size(x, y, "add");
    Vector z(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
    return z;
}

Vector sub(const Vector& x, const Vector& y) {
    require_same_size(x, y, "sub");
    Vector z(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] - y[i];
    return z;
}

Vector hadamard(const Vector& x, const Vector& y) {
    require_same_size(x, y, "hadamard");
    Vector z(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] * y[i];
    return z;
}

double max_element(const Vector& x) {
    if (x.empty()) throw std::invalid_argument("max_element: empty vector");
    return *std::max_element(x.begin(), x.end());
}

double min_element(const Vector& x) {
    if (x.empty()) throw std::invalid_argument("min_element: empty vector");
    return *std::min_element(x.begin(), x.end());
}

bool all_finite(const Vector& x) {
    return std::all_of(x.begin(), x.end(),
                       [](double v) { return std::isfinite(v); });
}

Vector constant(std::size_t n, double value) { return Vector(n, value); }

}  // namespace tme::linalg
