// Elementary dense vector operations used throughout libtme.
//
// A vector is simply std::vector<double>; these free functions provide the
// small BLAS-level-1 surface the estimation solvers need.  All functions
// validate dimensions and throw std::invalid_argument on mismatch.
#pragma once

#include <cstddef>
#include <vector>

namespace tme::linalg {

using Vector = std::vector<double>;

/// Dot product x'y.  Throws if sizes differ.
double dot(const Vector& x, const Vector& y);

/// Euclidean norm ||x||_2.
double nrm2(const Vector& x);

/// Sum of all entries.
double sum(const Vector& x);

/// Infinity norm max_i |x_i|.
double nrm_inf(const Vector& x);

/// y <- alpha*x + y.  Throws if sizes differ.
void axpy(double alpha, const Vector& x, Vector& y);

/// x <- alpha*x.
void scale(double alpha, Vector& x);

/// Returns x + y.
Vector add(const Vector& x, const Vector& y);

/// Returns x - y.
Vector sub(const Vector& x, const Vector& y);

/// Returns the elementwise (Hadamard) product x.*y.
Vector hadamard(const Vector& x, const Vector& y);

/// Largest entry; throws on empty input.
double max_element(const Vector& x);

/// Smallest entry; throws on empty input.
double min_element(const Vector& x);

/// True when every entry is finite (no NaN / infinity).
bool all_finite(const Vector& x);

/// Returns a vector of n copies of value.
Vector constant(std::size_t n, double value);

}  // namespace tme::linalg
