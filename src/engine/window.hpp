// Ring-buffered sliding window over streaming link-load samples.
//
// The window owns a chronological core::SeriesProblem view: each push
// appends the newest sample and evicts the oldest once the capacity is
// reached.  It holds only the samples, their indices and the gap
// counters; the sums the series estimators read (mean loads, load
// covariance, fanout source moments) are computed from the samples by
// WindowContext::capture with the estimators' own functions, so an
// engine window's estimate is bitwise the batch estimator's.
//
// A routing change invalidates the window wholesale (samples measured
// under different routing matrices cannot share one SeriesProblem);
// reset() flushes everything and rebinds the routing pointer.
#pragma once

#include <cstddef>
#include <deque>

#include "core/problem.hpp"
#include "linalg/matrix.hpp"

namespace tme::engine {

class SlidingWindow {
  public:
    /// `topo` and `routing` must outlive the window.  Capacity must be
    /// at least 1.  The fourth parameter is unused; it is kept only
    /// because perfbench/src/traced.cpp passes it.
    SlidingWindow(const topology::Topology* topo,
                  const linalg::SparseMatrix* routing, std::size_t capacity,
                  bool = true);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return problem_.loads.size(); }
    bool empty() const { return problem_.loads.empty(); }
    bool full() const { return size() == capacity_; }

    /// Sample indices currently spanned (throws std::logic_error when
    /// empty).
    std::size_t first_sample() const;
    std::size_t last_sample() const;

    /// All sample indices in the window, chronological.
    const std::deque<std::size_t>& sample_indices() const {
        return samples_;
    }

    /// Lifetime counters (survive reset()).
    std::size_t total_pushed() const { return total_pushed_; }
    std::size_t gap_count() const { return gap_count_; }

    /// Appends a sample; evicts the oldest one when full.  `gap` marks a
    /// sample reconstructed from interpolation after lost polls.
    void push(std::size_t sample, linalg::Vector loads, bool gap = false);

    /// Flushes all samples and rebinds the routing matrix (routing-epoch
    /// change).
    void reset(const linalg::SparseMatrix* routing);

    /// Swaps the routing pointer WITHOUT flushing, for a new matrix
    /// object with content identical to the current one (same routing
    /// epoch): keeps the window from dangling when the caller replaces
    /// and frees the old object.  Dimensions must match.
    void rebind_routing(const linalg::SparseMatrix* routing);

    /// The window problem (chronological).
    const core::SeriesProblem& series() const { return problem_; }

    /// Newest load vector (throws std::logic_error when empty).
    const linalg::Vector& latest() const;

  private:
    std::size_t capacity_;
    core::SeriesProblem problem_;
    std::deque<std::size_t> samples_;

    std::size_t total_pushed_ = 0;
    std::size_t gap_count_ = 0;
};

}  // namespace tme::engine
