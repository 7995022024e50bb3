#include "engine/window.hpp"

#include <stdexcept>

namespace tme::engine {

SlidingWindow::SlidingWindow(const topology::Topology* topo,
                             const linalg::SparseMatrix* routing,
                             std::size_t capacity, bool)
    : capacity_(capacity) {
    if (topo == nullptr) {
        throw std::invalid_argument("SlidingWindow: null topology");
    }
    if (routing == nullptr) {
        throw std::invalid_argument("SlidingWindow: null routing");
    }
    if (capacity_ == 0) {
        throw std::invalid_argument("SlidingWindow: zero capacity");
    }
    if (routing->rows() != topo->link_count() ||
        routing->cols() != topo->pair_count()) {
        throw std::invalid_argument(
            "SlidingWindow: routing does not match topology");
    }
    problem_.topo = topo;
    problem_.routing = routing;
}

std::size_t SlidingWindow::first_sample() const {
    if (samples_.empty()) {
        throw std::logic_error("SlidingWindow::first_sample: empty");
    }
    return samples_.front();
}

std::size_t SlidingWindow::last_sample() const {
    if (samples_.empty()) {
        throw std::logic_error("SlidingWindow::last_sample: empty");
    }
    return samples_.back();
}

const linalg::Vector& SlidingWindow::latest() const {
    if (problem_.loads.empty()) {
        throw std::logic_error("SlidingWindow::latest: empty");
    }
    return problem_.loads.back();
}

void SlidingWindow::push(std::size_t sample, linalg::Vector loads,
                         bool gap) {
    if (loads.size() != problem_.routing->rows()) {
        throw std::invalid_argument("SlidingWindow::push: load size");
    }
    if (!samples_.empty() && sample <= samples_.back()) {
        throw std::invalid_argument(
            "SlidingWindow::push: samples must be strictly increasing");
    }
    if (full()) {
        problem_.pop_front_load();
        samples_.pop_front();
    }
    problem_.push_load(std::move(loads));
    samples_.push_back(sample);
    ++total_pushed_;
    if (gap) ++gap_count_;
}

void SlidingWindow::reset(const linalg::SparseMatrix* routing) {
    if (routing == nullptr) {
        throw std::invalid_argument("SlidingWindow::reset: null routing");
    }
    problem_.routing = routing;
    problem_.loads.clear();
    samples_.clear();
}

void SlidingWindow::rebind_routing(const linalg::SparseMatrix* routing) {
    if (routing == nullptr) {
        throw std::invalid_argument(
            "SlidingWindow::rebind_routing: null routing");
    }
    if (routing->rows() != problem_.routing->rows() ||
        routing->cols() != problem_.routing->cols()) {
        throw std::invalid_argument(
            "SlidingWindow::rebind_routing: dimension mismatch");
    }
    problem_.routing = routing;
}

}  // namespace tme::engine
