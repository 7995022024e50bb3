#include "engine/epoch_cache.hpp"

#include <stdexcept>
#include <utility>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "core/route_change.hpp"
#include "engine/clock.hpp"
#include "obs/trace.hpp"

namespace tme::engine {

RoutingEpoch::RoutingEpoch(std::uint64_t fingerprint, std::uint64_t serial,
                           const linalg::SparseMatrix& routing,
                           std::shared_ptr<obs::LatencyHistogram>
                               build_latency)
    : fingerprint_(fingerprint),
      serial_(serial),
      rows_(routing.rows()),
      cols_(routing.cols()),
      nonzeros_(routing.nonzeros()),
      routing_(routing),
      derived_(std::make_unique<Derived>()),
      build_latency_(std::move(build_latency)) {}

void RoutingEpoch::record_build(double build_seconds) const {
    if (build_latency_ != nullptr) build_latency_->record(build_seconds);
}

const linalg::SparseMatrix& RoutingEpoch::routing_transpose() const {
    {
        std::shared_lock<std::shared_mutex> read(derived_->mutex);
        if (derived_->transpose_built) return derived_->transpose;
    }
    std::unique_lock<std::shared_mutex> write(derived_->mutex);
    if (!derived_->transpose_built) {
        obs::Span span("epoch/build_routing_transpose");
        const SteadyClock::time_point start = SteadyClock::now();
        derived_->transpose = linalg::transpose(routing_);
        derived_->transpose_built = true;
        TME_CONTRACT_DBG_CHECK(check::csr_structure(
            derived_->transpose, "epoch routing transpose"));
        record_build(seconds_since(start));
    }
    return derived_->transpose;
}

bool RoutingEpoch::routing_transpose_built() const {
    std::shared_lock<std::shared_mutex> read(derived_->mutex);
    return derived_->transpose_built;
}

const core::FanoutConstraints& RoutingEpoch::fanout_constraints(
    const topology::Topology& topo) const {
    if (topo.pair_count() != cols_) {
        throw std::invalid_argument(
            "RoutingEpoch::fanout_constraints: topology does not match "
            "the routing matrix");
    }
    {
        std::shared_lock<std::shared_mutex> read(derived_->mutex);
        if (derived_->fanout_built) return derived_->fanout;
    }
    std::unique_lock<std::shared_mutex> write(derived_->mutex);
    if (!derived_->fanout_built) {
        obs::Span span("epoch/build_fanout_constraints");
        const SteadyClock::time_point start = SteadyClock::now();
        derived_->fanout = core::FanoutConstraints::build(topo);
        derived_->fanout_built = true;
        TME_CONTRACT_DBG_CHECK(check::csr_structure(
            derived_->fanout.equality_sparse,
            "epoch fanout equality constraints"));
        ++derived_->builds;
        record_build(seconds_since(start));
    }
    return derived_->fanout;
}

std::size_t RoutingEpoch::derived_builds() const {
    std::shared_lock<std::shared_mutex> read(derived_->mutex);
    return derived_->builds;
}

RoutingEpochCache::RoutingEpochCache(std::size_t capacity,
                                     Fingerprint fingerprint)
    : capacity_(capacity), fingerprint_(std::move(fingerprint)) {
    if (capacity_ == 0) {
        throw std::invalid_argument("RoutingEpochCache: zero capacity");
    }
    if (!fingerprint_) {
        fingerprint_ = [](const linalg::SparseMatrix& routing) {
            return core::routing_fingerprint(routing);
        };
    }
}

std::size_t RoutingEpochCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::shared_ptr<const RoutingEpoch> RoutingEpochCache::acquire_shared(
    const linalg::SparseMatrix& routing) {
    // The fingerprint is a pure function of the matrix content; compute
    // it outside the lock so concurrent engines only serialize on the
    // LRU bookkeeping (a miss only copies the CSR arrays — all derived
    // data builds lazily under the epoch's own double-checked lock,
    // exactly once per epoch).
    const std::uint64_t fp = fingerprint_(routing);
    obs::Span span("cache/acquire");
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if ((*it)->fingerprint() != fp) continue;
        // A 64-bit fingerprint can collide; serving a colliding entry
        // would hand the wrong derived data to every solver.  Cheap structural
        // identity gates the hit; a mismatch falls through to a miss.
        if ((*it)->rows() != routing.rows() ||
            (*it)->cols() != routing.cols() ||
            (*it)->nonzeros() != routing.nonzeros()) {
            collisions_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        span.arg("hit", 1);
        entries_.splice(entries_.begin(), entries_, it);
        return entries_.front();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    span.arg("hit", 0);
    entries_.push_front(std::make_shared<RoutingEpoch>(
        fp, ++next_serial_, routing, build_latency_));
    while (entries_.size() > capacity_) {
        entries_.pop_back();  // pinned holders keep the epoch alive
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return entries_.front();
}

}  // namespace tme::engine
