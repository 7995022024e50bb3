// Routing-epoch cache: per-routing-matrix precomputations, one epoch
// per distinct routing content.
//
// A backbone's routing matrix is piecewise constant in time — it changes
// only when the IGP reconverges or an operator reroutes LSPs — while
// load samples arrive every five minutes.  Everything derived purely
// from R is therefore cached per epoch.  An epoch is identified by its
// content: acquire_shared() compares the matrix with each cached
// epoch's own CSR copy (SparseMatrix::operator==), so two routings that
// differ in any entry never share an epoch, whatever their shape or
// fingerprint.  The 64-bit fingerprint is computed once, when an epoch
// is built, and only labels it in reports.  The derived data — the
// routing transpose R' (the input of every Gram-free estimator:
// Bayesian, Vardi, fanout) and the fanout equality-constraint structure
// — is built lazily on first use and dies with the epoch.  Neither is
// quadratic in the pair count: no pairs x pairs Gram, dense or CSR, is
// ever cached.  A small LRU keeps the last few epochs alive so routing
// flaps that revert to a previous configuration hit the cache again.
//
// The online engine acquires only when the routing changes (its first
// sample, and its first sample after a reroute) and pins the epoch
// until the next change, so the cache's hit and miss counters count
// routing announcements, not samples.
//
// Thread-safety: one cache may be shared by a whole fleet of engines on
// the same topology.  acquire_shared() is safe to call concurrently
// (the LRU list is mutex-guarded; the returned shared_ptr pins the
// epoch across later evictions), and each epoch's lazy derived-data
// accessors use shared-mutex double-checked builds so N engines
// requesting the same quantity on a cold epoch build it exactly once
// and then read it lock-free of each other.  Counters are relaxed
// atomics so metric readers never see torn values.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "core/fanout.hpp"
#include "linalg/sparse.hpp"
#include "obs/histogram.hpp"

namespace tme::engine {

/// Cached derived data for one routing configuration.  The epoch keeps
/// a private CSR *copy* of the matrix it was built from (cheap — the
/// nonzeros only), never a pointer — callers may destroy their matrix
/// the moment acquire_shared() returns.
class RoutingEpoch {
  public:
    /// `build_latency` (optional) receives one sample per lazy derived-
    /// data build; co-owned so an epoch pinned past its cache's death
    /// still has a live sink.
    RoutingEpoch(std::uint64_t fingerprint, std::uint64_t serial,
                 const linalg::SparseMatrix& routing,
                 std::shared_ptr<obs::LatencyHistogram> build_latency =
                     nullptr);

    std::uint64_t fingerprint() const { return fingerprint_; }

    /// Build order of this epoch within its cache (1, 2, ...): a
    /// rebuild after eviction gets a fresh serial.  The engine does not
    /// read it; perfbench/src/traced.cpp:143 does, to tell when its
    /// traced replay must flush its window.
    std::uint64_t serial() const { return serial_; }

    /// The epoch's own immutable copy of the routing matrix — the
    /// epoch's identity (compare it with operator==).
    const linalg::SparseMatrix& routing() const { return routing_; }

    /// CSR transpose R' of the routing matrix, built lazily on first
    /// use — the shared input of every Gram-free operator path (Vardi,
    /// Bayesian, fanout): row p of R' lists column p's carriers, source
    /// rows ascending, which is exactly what linalg::gram_column needs
    /// to replay the Gram kernels bit-for-bit.  O(nnz) to build and
    /// store — the engine's default schedule derives everything from
    /// this instead of any pairs x pairs Gram.  Does not count toward
    /// derived_builds().
    const linalg::SparseMatrix& routing_transpose() const;

    /// True once the routing transpose has been built (telemetry).
    bool routing_transpose_built() const;

    /// Fanout equality-constraint structure (row pattern of E and the
    /// all-ones right-hand side), built lazily from the topology on
    /// first use.  The topology must match the routing matrix's pair
    /// count.  Valid until the epoch dies; concurrent cold callers
    /// build exactly once.
    const core::FanoutConstraints& fanout_constraints(
        const topology::Topology& topo) const;

    /// Number of lazy fanout-constraint builds performed so far
    /// (telemetry / tests; cache hits do not increment it).
    std::size_t derived_builds() const;

  private:
    struct Derived {
        /// Readers share; a cold build upgrades to exclusive and
        /// re-checks, so racing cold callers build each item once.
        mutable std::shared_mutex mutex;
        bool transpose_built = false;
        linalg::SparseMatrix transpose;
        bool fanout_built = false;
        core::FanoutConstraints fanout;
        std::size_t builds = 0;
    };

    /// Times `build_seconds` into the build-latency histogram (no-op
    /// without a sink).
    void record_build(double build_seconds) const;

    std::uint64_t fingerprint_ = 0;
    std::uint64_t serial_ = 0;
    linalg::SparseMatrix routing_;
    std::unique_ptr<Derived> derived_;
    std::shared_ptr<obs::LatencyHistogram> build_latency_;
};

class RoutingEpochCache {
  public:
    explicit RoutingEpochCache(std::size_t capacity = 4);

    /// Returns the epoch whose routing equals `routing` entry for
    /// entry, building it (and fingerprinting it) on a miss.  The
    /// returned pointer pins the epoch: it stays valid after eviction
    /// for as long as the caller holds it, so in-flight windows and
    /// fleet engines can never observe a destroyed epoch.  No pointer
    /// to `routing` is retained past this call.  Safe to call
    /// concurrently from many engines.
    std::shared_ptr<const RoutingEpoch> acquire_shared(
        const linalg::SparseMatrix& routing);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;
    std::size_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    std::size_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }
    std::size_t evictions() const {
        return evictions_.load(std::memory_order_relaxed);
    }

    /// Derived-data build times across every epoch this cache created
    /// (a shared cache aggregates the whole fleet's builds).
    const obs::LatencyHistogram& build_latency() const {
        return *build_latency_;
    }

  private:
    std::size_t capacity_;
    mutable std::mutex mutex_;  ///< guards entries_ and next_serial_
    std::uint64_t next_serial_ = 0;
    /// Most recently used first.  shared_ptr entries so a concurrent
    /// holder (window in flight, fleet engine) outlives an
    /// eviction.
    std::list<std::shared_ptr<RoutingEpoch>> entries_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> evictions_{0};
    /// shared_ptr so epochs pinned past the cache's lifetime can still
    /// record their late lazy builds safely.
    std::shared_ptr<obs::LatencyHistogram> build_latency_ =
        std::make_shared<obs::LatencyHistogram>();
};

}  // namespace tme::engine
