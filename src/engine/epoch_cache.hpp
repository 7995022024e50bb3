// Routing-epoch cache: per-routing-matrix precomputations keyed by the
// content fingerprint of R.
//
// A backbone's routing matrix is piecewise constant in time — it changes
// only when the IGP reconverges or an operator reroutes LSPs — while
// load samples arrive every five minutes.  Everything derived purely
// from R is therefore cached per epoch and invalidated *exactly* when a
// route change produces a matrix with a different fingerprint.  The
// derived data — the routing transpose R' (the input of every Gram-free
// estimator: Bayesian, Vardi, fanout) and the fanout equality-constraint
// structure — is built lazily on first use and dies with the epoch.
// Neither is quadratic in the pair count: no pairs x pairs Gram, dense
// or CSR, is ever cached.  A small LRU keeps
// the last few epochs alive so routing flaps that revert to a previous
// configuration hit the cache again.
//
// Fingerprints are 64-bit, so distinct routing matrices could in
// principle collide; acquire() therefore verifies cheap structural
// identity (rows / cols / nonzero count) on every fingerprint hit and
// treats a mismatch as a miss, so a collision can never silently serve
// the wrong derived data.
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
#include <functional>
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
/// the moment acquire() returns.
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

    /// Cache-unique identity of this epoch.  Two epochs built from
    /// distinct matrices always have distinct serials even when their
    /// 64-bit fingerprints collide — compare serials, not
    /// fingerprints, to decide whether "the epoch changed".
    std::uint64_t serial() const { return serial_; }

    /// Structural identity of the source matrix (collision screening).
    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t nonzeros() const { return nonzeros_; }

    /// The epoch's own immutable copy of the routing matrix.
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
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t nonzeros_ = 0;
    linalg::SparseMatrix routing_;
    std::unique_ptr<Derived> derived_;
    std::shared_ptr<obs::LatencyHistogram> build_latency_;
};

class RoutingEpochCache {
  public:
    /// Content fingerprint function, injectable for collision tests;
    /// defaults to core::routing_fingerprint.
    using Fingerprint =
        std::function<std::uint64_t(const linalg::SparseMatrix&)>;

    explicit RoutingEpochCache(std::size_t capacity = 4,
                               Fingerprint fingerprint = {});

    /// Returns the epoch for `routing`, building it on a miss.  A
    /// fingerprint hit additionally requires structural identity
    /// (rows/cols/nnz); a colliding entry is left in place and a fresh
    /// epoch is built.  The returned pointer pins the epoch: it stays
    /// valid after eviction for as long as the caller holds it, so
    /// in-flight windows and fleet engines can never observe a
    /// destroyed epoch.  No pointer to `routing` is retained past this
    /// call.  Safe to call concurrently from many engines.
    std::shared_ptr<const RoutingEpoch> acquire_shared(
        const linalg::SparseMatrix& routing);

    /// Reference-returning convenience for single-threaded callers; the
    /// reference stays valid until `capacity` further distinct epochs
    /// have been acquired (at which point the entry is evicted and, if
    /// unpinned, destroyed).
    const RoutingEpoch& acquire(const linalg::SparseMatrix& routing) {
        return *acquire_shared(routing);
    }

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
    /// Fingerprint hits rejected by the structural-identity check.
    std::size_t collisions() const {
        return collisions_.load(std::memory_order_relaxed);
    }

    /// Derived-data build times across every epoch this cache created
    /// (a shared cache aggregates the whole fleet's builds).
    const obs::LatencyHistogram& build_latency() const {
        return *build_latency_;
    }

  private:
    std::size_t capacity_;
    Fingerprint fingerprint_;
    mutable std::mutex mutex_;  ///< guards entries_ and next_serial_
    std::uint64_t next_serial_ = 0;
    /// Most recently used first.  shared_ptr entries so a concurrent
    /// holder (window in flight, fleet engine) outlives an
    /// eviction.
    std::list<std::shared_ptr<RoutingEpoch>> entries_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> evictions_{0};
    std::atomic<std::size_t> collisions_{0};
    /// shared_ptr so epochs pinned past the cache's lifetime can still
    /// record their late lazy builds safely.
    std::shared_ptr<obs::LatencyHistogram> build_latency_ =
        std::make_shared<obs::LatencyHistogram>();
};

}  // namespace tme::engine
