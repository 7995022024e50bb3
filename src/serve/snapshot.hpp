// Immutable per-window estimate snapshot — the unit the serving layer
// publishes and readers query.
//
// Each completed engine window becomes one EstimateSnapshot holding
// the engine's own record of it (engine::WindowResult): every method's
// MethodRun — estimate vector, MRE (NaN when the feed had no truth),
// wall time, solver counters, solve outcome and quality labels — plus
// the window bounds and the routing-epoch fingerprint the estimates
// were computed under.  A snapshot is frozen exactly once — when
// EstimateStore::publish() assigns its version — and never mutated
// afterwards, which is what makes the store's lock-free read path
// safe: a reader that wins the version check holds a pointer to data
// nobody will ever write again.
//
// Freezing computes a 64-bit FNV-1a checksum over the version, the
// window identity, every run's labels and every estimate's bit
// pattern; consistent() recomputes it, so a torn read (impossible by
// design, asserted by the stress tests and bench) is detectable rather
// than silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/scheduler.hpp"
#include "obs/json.hpp"

namespace tme::serve {

/// One method's published output for one window: the engine's own
/// run record.  Readers must check `quality` before trusting the
/// estimate — degraded/stale/failed windows are published (never
/// silently dropped) but labelled (engine/method.hpp).
using MethodEstimate = engine::MethodRun;

class EstimateSnapshot
    : public std::enable_shared_from_this<EstimateSnapshot> {
  public:
    EstimateSnapshot() = default;

    /// Copies one window result into a publishable snapshot.  The
    /// version stays 0 (unpublished) until a store freezes it.
    static EstimateSnapshot from_window(const engine::WindowResult& window);

    /// Store-assigned publication version; 0 before publication.
    std::uint64_t version() const { return version_; }
    std::size_t window_start_sample() const {
        return window_.window_start_sample;
    }
    std::size_t window_end_sample() const { return window_.window_end_sample; }
    std::size_t window_size() const { return window_.window_size; }
    std::uint64_t epoch_fingerprint() const {
        return window_.epoch_fingerprint;
    }
    /// Wall time of the window's whole estimation pass.
    double window_seconds() const { return window_.seconds; }

    const std::vector<MethodEstimate>& methods() const {
        return window_.runs;
    }
    /// The published estimate for `m`, or nullptr if the window did not
    /// run it (series methods below min_series_window).
    const MethodEstimate* find(engine::Method m) const {
        return window_.find(m);
    }
    /// OD-pair count of the estimate vectors (0 for an empty window).
    std::size_t pair_count() const {
        return window_.runs.empty() ? 0
                                    : window_.runs.front().estimate.size();
    }

    /// Checksum frozen at publication (0 before).
    std::uint64_t checksum() const { return checksum_; }
    /// Recomputes the checksum over the current bytes; false means the
    /// snapshot was torn or mutated after freeze — which the store's
    /// protocol makes impossible, so the stress tests assert it.
    bool consistent() const {
        return version_ != 0 && compute_checksum() == checksum_;
    }

    /// Snapshot metadata as an obs::Json document.  The 64-bit epoch
    /// fingerprint and checksum are exported as "0x..." hex strings:
    /// obs::Json integers are int64, and a high-bit fingerprint must
    /// survive a dump/parse round trip exactly.  Estimate vectors are
    /// included only when `include_estimates` (they dominate the size).
    obs::Json to_json(bool include_estimates = false) const;

  private:
    friend class EstimateStore;

    /// Assigns the publication version and seals the checksum.  Called
    /// exactly once, by the publishing store, before the snapshot
    /// becomes reachable by any reader.
    void freeze(std::uint64_t version);
    std::uint64_t compute_checksum() const;

    std::uint64_t version_ = 0;
    engine::WindowResult window_;
    std::uint64_t checksum_ = 0;
};

}  // namespace tme::serve
