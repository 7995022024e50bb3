// Log-bucketed latency histograms (HDR-style, fixed footprint).
//
// A LatencyHistogram records durations in nanoseconds into 976 atomic
// buckets spanning [1ns, ~584 years] with a guaranteed relative bucket
// width of at most 1/16 (6.25%): values below 16ns get exact unit
// buckets; above that, each power-of-two octave is split into 16
// sub-buckets by the 4 bits after the leading one.  Recording is two
// relaxed fetch_adds and a handful of bit ops — no allocation, no
// locks — so histograms stay live on the engine hot path.
//
// Readers take a HistogramSnapshot (plain values, mergeable across
// engines/jobs) and query p50/p95/p99/max.  Quantiles resolve to a
// bucket's lower bound, i.e. they under-report by at most one bucket
// width; with 6.25% buckets that error is far below scheduling noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metric_cell.hpp"

namespace tme::obs {

namespace detail {
/// 4 sub-bucket bits per octave: 16 linear slices between consecutive
/// powers of two.
inline constexpr int kHistSubBits = 4;
inline constexpr std::uint64_t kHistSub = 1u << kHistSubBits;
/// Buckets 0..15 hold exact values 0..15ns; each of the remaining
/// 64 - 4 = 60 octaves contributes 16 sub-buckets: 16 + 60*16 = 976.
inline constexpr std::size_t kHistBuckets =
    kHistSub + (64 - kHistSubBits) * kHistSub;

/// Bucket index for a nanosecond duration.
std::size_t hist_index(std::uint64_t ns);
/// Inclusive lower bound (ns) of the bucket with index `idx`.
std::uint64_t hist_lower_bound(std::size_t idx);
}  // namespace detail

/// Plain-value copy of a histogram, mergeable and queryable.  Bucket
/// vector is sized kHistBuckets (or empty for a default-constructed
/// snapshot, which behaves as all-zero).
struct HistogramSnapshot {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;

    /// Value (seconds) at quantile q in [0, 1]: lower bound of the
    /// bucket containing the ceil(q * count)-th recorded value.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    double max_seconds() const { return 1e-9 * static_cast<double>(max_ns); }
    double min_seconds() const { return 1e-9 * static_cast<double>(min_ns); }
    double mean_seconds() const {
        return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
    }

    /// Bucket-wise accumulate (for cross-engine / cross-job rollups).
    void merge(const HistogramSnapshot& other);
};

/// Fixed-size concurrent histogram.  Copy construction/assignment
/// snapshots the source cell by cell (relaxed loads), mirroring
/// MetricCell semantics so metric structs stay plainly copyable.
class LatencyHistogram {
  public:
    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram& other) { *this = other; }
    LatencyHistogram& operator=(const LatencyHistogram& other);

    /// Record one duration.  Negative durations (clock weirdness)
    /// clamp to zero rather than corrupting the high buckets.
    void record(double seconds) {
        record_ns(seconds <= 0.0
                      ? 0
                      : static_cast<std::uint64_t>(seconds * 1e9));
    }
    void record_ns(std::uint64_t ns);

    std::uint64_t count() const { return count_.load(); }
    /// Sum of the recorded durations, each truncated to nanoseconds.
    double sum_seconds() const { return sum_seconds_.load(); }
    /// Largest recorded duration, at nanosecond resolution.
    double max_seconds() const {
        return 1e-9 * static_cast<double>(max_ns_.load());
    }
    HistogramSnapshot snapshot() const;

  private:
    MetricCell<std::uint64_t> buckets_[detail::kHistBuckets];
    MetricCell<std::uint64_t> count_;
    MetricCell<double> sum_seconds_;
    MetricCell<std::uint64_t> min_ns_{~std::uint64_t{0}};
    MetricCell<std::uint64_t> max_ns_;
};

}  // namespace tme::obs
