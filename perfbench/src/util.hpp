// Small helpers shared by the benchmark's workloads, traced replay and
// report: clock, order statistics, a log-bucket latency histogram and
// the bitwise payload hash that the output checks compare.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "engine/scheduler.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
}

/// Nearest-rank percentile (`pct` in (0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double pct) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

/// Highest percentile of a fixed ladder with at least ten samples
/// beyond it, for `n` samples; 100 (the maximum) when even p50 has
/// fewer than ten beyond it.
inline double tail_percentile_for(std::size_t n) {
    static constexpr double ladder[] = {99.999, 99.99, 99.9, 99.0,
                                        95.0,   90.0,  75.0, 50.0};
    for (double pct : ladder) {
        if (static_cast<double>(n) * (100.0 - pct) / 100.0 >= 10.0) return pct;
    }
    return 100.0;
}

/// Log-bucket latency histogram (2% relative resolution from 10 ns):
/// constant memory however many reads a closed-loop reader issues.
/// Separate from obs::LatencyHistogram on purpose: the instrument must
/// not change when the code under measurement does.
class LogHistogram {
  public:
    void record(double seconds) {
        const double ns = std::max(seconds * 1e9, kMinNs);
        const auto bin = static_cast<std::size_t>(std::log(ns / kMinNs) /
                                                  std::log(kRatio));
        ++counts_[std::min(bin, counts_.size() - 1)];
        ++total_;
    }
    void merge(const LogHistogram& other) {
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            counts_[i] += other.counts_[i];
        }
        total_ += other.total_;
    }
    std::uint64_t count() const { return total_; }
    /// Nearest-rank percentile in seconds (bin geometric centre).
    double percentile(double pct) const {
        if (total_ == 0) return 0.0;
        const double rank =
            std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(total_)));
        double seen = 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += static_cast<double>(counts_[i]);
            if (seen >= rank) {
                return kMinNs * std::pow(kRatio, static_cast<double>(i) + 0.5) *
                       1e-9;
            }
        }
        return 0.0;
    }

  private:
    static constexpr double kMinNs = 10.0;
    static constexpr double kRatio = 1.02;
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(1400, 0);
    std::uint64_t total_ = 0;
};

inline std::uint64_t double_bits(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/// FNV-1a-style hash over the 64-bit patterns of every estimate, in run
/// order, with the method ids mixed in: two windows hash equal only if
/// their estimates are bitwise equal (to 64-bit collision odds).
class PayloadHash {
  public:
    void add(tme::engine::Method m, const tme::linalg::Vector& estimate) {
        mix(static_cast<std::uint64_t>(m));
        for (double v : estimate) mix(double_bits(v));
    }
    std::uint64_t value() const { return h_; }

  private:
    void mix(std::uint64_t word) {
        h_ ^= word;
        h_ *= 1099511628211ULL;
    }
    std::uint64_t h_ = 14695981039346656037ULL;
};

inline std::uint64_t payload_hash(const tme::engine::WindowResult& w) {
    PayloadHash h;
    for (const tme::engine::MethodRun& run : w.runs) h.add(run.method, run.estimate);
    return h.value();
}

inline std::uint64_t payload_hash(const tme::serve::EstimateSnapshot& s) {
    PayloadHash h;
    for (const tme::serve::MethodEstimate& e : s.methods()) {
        h.add(e.method, e.estimate);
    }
    return h.value();
}

/// A servable estimate: right-sized, finite and nonnegative.
inline bool estimate_servable(const tme::linalg::Vector& e, std::size_t pairs) {
    if (e.size() != pairs) return false;
    for (double v : e) {
        if (!std::isfinite(v) || v < 0.0) return false;
    }
    return true;
}

}  // namespace perfbench
