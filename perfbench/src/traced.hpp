// The traced run: the benchmark replays a workload itself through the
// public layer functions, serially, and records one span per call.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One recorded call: name, start and end (seconds since the log's
/// origin) and the index of its parent span (kNoParent for a root).
struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = 0;
};

/// In-memory span log, written out once the run ends.  The benchmark
/// records its spans around the public calls itself rather than through
/// obs::Tracer, so the per-layer numbers do not depend on the program's
/// own instrumentation.
class SpanLog {
  public:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    SpanLog() { spans_.reserve(1 << 16); }

    std::size_t open(const char* name, std::size_t parent) {
        spans_.push_back({name, now(), 0.0, parent});
        return spans_.size() - 1;
    }
    void close(std::size_t index) { spans_[index].end = now(); }
    void rename(std::size_t index, const char* name) { spans_[index].name = name; }
    double duration(std::size_t index) const {
        return spans_[index].end - spans_[index].start;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    template <typename F>
    decltype(auto) timed(const char* name, std::size_t parent, F&& f) {
        struct Closer {
            SpanLog& log;
            std::size_t index;
            ~Closer() { log.close(index); }
        } closer{*this, open(name, parent)};
        return f();
    }

    const std::vector<Span>& spans() const { return spans_; }

    /// Writes the spans as Chrome trace_event JSON (viewable in Perfetto).
    void write_chrome_trace(const std::string& path) const;

  private:
    double now() const { return seconds_between(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/// Result of the traced replay.
struct TracedRun {
    std::size_t windows = 0;
    double wall_s = 0.0;
    std::vector<double> window_s;  ///< window span durations
    Tallies tallies;
    SpanLog spans;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    /// Per cold epoch: the missing acquire_shared (which builds the
    /// epoch) plus the derived data the schedule reads.
    std::vector<double> cold_epoch_s;
    std::size_t reclaim_deferred = 0;
    std::vector<double> capture_bytes;  ///< computed, per window
};

/// Replays between `min_windows` and `max_windows` windows of the
/// workload, stopping once `seconds` have passed, through
/// SlidingWindow, RoutingEpochCache,
/// WindowContext::capture, execute_method_guarded and the serving
/// layer, threading warm starts exactly as EstimatorScheduler does.
TracedRun run_traced(const WorkloadSpec& spec, const Inputs& in,
                     std::size_t min_windows, std::size_t max_windows,
                     double seconds);

/// Times the linalg kernels on the workload's own routing matrix.
struct KernelTimes {
    double rx_s = 0.0;           ///< multiply_into, per call
    double rtx_s = 0.0;          ///< multiply_transpose_into, per call
    double gram_column_s = 0.0;  ///< gram_column, per column
    double spmv_bytes = 0.0;     ///< computed bytes one SpMV moves
};
KernelTimes time_kernels(const Inputs& in);

/// Cost of recording one span, measured.
double span_cost_seconds();

/// Median duration of the spans named `name`.
double median_span(const SpanLog& log, const char* name);

/// Median self time of the root spans named `name` (duration minus the
/// part covered by their child spans).
double median_self_time(const SpanLog& log, const char* name);

}  // namespace perfbench
