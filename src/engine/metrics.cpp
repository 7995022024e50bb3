#include "engine/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "engine/scheduler.hpp"
#include "obs/report.hpp"

namespace tme::engine {

void record_run_quality(EngineMetrics& metrics, const MethodRun& run,
                        std::size_t window_end_sample) {
    MethodStats& stats = metrics.methods[run.method];
    if (run.solve_outcome == SolveOutcome::budget_exhausted) {
        ++stats.budget_exhausted_runs;
    } else if (run.solve_outcome == SolveOutcome::iteration_capped) {
        ++stats.capped_runs;
    }
    if (run.used_fallback) ++stats.fallback_runs;
    switch (run.quality) {
        case EstimateQuality::exact:
            return;
        case EstimateQuality::degraded:
            ++stats.degraded_runs;
            break;
        case EstimateQuality::stale:
            ++stats.stale_runs;
            break;
        case EstimateQuality::failed:
            ++stats.failed_runs;
            break;
    }
    DegradationRecord record;
    record.window_end_sample = window_end_sample;
    record.method = run.method;
    record.quality = run.quality;
    record.fallback_method = run.fallback_method;
    record.used_fallback = run.used_fallback;
    record.stale_age = run.stale_age;
    record.reason = run.degradation_reason;
    metrics.degradation.push(std::move(record));
}

void record_kernel_stats(EngineMetrics& metrics,
                         const ThreadPool::KernelStats& stats) {
    metrics.kernel_regions = stats.regions;
    metrics.kernel_regions_shared = stats.regions_shared;
    metrics.kernel_helper_blocks = stats.helper_blocks;
}

std::string EngineMetrics::summary() const {
    char line[320];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "samples=%zu gaps=%zu windows=%zu flushes=%zu "
                  "epoch_changes=%zu\n",
                  samples_ingested.load(), gap_samples.load(),
                  windows_run(), window_flushes.load(),
                  epoch_changes.load());
    out += line;
    std::snprintf(line, sizeof(line),
                  "epoch cache: hit rate %.3f (%zu hits, %zu misses, "
                  "%zu evictions)\n",
                  cache_hit_rate(), cache_hits.load(), cache_misses.load(),
                  cache_evictions.load());
    out += line;
    const obs::HistogramSnapshot window = window_latency.snapshot();
    std::snprintf(line, sizeof(line),
                  "latency: total %.3fs, last window %.2fms, "
                  "p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
                  total_seconds(), last_window_seconds.load() * 1e3,
                  window.p50() * 1e3, window.p95() * 1e3,
                  window.p99() * 1e3, window.max_seconds() * 1e3);
    out += line;
    const std::size_t degraded = degraded_runs();
    const std::size_t stale = stale_runs();
    const std::size_t failed = failed_runs();
    if (degraded + stale + failed > 0 || corrupt_samples.load() > 0 ||
        routing_faults.load() > 0) {
        std::snprintf(line, sizeof(line),
                      "degradation: degraded=%zu stale=%zu failed=%zu "
                      "budget_exhausted=%zu corrupt_samples=%zu "
                      "routing_faults=%zu\n",
                      degraded, stale, failed, budget_exhausted_runs(),
                      corrupt_samples.load(), routing_faults.load());
        out += line;
    }
    for (const auto& [method, stats] : methods) {
        const obs::HistogramSnapshot hist = stats.latency.snapshot();
        std::snprintf(line, sizeof(line),
                      "  %-9s runs=%zu warm=%zu/%zu mean=%.2fms "
                      "last=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms "
                      "max=%.2fms",
                      method_name(method), stats.runs(),
                      stats.warm_accepted_runs.load(),
                      stats.warm_runs.load(), stats.mean_seconds() * 1e3,
                      stats.last_seconds.load() * 1e3, hist.p50() * 1e3,
                      hist.p95() * 1e3, hist.p99() * 1e3,
                      stats.max_seconds() * 1e3);
        out += line;
        if (stats.mre_count.load() > 0) {
            std::snprintf(line, sizeof(line), " mean_mre=%.4f last_mre=%.4f",
                          stats.mean_mre(), stats.last_mre.load());
            out += line;
        }
        if (stats.solver.any()) {
            out += " iters=";
            out += obs::counters_to_json(stats.solver).dump();
        }
        if (stats.degraded_runs.load() > 0 || stats.stale_runs.load() > 0 ||
            stats.failed_runs.load() > 0) {
            std::snprintf(line, sizeof(line),
                          " degraded=%zu stale=%zu failed=%zu fallback=%zu",
                          stats.degraded_runs.load(), stats.stale_runs.load(),
                          stats.failed_runs.load(),
                          stats.fallback_runs.load());
            out += line;
        }
        out += '\n';
    }
    return out;
}

obs::Json EngineMetrics::to_json() const {
    obs::Json j = obs::Json::object();
    j.set("samples_ingested",
          static_cast<long long>(samples_ingested.load()));
    j.set("gap_samples", static_cast<long long>(gap_samples.load()));
    j.set("windows_run", static_cast<long long>(windows_run()));
    j.set("window_flushes", static_cast<long long>(window_flushes.load()));
    j.set("epoch_changes", static_cast<long long>(epoch_changes.load()));

    obs::Json cache = obs::Json::object();
    cache.set("hits", static_cast<long long>(cache_hits.load()));
    cache.set("misses", static_cast<long long>(cache_misses.load()));
    cache.set("evictions", static_cast<long long>(cache_evictions.load()));
    cache.set("hit_rate", cache_hit_rate());
    j.set("epoch_cache", std::move(cache));

    j.set("total_seconds", total_seconds());
    j.set("last_window_seconds", last_window_seconds.load());
    j.set("window_latency",
          obs::histogram_to_json(window_latency.snapshot()));
    j.set("epoch_build_latency",
          obs::histogram_to_json(epoch_build_latency.snapshot()));
    j.set("mre_skipped_runs",
          static_cast<long long>(mre_skipped_runs.load()));
    j.set("capped_runs", static_cast<long long>(capped_runs()));
    j.set("kernel_regions", static_cast<long long>(kernel_regions.load()));
    j.set("kernel_regions_shared",
          static_cast<long long>(kernel_regions_shared.load()));
    j.set("kernel_helper_blocks",
          static_cast<long long>(kernel_helper_blocks.load()));

    obs::Json degr = obs::Json::object();
    degr.set("degraded_runs", static_cast<long long>(degraded_runs()));
    degr.set("stale_runs", static_cast<long long>(stale_runs()));
    degr.set("failed_runs", static_cast<long long>(failed_runs()));
    degr.set("budget_exhausted_runs",
             static_cast<long long>(budget_exhausted_runs()));
    degr.set("corrupt_samples",
             static_cast<long long>(corrupt_samples.load()));
    degr.set("routing_faults", static_cast<long long>(routing_faults.load()));
    degr.set("records_dropped",
             static_cast<long long>(degradation.dropped()));
    obs::Json records = obs::Json::array();
    for (const DegradationRecord& record : degradation.snapshot()) {
        obs::Json r = obs::Json::object();
        r.set("window_end_sample",
              static_cast<long long>(record.window_end_sample));
        r.set("method", method_name(record.method));
        r.set("quality", estimate_quality_name(record.quality));
        if (record.used_fallback) {
            r.set("fallback_method", method_name(record.fallback_method));
        }
        if (record.quality == EstimateQuality::stale) {
            r.set("stale_age", static_cast<long long>(record.stale_age));
        }
        if (!record.reason.empty()) {
            r.set("reason", record.reason);
        }
        records.push_back(std::move(r));
    }
    degr.set("records", std::move(records));
    j.set("degradation", std::move(degr));

    obs::Json per_method = obs::Json::object();
    for (const auto& [method, stats] : methods) {
        obs::Json m = obs::Json::object();
        m.set("runs", static_cast<long long>(stats.runs()));
        m.set("warm_runs", static_cast<long long>(stats.warm_runs.load()));
        m.set("warm_accepted_runs",
              static_cast<long long>(stats.warm_accepted_runs.load()));
        m.set("mean_seconds", stats.mean_seconds());
        m.set("last_seconds", stats.last_seconds.load());
        m.set("max_seconds", stats.max_seconds());
        m.set("latency", obs::histogram_to_json(stats.latency.snapshot()));
        if (stats.solver.any()) {
            m.set("solver", obs::counters_to_json(stats.solver));
        }
        if (stats.mre_count.load() > 0) {
            m.set("mean_mre", stats.mean_mre());
            m.set("last_mre", stats.last_mre.load());
        }
        m.set("degraded_runs",
              static_cast<long long>(stats.degraded_runs.load()));
        m.set("stale_runs", static_cast<long long>(stats.stale_runs.load()));
        m.set("failed_runs",
              static_cast<long long>(stats.failed_runs.load()));
        m.set("fallback_runs",
              static_cast<long long>(stats.fallback_runs.load()));
        m.set("budget_exhausted_runs",
              static_cast<long long>(stats.budget_exhausted_runs.load()));
        m.set("capped_runs", static_cast<long long>(stats.capped_runs.load()));
        per_method.set(method_name(method), std::move(m));
    }
    j.set("methods", std::move(per_method));
    return j;
}

}  // namespace tme::engine
