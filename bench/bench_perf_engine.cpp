// Engine perf bench: the online engine vs. naive per-window
// recomputation.
//
// Streams a scenario day through (a) the online engine — ring-buffered
// window, routing-epoch-cached derived data, warm starts — and (b) a
// naive baseline that rebuilds every window's SeriesProblem from
// scratch and recomputes every R-derived quantity per window, exactly
// as the offline benches do.  Two engines — one cold-started, one
// warm-started — are fed the same samples interleaved, so load spikes
// hit both alike; all paths run the same methods (gravity, Bayesian,
// Vardi, fanout) single-threaded.  The cold engine computes each
// window's aggregates with the estimators' own functions, so its
// estimates must equal the naive ones bitwise; the warm engine's must
// agree to within 1e-9.  The bench FAILS (non-zero exit) if estimates
// diverge, if the warm engine is not faster than naive recomputation,
// or if the fanout QP's active-set warm start does not make the fanout
// method at least 1.5x faster per window than its cold runs.
//
// A second phase benchmarks the multi-scenario fleet driver: four
// scenarios on one topology run back to back on a serial engine and
// then concurrently under FleetDriver (one shared epoch cache).  The
// fleet's estimates must match the serial engine's to 1e-9 and be
// bit-for-bit stable across two fleet runs; on a
// multi-core host the fleet must reach at least 1.5x the serial
// aggregate window throughput.  The gate is skipped only on a single
// hardware thread, where no speedup is physically possible, and the
// JSON records the skip reason plus the host core count so a skipped
// gate is auditable.  The fleet phase runs a deliberately smaller
// working set than the single-engine phase (shorter replays, smaller
// window) so that four concurrent engines fit the 2-core CI bench
// runner's cache and the gate actually engages there — it measures
// driver concurrency, not cache capacity.
//
// A third phase measures the observability layer itself: a traced
// replay must produce bit-for-bit the estimates of an untraced one
// (counters and spans may never perturb arithmetic), the per-span cost
// is microbenchmarked and scaled by the replay's span count to gate
// the tracing overhead (<1% of replay wall disabled, <5% enabled —
// derived rather than differenced, so the gate is stable on a loaded
// single-core host), and a two-scenario fleet run is exported as a
// Chrome trace_event JSON artifact for Perfetto.
//
// Results are also written to BENCH_engine.json (per-method window
// timings with p50/p95/p99 latency and solver iteration counters,
// cold/warm speedups, cache hit rate, fleet throughput) so the perf
// trajectory stays machine-readable across PRs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/bayesian.hpp"
#include "core/fanout.hpp"
#include "core/gravity.hpp"
#include "core/vardi.hpp"
#include "engine/engine.hpp"
#include "engine/fleet.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using tme::engine::Method;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double max_abs_diff(const tme::linalg::Vector& a,
                    const tme::linalg::Vector& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    return worst;
}

/// Estimates for one window, in method order gravity / bayesian /
/// vardi / fanout (series slots empty below the series threshold).
struct WindowEstimates {
    std::vector<tme::linalg::Vector> by_method;
};

constexpr std::size_t kMinSeriesWindow = 3;

std::vector<WindowEstimates> run_naive(const tme::scenario::Scenario& sc,
                                       std::size_t samples,
                                       std::size_t window_size) {
    using namespace tme;
    std::vector<WindowEstimates> out;
    out.reserve(samples);
    std::vector<linalg::Vector> history;
    for (std::size_t k = 0; k < samples; ++k) {
        history.push_back(sc.loads[k]);
        const std::size_t wsize = std::min(window_size, history.size());

        // Rebuild the window problem from scratch: copy the load
        // vectors and recompute everything the estimators need.
        core::SeriesProblem series;
        series.topo = &sc.topo;
        series.routing = &sc.routing;
        series.loads.assign(history.end() - static_cast<std::ptrdiff_t>(wsize),
                            history.end());

        core::SnapshotProblem latest;
        latest.topo = &sc.topo;
        latest.routing = &sc.routing;
        latest.loads = series.loads.back();

        WindowEstimates est;
        const linalg::Vector prior = core::gravity_estimate(latest);
        est.by_method.push_back(prior);
        est.by_method.push_back(core::bayesian_estimate(latest, prior));
        if (wsize >= kMinSeriesWindow) {
            est.by_method.push_back(core::vardi_estimate(series).lambda);
            est.by_method.push_back(
                core::fanout_estimate(series).mean_demands);
        }
        out.push_back(std::move(est));
    }
    return out;
}

struct EngineRun {
    std::vector<WindowEstimates> estimates;
    tme::engine::EngineMetrics metrics;
    double seconds = 0.0;  ///< wall time spent inside this engine
};

tme::engine::EngineConfig engine_config(std::size_t window_size,
                                        bool warm_start) {
    tme::engine::EngineConfig config;
    config.window_size = window_size;
    config.min_series_window = kMinSeriesWindow;
    config.methods = {Method::gravity, Method::bayesian, Method::vardi,
                      Method::fanout};
    config.threads = 0;  // single-threaded, like the baseline
    config.warm_start = warm_start;
    return config;
}

void ingest_into(tme::engine::OnlineEngine& eng, EngineRun& out,
                 std::size_t sample, const tme::linalg::Vector& loads) {
    const Clock::time_point start = Clock::now();
    tme::engine::WindowResult result = eng.ingest(sample, loads);
    out.seconds += seconds_since(start);
    WindowEstimates est;
    for (auto& run : result.runs) {
        est.by_method.push_back(std::move(run.estimate));
    }
    out.estimates.push_back(std::move(est));
}

/// Streams the day through a cold-started and a warm-started engine,
/// interleaved sample by sample (alternating order), so load spikes and
/// frequency scaling hit both paths alike and the warm-vs-cold ratio
/// stays meaningful on a busy machine.
std::pair<EngineRun, EngineRun> run_engines(const tme::scenario::Scenario& sc,
                                            std::size_t samples,
                                            std::size_t window_size) {
    using namespace tme;
    engine::OnlineEngine cold(sc.topo, sc.routing,
                              engine_config(window_size, false));
    engine::OnlineEngine warm(sc.topo, sc.routing,
                              engine_config(window_size, true));

    std::pair<EngineRun, EngineRun> out;
    out.first.estimates.reserve(samples);
    out.second.estimates.reserve(samples);
    for (std::size_t k = 0; k < samples; ++k) {
        if (k % 2 == 0) {
            ingest_into(cold, out.first, k, sc.loads[k]);
            ingest_into(warm, out.second, k, sc.loads[k]);
        } else {
            ingest_into(warm, out.second, k, sc.loads[k]);
            ingest_into(cold, out.first, k, sc.loads[k]);
        }
    }
    out.first.metrics = cold.metrics();
    out.second.metrics = warm.metrics();
    return out;
}

/// Worst estimate difference between two full window-result streams
/// (1e300 on any shape mismatch).
double compare_windows(const std::vector<tme::engine::WindowResult>& a,
                       const std::vector<tme::engine::WindowResult>& b) {
    if (a.size() != b.size()) return 1e300;
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].runs.size() != b[k].runs.size()) return 1e300;
        for (std::size_t m = 0; m < a[k].runs.size(); ++m) {
            if (a[k].runs[m].method != b[k].runs[m].method ||
                a[k].runs[m].estimate.size() !=
                    b[k].runs[m].estimate.size()) {
                return 1e300;
            }
            worst = std::max(worst, max_abs_diff(a[k].runs[m].estimate,
                                                 b[k].runs[m].estimate));
        }
    }
    return worst;
}

/// One fleet pass over the prepared jobs (shared epoch cache, one
/// worker per job), keeping full window results for
/// the equivalence checks.
tme::engine::FleetReport run_fleet(
    const std::vector<tme::engine::FleetJob>& jobs,
    const tme::engine::EngineConfig& config) {
    using namespace tme;
    engine::FleetConfig fleet_config;
    fleet_config.engine = config;
    fleet_config.concurrency = jobs.size();
    fleet_config.cache_capacity = jobs.size();
    fleet_config.keep_windows = true;
    engine::FleetDriver driver(jobs.front().scenario->topo, fleet_config);
    return driver.run(jobs);
}

double compare(const std::vector<WindowEstimates>& a,
               const std::vector<WindowEstimates>& b) {
    if (a.size() != b.size()) return 1e300;
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].by_method.size() != b[k].by_method.size()) return 1e300;
        for (std::size_t m = 0; m < a[k].by_method.size(); ++m) {
            if (a[k].by_method[m].size() != b[k].by_method[m].size()) {
                return 1e300;
            }
            worst = std::max(
                worst, max_abs_diff(a[k].by_method[m], b[k].by_method[m]));
        }
    }
    return worst;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace tme;

    std::size_t samples = 288;
    std::size_t window_size = 36;
    scenario::Network network = scenario::Network::europe;
    std::string json_path = "BENCH_engine.json";
    std::string trace_path = "BENCH_engine_trace.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--samples") && i + 1 < argc) {
            samples = static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--window") && i + 1 < argc) {
            window_size = static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--usa")) {
            network = scenario::Network::usa;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::printf("usage: %s [--samples N] [--window W] [--usa] "
                        "[--json PATH] [--trace PATH]\n",
                        argv[0]);
            return 2;
        }
    }
    if (samples == 0 || window_size == 0) {
        std::printf("error: --samples and --window must be positive\n");
        return 2;
    }

    bench::header(
        "Engine perf: online engine vs naive recomputation",
        "new subsystem (streaming engine); paper Sec. 5.1 operational "
        "setting",
        "engine processes the day faster with identical estimates");

    const scenario::Scenario sc = scenario::make_scenario(network);
    samples = std::min(samples, sc.loads.size());
    std::printf("network=%s samples=%zu window=%zu methods=gravity,"
                "bayesian,vardi,fanout\n\n",
                sc.name.c_str(), samples, window_size);

    const Clock::time_point t_naive = Clock::now();
    const auto naive = run_naive(sc, samples, window_size);
    const double naive_seconds = seconds_since(t_naive);

    const auto [engine_cold, engine_warm] =
        run_engines(sc, samples, window_size);
    const double cold_seconds = engine_cold.seconds;
    const double warm_seconds = engine_warm.seconds;

    const double cold_diff = compare(naive, engine_cold.estimates);
    const double warm_diff = compare(naive, engine_warm.estimates);

    std::printf("naive rebuild-per-window : %8.3f s\n", naive_seconds);
    std::printf("engine (cold starts)     : %8.3f s   speedup %.2fx   "
                "max |diff| %.3g\n",
                cold_seconds, naive_seconds / cold_seconds, cold_diff);
    std::printf("engine (warm starts)     : %8.3f s   speedup %.2fx   "
                "max |diff| %.3g\n",
                warm_seconds, naive_seconds / warm_seconds, warm_diff);

    // Per-method cold/warm window timings.  The fanout method carries
    // the dominant per-window cost (its equality-constrained
    // non-negative QP), so its warm-vs-cold ratio is gated: the
    // active-set warm start must pay for itself.
    std::printf("\nper-method mean window time (cold -> warm):\n");
    double fanout_warm_speedup = 0.0;
    for (const auto& [method, cold_stats] : engine_cold.metrics.methods) {
        const auto it = engine_warm.metrics.methods.find(method);
        if (it == engine_warm.metrics.methods.end()) continue;
        const tme::engine::MethodStats& warm_stats = it->second;
        const double ratio =
            warm_stats.mean_seconds() > 0.0
                ? cold_stats.mean_seconds() / warm_stats.mean_seconds()
                : 0.0;
        std::printf("  %-9s %8.3fms -> %8.3fms  (%.2fx, warm accepted "
                    "%zu/%zu)\n",
                    tme::engine::method_name(method),
                    cold_stats.mean_seconds() * 1e3,
                    warm_stats.mean_seconds() * 1e3, ratio,
                    warm_stats.warm_accepted_runs.load(),
                    warm_stats.warm_runs.load());
        if (method == Method::fanout) fanout_warm_speedup = ratio;
    }

    // ---- Fleet phase: 4 scenarios on one topology, serial vs fleet.
    // Deliberately smaller per-job working set than the single-engine
    // phase: the throughput gate measures FleetDriver concurrency, and
    // on the 2-core CI bench runner four full-day engines with 36-deep
    // windows evict each other's aggregates from the shared cache,
    // hiding the concurrency win the gate is after.
    constexpr std::size_t kFleetJobs = 4;
    const std::size_t fleet_samples = std::min<std::size_t>(samples, 96);
    const std::size_t fleet_window = std::min<std::size_t>(window_size, 12);
    std::printf("\nfleet: %zu %s scenarios x %zu samples, window %zu "
                "(serial engines vs FleetDriver, shared epoch cache)\n",
                kFleetJobs, sc.name.c_str(), fleet_samples, fleet_window);
    std::vector<scenario::Scenario> fleet_scenarios;
    fleet_scenarios.reserve(kFleetJobs);
    for (unsigned s = 0; s < kFleetJobs; ++s) {
        scenario::Scenario fsc = scenario::make_scenario(network, s + 1);
        if (fsc.demands.size() > fleet_samples) {  // bound the replay
            fsc.demands.resize(fleet_samples);
            fsc.loads.resize(fleet_samples);
        }
        fleet_scenarios.push_back(std::move(fsc));
    }
    const engine::EngineConfig fleet_engine_config =
        engine_config(fleet_window, true);
    std::vector<engine::FleetJob> fleet_jobs(kFleetJobs);
    for (std::size_t j = 0; j < kFleetJobs; ++j) {
        fleet_jobs[j].name = sc.name + "-seed" + std::to_string(j + 1);
        fleet_jobs[j].scenario = &fleet_scenarios[j];
        fleet_jobs[j].replay.attach_truth = false;
    }

    // Serial baseline: one engine at a time, each with a private cache.
    std::vector<std::vector<engine::WindowResult>> serial_windows;
    serial_windows.reserve(kFleetJobs);
    double fleet_serial_seconds = 0.0;
    for (std::size_t j = 0; j < kFleetJobs; ++j) {
        engine::OnlineEngine eng(fleet_scenarios[j].topo,
                                 fleet_scenarios[j].routing,
                                 fleet_engine_config);
        const Clock::time_point t0 = Clock::now();
        engine::ReplayResult r = engine::replay_scenario(
            eng, fleet_scenarios[j], fleet_jobs[j].replay);
        fleet_serial_seconds += seconds_since(t0);
        serial_windows.push_back(std::move(r.windows));
    }

    // Fleet runs (twice, for the bit-stability check).
    const engine::FleetReport fleet =
        run_fleet(fleet_jobs, fleet_engine_config);
    const engine::FleetReport fleet_repeat =
        run_fleet(fleet_jobs, fleet_engine_config);

    double fleet_diff_vs_serial = 0.0;
    double fleet_diff_repeat = 0.0;
    for (std::size_t j = 0; j < kFleetJobs; ++j) {
        fleet_diff_vs_serial = std::max(
            fleet_diff_vs_serial,
            compare_windows(serial_windows[j],
                            fleet.jobs[j].window_results));
        fleet_diff_repeat = std::max(
            fleet_diff_repeat,
            compare_windows(fleet.jobs[j].window_results,
                            fleet_repeat.jobs[j].window_results));
    }
    const double fleet_speedup =
        fleet.wall_seconds > 0.0 ? fleet_serial_seconds / fleet.wall_seconds
                                 : 0.0;
    // On a single hardware thread no concurrent speedup is physically
    // possible; the throughput gate only applies on multi-core hosts.
    // Both the verdict and the reason land in the JSON so a skipped
    // gate is visible in the perf trajectory, not silently absent.
    const unsigned host_cores = std::thread::hardware_concurrency();
    const bool fleet_gate_applicable = host_cores >= 2;
    const std::string fleet_gate_skip_reason =
        fleet_gate_applicable
            ? ""
            : "single hardware thread: no concurrent speedup is "
              "physically possible";
    std::printf("serial %zu scenarios      : %8.3f s\n", kFleetJobs,
                fleet_serial_seconds);
    std::printf("fleet  %zu scenarios      : %8.3f s   speedup %.2fx   "
                "max |diff| vs serial %.3g\n",
                kFleetJobs, fleet.wall_seconds, fleet_speedup,
                fleet_diff_vs_serial);
    std::printf("%s", fleet.summary().c_str());

    // ---- Observability phase: tracing cost, equivalence, export.
    std::printf("\nobservability: tracing %s\n",
                obs::tracing_compiled() ? "compiled in" : "compiled out");

    // Per-span cost, microbenchmarked disabled (one relaxed load) and
    // enabled (ring push).  The replay-level overhead is derived as
    // span_count x per-span cost / replay wall rather than differenced
    // between two full runs, so the <1%/<5% gates hold even when a
    // loaded host adds multi-percent run-to-run wall-clock noise.
    constexpr std::size_t kSpanReps = 2000000;
    const auto span_cost_ns = [](std::size_t reps) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < reps; ++i) {
            obs::Span span("bench/span_cost");
        }
        return seconds_since(t0) * 1e9 / static_cast<double>(reps);
    };
    const double span_disabled_ns = span_cost_ns(kSpanReps);
    double span_enabled_ns = 0.0;
    {
        obs::ScopedTracing tracing(true);
        span_enabled_ns = span_cost_ns(kSpanReps);
    }
    obs::Tracer::instance().clear();

    // Traced replay of scenario 0: estimates must be bit-for-bit those
    // of the untraced serial replay (spans and counters never touch the
    // arithmetic), and its span count feeds the overhead model.
    std::uint64_t replay_spans = 0;
    double traced_diff = 0.0;
    double traced_seconds = 0.0;
    {
        obs::ScopedTracing tracing(true);
        const std::uint64_t recorded0 =
            obs::Tracer::instance().recorded();
        engine::OnlineEngine eng(fleet_scenarios[0].topo,
                                 fleet_scenarios[0].routing,
                                 fleet_engine_config);
        const Clock::time_point t0 = Clock::now();
        engine::ReplayResult r = engine::replay_scenario(
            eng, fleet_scenarios[0], fleet_jobs[0].replay);
        traced_seconds = seconds_since(t0);
        replay_spans = obs::Tracer::instance().recorded() - recorded0;
        traced_diff = compare_windows(serial_windows[0], r.windows);
    }
    const double replay_ns = traced_seconds * 1e9;
    const double overhead_disabled_pct =
        replay_ns > 0.0 ? 100.0 * static_cast<double>(replay_spans) *
                              span_disabled_ns / replay_ns
                        : 0.0;
    const double overhead_enabled_pct =
        replay_ns > 0.0 ? 100.0 * static_cast<double>(replay_spans) *
                              span_enabled_ns / replay_ns
                        : 0.0;
    std::printf("  span cost: disabled %.2f ns, enabled %.1f ns\n",
                span_disabled_ns, span_enabled_ns);
    std::printf("  traced replay: %llu spans, derived overhead "
                "disabled %.4f%% / enabled %.3f%%, max |diff| vs "
                "untraced %.3g\n",
                static_cast<unsigned long long>(replay_spans),
                overhead_disabled_pct, overhead_enabled_pct, traced_diff);

    // Two-scenario fleet under tracing: the exported Chrome trace is
    // the CI artifact (and what the trace-validation test re-parses).
    obs::Tracer::instance().clear();
    {
        obs::ScopedTracing tracing(true);
        const std::vector<engine::FleetJob> trace_jobs{fleet_jobs[0],
                                                       fleet_jobs[1]};
        run_fleet(trace_jobs, fleet_engine_config);
    }
    const bool trace_written =
        obs::Tracer::instance().write_chrome_trace(trace_path);
    std::printf("  %s %s (%llu spans, %llu dropped)\n",
                trace_written ? "wrote" : "WARNING: could not write",
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().recorded()),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().dropped()));

    // Machine-readable record for cross-PR perf tracking.
    obs::Report report("bench_perf_engine");
    report.set("network", sc.name);
    report.set("samples", samples);
    report.set("window", window_size);
    report.set("naive_seconds", naive_seconds);
    report.set("cold_seconds", cold_seconds);
    report.set("warm_seconds", warm_seconds);
    report.set("speedup_cold", naive_seconds / cold_seconds);
    report.set("speedup_warm", naive_seconds / warm_seconds);
    report.set("max_diff_cold", cold_diff);
    report.set("max_diff_warm", warm_diff);
    report.set("cache_hit_rate", engine_warm.metrics.cache_hit_rate());
    report.set("fanout_warm_speedup", fanout_warm_speedup);
    report.set("fleet_jobs", kFleetJobs);
    report.set("fleet_samples", fleet_samples);
    report.set("fleet_window", fleet_window);
    report.set("fleet_serial_seconds", fleet_serial_seconds);
    report.set("fleet_wall_seconds", fleet.wall_seconds);
    report.set("fleet_speedup", fleet_speedup);
    report.set("fleet_max_diff_vs_serial", fleet_diff_vs_serial);
    report.set("fleet_bitstable", fleet_diff_repeat == 0.0);
    report.set("fleet_gate_applied", fleet_gate_applicable);
    report.set("fleet_gate_skip_reason", fleet_gate_skip_reason);
    report.set("host_hardware_concurrency", host_cores);
    report.set("compiler", __VERSION__);
    {
        obs::Json obs_section = obs::Json::object();
        obs_section.set("tracing_compiled", obs::tracing_compiled());
        obs_section.set("span_cost_disabled_ns", span_disabled_ns);
        obs_section.set("span_cost_enabled_ns", span_enabled_ns);
        obs_section.set("replay_spans", replay_spans);
        obs_section.set("overhead_disabled_pct", overhead_disabled_pct);
        obs_section.set("overhead_enabled_pct", overhead_enabled_pct);
        obs_section.set("traced_max_diff", traced_diff);
        obs_section.set("trace_path", trace_path);
        obs_section.set("trace_written", trace_written);
        report.set("obs", std::move(obs_section));
    }
    {
        obs::Json methods = obs::Json::object();
        for (const auto& [method, cold_stats] :
             engine_cold.metrics.methods) {
            const auto it = engine_warm.metrics.methods.find(method);
            if (it == engine_warm.metrics.methods.end()) continue;
            const tme::engine::MethodStats& warm_stats = it->second;
            obs::Json entry = obs::Json::object();
            entry.set("runs", cold_stats.runs.load());
            entry.set("cold_mean_window_seconds",
                      cold_stats.mean_seconds());
            entry.set("warm_mean_window_seconds",
                      warm_stats.mean_seconds());
            entry.set("warm_runs", warm_stats.warm_runs.load());
            entry.set("warm_accepted_runs",
                      warm_stats.warm_accepted_runs.load());
            entry.set("warm_latency", obs::histogram_to_json(
                                          warm_stats.latency.snapshot()));
            const obs::SolverCounters counters =
                warm_stats.solver.snapshot();
            if (counters.any()) {
                entry.set("solver", obs::counters_to_json(counters));
            }
            methods.set(tme::engine::method_name(method),
                        std::move(entry));
        }
        report.set("methods", std::move(methods));
    }
    // Full structured snapshot of the warm engine — the same document
    // EngineMetrics::to_json() serves operators at runtime.
    report.set("warm_engine_metrics", engine_warm.metrics.to_json());
    if (report.write_file(json_path)) {
        std::printf("\nwrote %s\n", json_path.c_str());
    } else {
        std::printf("\nWARNING: could not write %s\n", json_path.c_str());
    }

    bool ok = true;
    if (cold_diff != 0.0) {
        std::printf("FAIL: cold-engine estimates not bitwise the naive "
                    "ones (max |diff| %.3g)\n",
                    cold_diff);
        ok = false;
    }
    if (warm_diff > 1e-9) {
        std::printf("FAIL: warm-engine estimates diverge from naive "
                    "(%.3g > 1e-9)\n",
                    warm_diff);
        ok = false;
    }
    if (warm_seconds >= naive_seconds) {
        std::printf("FAIL: warm engine not faster than naive "
                    "(%.3fs >= %.3fs)\n",
                    warm_seconds, naive_seconds);
        ok = false;
    }
    if (fanout_warm_speedup < 1.5) {
        std::printf("FAIL: fanout QP warm start below the 1.5x gate "
                    "(%.2fx)\n",
                    fanout_warm_speedup);
        ok = false;
    }
    if (fleet_diff_vs_serial > 1e-9) {
        std::printf("FAIL: fleet estimates diverge from serial engines "
                    "(%.3g > 1e-9)\n",
                    fleet_diff_vs_serial);
        ok = false;
    }
    if (fleet_diff_repeat != 0.0) {
        std::printf("FAIL: fleet estimates not bit-for-bit stable across "
                    "runs (max |diff| %.3g)\n",
                    fleet_diff_repeat);
        ok = false;
    }
    if (fleet_gate_applicable && fleet_speedup < 1.5) {
        std::printf("FAIL: fleet throughput below the 1.5x gate "
                    "(%.2fx over serial at %zu scenarios)\n",
                    fleet_speedup, kFleetJobs);
        ok = false;
    } else if (!fleet_gate_applicable) {
        std::printf("NOTE: %u hardware thread(s) — fleet 1.5x "
                    "throughput gate skipped (measured %.2fx): %s\n",
                    host_cores, fleet_speedup,
                    fleet_gate_skip_reason.c_str());
    }
    if (traced_diff != 0.0) {
        std::printf("FAIL: tracing perturbs estimates (max |diff| %.3g, "
                    "must be bitwise 0)\n",
                    traced_diff);
        ok = false;
    }
    if (obs::tracing_compiled()) {
        if (overhead_disabled_pct >= 1.0) {
            std::printf("FAIL: disabled-tracing overhead above the 1%% "
                        "budget (%.4f%%)\n",
                        overhead_disabled_pct);
            ok = false;
        }
        if (overhead_enabled_pct >= 5.0) {
            std::printf("FAIL: enabled-tracing overhead above the 5%% "
                        "budget (%.3f%%)\n",
                        overhead_enabled_pct);
            ok = false;
        }
        if (!trace_written) {
            std::printf("FAIL: could not write the Chrome trace artifact "
                        "%s\n",
                        trace_path.c_str());
            ok = false;
        }
    }
    if (ok) {
        std::printf("\nPASS: cold estimates bitwise, warm <= 1e-9; engine "
                    "%.2fx faster cold, %.2fx warm; fanout warm "
                    "start %.2fx; fleet %.2fx vs serial (bit-stable)\n",
                    naive_seconds / cold_seconds,
                    naive_seconds / warm_seconds, fanout_warm_speedup,
                    fleet_speedup);
    }
    return ok ? 0 : 1;
}
