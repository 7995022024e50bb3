// Graceful degradation: solver deadlines surface as typed, flagged
// quality levels instead of hangs or silent garbage; corrupt
// measurements are repaired by the always-compiled ingest sanitizer;
// missing-data windows flow through every method flagged as gaps; and
// all of it is visible in EngineMetrics (summary + to_json) and the
// served EstimateSnapshot.  Everything here runs WITHOUT fault
// injection compiled in — the degradation machinery itself is
// unconditional.
#include "engine/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fault/injection.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/timeseries.hpp"

namespace tme::engine {
namespace {

scenario::Scenario short_scenario(std::size_t samples, unsigned seed = 1) {
    scenario::Scenario sc =
        scenario::make_scenario(scenario::Network::europe, seed);
    if (sc.demands.size() > samples) {
        sc.demands.resize(samples);
        sc.loads.resize(samples);
    }
    return sc;
}

EngineConfig all_methods_config(std::size_t window_size) {
    EngineConfig config;
    config.window_size = window_size;
    config.methods = {Method::gravity, Method::kruithof, Method::entropy,
                      Method::bayesian, Method::vardi,   Method::fanout};
    config.min_series_window = 2;
    config.threads = 0;
    return config;
}

// record_run_quality is the engine's single aggregation point;
// pin its counter/record/json behaviour for every quality level.
TEST(Degradation, RecordRunQualityCountersRecordsAndJson) {
    EngineMetrics metrics;
    metrics.methods[Method::kruithof];
    metrics.methods[Method::bayesian];

    MethodRun exact;
    exact.method = Method::kruithof;
    record_run_quality(metrics, exact, 1);

    MethodRun degraded;
    degraded.method = Method::kruithof;
    degraded.quality = EstimateQuality::degraded;
    degraded.solve_outcome = SolveOutcome::budget_exhausted;
    degraded.degradation_reason = "solve budget exhausted";
    record_run_quality(metrics, degraded, 2);

    MethodRun stale;
    stale.method = Method::bayesian;
    stale.quality = EstimateQuality::stale;
    stale.used_fallback = true;
    stale.fallback_method = Method::bayesian;
    stale.stale_age = 3;
    stale.degradation_reason = "whole chain failed";
    record_run_quality(metrics, stale, 5);

    MethodRun failed;
    failed.method = Method::bayesian;
    failed.quality = EstimateQuality::failed;
    record_run_quality(metrics, failed, 6);

    EXPECT_EQ(metrics.degraded_runs(), 1u);
    EXPECT_EQ(metrics.stale_runs(), 1u);
    EXPECT_EQ(metrics.failed_runs(), 1u);
    EXPECT_EQ(metrics.budget_exhausted_runs(), 1u);
    EXPECT_EQ(metrics.methods[Method::kruithof].degraded_runs.load(), 1u);
    EXPECT_EQ(metrics.methods[Method::bayesian].stale_runs.load(), 1u);
    EXPECT_EQ(metrics.methods[Method::bayesian].failed_runs.load(), 1u);
    EXPECT_EQ(metrics.methods[Method::bayesian].fallback_runs.load(), 1u);
    // Exact runs leave no record; the three non-exact runs do.
    ASSERT_EQ(metrics.degradation.size(), 3u);
    const std::vector<DegradationRecord> records =
        metrics.degradation.snapshot();
    EXPECT_EQ(records[0].window_end_sample, 2u);
    EXPECT_EQ(records[0].quality, EstimateQuality::degraded);
    EXPECT_EQ(records[1].quality, EstimateQuality::stale);
    EXPECT_EQ(records[1].stale_age, 3u);

    const obs::Json j = metrics.to_json();
    const obs::Json* degr = j.find("degradation");
    ASSERT_NE(degr, nullptr);
    EXPECT_EQ(degr->find("degraded_runs")->as_int(), 1);
    EXPECT_EQ(degr->find("stale_runs")->as_int(), 1);
    EXPECT_EQ(degr->find("failed_runs")->as_int(), 1);
    EXPECT_EQ(degr->find("budget_exhausted_runs")->as_int(), 1);
    const obs::Json* recs = degr->find("records");
    ASSERT_NE(recs, nullptr);
    ASSERT_EQ(recs->items().size(), 3u);
    EXPECT_EQ(recs->items()[0].find("quality")->as_string(), "degraded");
    EXPECT_EQ(recs->items()[0].find("reason")->as_string(),
              "solve budget exhausted");
    EXPECT_EQ(recs->items()[1].find("quality")->as_string(), "stale");
    EXPECT_EQ(recs->items()[1].find("stale_age")->as_int(), 3);
    EXPECT_EQ(recs->items()[1].find("fallback_method")->as_string(),
              "bayesian");
    EXPECT_EQ(recs->items()[2].find("quality")->as_string(), "failed");

    // The summary grows a degradation line — and per-method suffixes —
    // only when something degraded (the golden summary test pins the
    // healthy format).
    const std::string text = metrics.summary();
    EXPECT_NE(text.find("degradation:"), std::string::npos);
    EXPECT_NE(text.find("degraded=1"), std::string::npos);
    EngineMetrics healthy;
    healthy.methods[Method::gravity];
    EXPECT_EQ(healthy.summary().find("degradation:"), std::string::npos);
}

TEST(Degradation, DegradationLogBoundsAndCopies) {
    DegradationLog log;
    for (std::size_t k = 0; k < DegradationLog::kCapacity + 5; ++k) {
        DegradationRecord r;
        r.window_end_sample = k;
        log.push(std::move(r));
    }
    EXPECT_EQ(log.size(), DegradationLog::kCapacity);
    EXPECT_EQ(log.dropped(), 5u);
    DegradationLog copy(log);
    EXPECT_EQ(copy.size(), DegradationLog::kCapacity);
    EXPECT_EQ(copy.dropped(), 5u);
    EXPECT_EQ(copy.snapshot().front().window_end_sample, 0u);
}

// An (effectively) zero wall-clock deadline cuts every budgeted solve
// at its first poll: each method must return its best feasible iterate
// flagged degraded/budget_exhausted — never hang, throw, or serve
// garbage — and the flags must reach metrics JSON and the served
// snapshot.
TEST(Degradation, ZeroDeadlineDegradesEveryBudgetedMethod) {
    const scenario::Scenario sc = short_scenario(8);
    EngineConfig config = all_methods_config(4);
    config.method_options.solve_deadline_seconds = 1e-12;

    OnlineEngine engine(sc.topo, sc.routing, config);
    WindowResult last;
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        last = engine.ingest(k, sc.loads[k]);
    }
    ASSERT_EQ(last.runs.size(), config.methods.size());
    for (const MethodRun& run : last.runs) {
        ASSERT_EQ(run.estimate.size(), sc.topo.pair_count())
            << method_name(run.method);
        for (double v : run.estimate) {
            ASSERT_TRUE(std::isfinite(v) && v >= 0.0)
                << method_name(run.method);
        }
        if (run.method == Method::gravity) {
            EXPECT_EQ(run.quality, EstimateQuality::exact);
        } else {
            EXPECT_EQ(run.quality, EstimateQuality::degraded)
                << method_name(run.method);
            EXPECT_EQ(run.solve_outcome, SolveOutcome::budget_exhausted)
                << method_name(run.method);
            EXPECT_FALSE(run.used_fallback);
            EXPECT_EQ(run.degradation_reason, "solve budget exhausted");
        }
    }

    const EngineMetrics& metrics = engine.metrics();
    const std::size_t budgeted = config.methods.size() - 1;  // not gravity
    EXPECT_EQ(metrics.degraded_runs(),
              metrics.budget_exhausted_runs());
    EXPECT_GE(metrics.degraded_runs(),
              budgeted);  // every window degrades all budgeted methods
    EXPECT_EQ(metrics.stale_runs(), 0u);
    EXPECT_EQ(metrics.failed_runs(), 0u);
    EXPECT_GT(metrics.degradation.size(), 0u);

    // Served snapshot carries the quality flags, names included.
    const serve::EstimateSnapshot snap =
        serve::EstimateSnapshot::from_window(last);
    const serve::MethodEstimate* bayes = snap.find(Method::bayesian);
    ASSERT_NE(bayes, nullptr);
    EXPECT_EQ(bayes->quality, EstimateQuality::degraded);
    const obs::Json j = snap.to_json();
    const obs::Json* methods = j.find("methods");
    ASSERT_NE(methods, nullptr);
    EXPECT_EQ(methods->find("bayesian")->find("quality")->as_string(),
              "degraded");
    EXPECT_EQ(methods->find("gravity")->find("quality")->as_string(),
              "exact");
}

// A configured iteration cap is reported — SolverCounters::capped_solves,
// MethodRun::solve_outcome = iteration_capped, EngineMetrics capped_runs
// — but the run stays exact: the cap is the caller's deliberate trade,
// not a degradation.
TEST(Degradation, IterationCapIsReportedButStaysExact) {
    const scenario::Scenario sc = short_scenario(6);
    EngineConfig config = all_methods_config(4);
    config.methods = {Method::gravity, Method::kruithof, Method::entropy};
    config.method_options.kruithof.max_iterations = 1;
    config.method_options.entropy.solver.max_iterations = 1;

    OnlineEngine engine(sc.topo, sc.routing, config);
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        const WindowResult result = engine.ingest(k, sc.loads[k]);
        for (const MethodRun& run : result.runs) {
            EXPECT_EQ(run.quality, EstimateQuality::exact)
                << method_name(run.method);
            if (run.method == Method::gravity) {
                EXPECT_EQ(run.solve_outcome, SolveOutcome::converged);
                EXPECT_EQ(run.solver.capped_solves, 0u);
                continue;
            }
            EXPECT_EQ(run.solve_outcome, SolveOutcome::iteration_capped)
                << method_name(run.method);
            EXPECT_EQ(run.solver.capped_solves, 1u) << method_name(run.method);
        }
    }

    const EngineMetrics& metrics = engine.metrics();
    const std::size_t windows = sc.loads.size();
    EXPECT_EQ(metrics.capped_runs(), 2 * windows);
    EXPECT_EQ(metrics.methods.at(Method::kruithof).capped_runs.load(), windows);
    EXPECT_EQ(metrics.degraded_runs(), 0u);
    EXPECT_EQ(metrics.budget_exhausted_runs(), 0u);
    const obs::Json j = metrics.to_json();
    EXPECT_EQ(j.find("capped_runs")->as_int(), static_cast<long long>(2 * windows));
    const obs::Json* entropy = j.find("methods")->find("entropy");
    EXPECT_EQ(entropy->find("capped_runs")->as_int(),
              static_cast<long long>(windows));
    EXPECT_EQ(entropy->find("solver")->find("capped_solves")->as_int(),
              static_cast<long long>(windows));

    // A budget cut wins over a cap: record_run_quality files a run under
    // exactly one of the two.
    EngineMetrics direct;
    direct.methods[Method::fanout];
    MethodRun capped;
    capped.method = Method::fanout;
    capped.solve_outcome = SolveOutcome::iteration_capped;
    record_run_quality(direct, capped, 1);
    EXPECT_EQ(direct.capped_runs(), 1u);
    EXPECT_EQ(direct.budget_exhausted_runs(), 0u);
    EXPECT_EQ(direct.degradation.size(), 0u);
}

// Each fact is recorded once: the engine-wide tallies are sums of the
// per-method cells, and run / window counts, latency totals and maxima
// are the latency histograms' own.
void expect_recorded_once(const EngineMetrics& metrics) {
    std::size_t degraded = 0;
    std::size_t stale = 0;
    std::size_t failed = 0;
    std::size_t budget_exhausted = 0;
    std::size_t capped = 0;
    for (const auto& [method, stats] : metrics.methods) {
        SCOPED_TRACE(method_name(method));
        degraded += stats.degraded_runs.load();
        stale += stats.stale_runs.load();
        failed += stats.failed_runs.load();
        budget_exhausted += stats.budget_exhausted_runs.load();
        capped += stats.capped_runs.load();
        const obs::HistogramSnapshot latency = stats.latency.snapshot();
        EXPECT_EQ(stats.runs(), latency.count);
        EXPECT_EQ(stats.total_seconds(), latency.sum_seconds);
        EXPECT_EQ(stats.max_seconds(), latency.max_seconds());
    }
    EXPECT_EQ(metrics.degraded_runs(), degraded);
    EXPECT_EQ(metrics.stale_runs(), stale);
    EXPECT_EQ(metrics.failed_runs(), failed);
    EXPECT_EQ(metrics.budget_exhausted_runs(), budget_exhausted);
    EXPECT_EQ(metrics.capped_runs(), capped);
    EXPECT_EQ(metrics.windows_run(), metrics.window_latency.count());
    EXPECT_EQ(metrics.total_seconds(),
              metrics.window_latency.snapshot().sum_seconds);

    const obs::Json j = metrics.to_json();
    EXPECT_EQ(j.find("windows_run")->as_int(),
              static_cast<long long>(metrics.windows_run()));
    EXPECT_EQ(j.find("capped_runs")->as_int(),
              static_cast<long long>(capped));
    const obs::Json* degr = j.find("degradation");
    EXPECT_EQ(degr->find("degraded_runs")->as_int(),
              static_cast<long long>(degraded));
    EXPECT_EQ(degr->find("stale_runs")->as_int(),
              static_cast<long long>(stale));
    EXPECT_EQ(degr->find("failed_runs")->as_int(),
              static_cast<long long>(failed));
    EXPECT_EQ(degr->find("budget_exhausted_runs")->as_int(),
              static_cast<long long>(budget_exhausted));
}

// A replay with capped runs (low Kruithof / entropy caps) and degraded
// runs (a wedged Bayesian solve and failing fanout allocations where
// fault injection is compiled in, an expired deadline everywhere).  No
// replay here yields stale or failed runs — once capture has built the
// gravity prior, the fallback chain always ends on it — so those are
// folded in through record_run_quality, as the engine's finalize
// would.
TEST(Degradation, EngineTotalsAreSumsOfPerMethodCells) {
    const scenario::Scenario sc = short_scenario(8);
    EngineConfig capped = all_methods_config(4);
    capped.method_options.kruithof.max_iterations = 1;
    capped.method_options.entropy.solver.max_iterations = 1;
    EngineConfig deadline = capped;
    deadline.method_options.solve_deadline_seconds = 1e-12;

    for (const EngineConfig* config : {&capped, &deadline}) {
        const bool cut = config == &deadline;
        SCOPED_TRACE(cut ? "expired deadline" : "caps only");
        fault::arm(
            {
                fault::FaultSpec{fault::FaultSite::solver_stall, "bayesian",
                                 2, 2},
                fault::FaultSpec{fault::FaultSite::alloc_failure, "fanout",
                                 1, 3},
            },
            7);
        OnlineEngine engine(sc.topo, sc.routing, *config);
        engine.set_truth([&](std::size_t s) { return sc.demands[s]; });
        for (std::size_t k = 0; k < sc.loads.size(); ++k) {
            engine.ingest(k, sc.loads[k]);
        }
        fault::disarm();

        EngineMetrics metrics = engine.metrics();
        EXPECT_EQ(metrics.windows_run(), sc.loads.size());
        EXPECT_EQ(metrics.methods.at(Method::gravity).runs(),
                  sc.loads.size());
        if (cut) {
            EXPECT_GT(metrics.degraded_runs(), 0u);
            EXPECT_GT(metrics.budget_exhausted_runs(), 0u);
        } else {
            EXPECT_EQ(metrics.capped_runs(), 2 * sc.loads.size());
            EXPECT_EQ(metrics.degraded_runs() > 0, fault::compiled());
        }
        expect_recorded_once(metrics);

        MethodRun stale;
        stale.method = Method::bayesian;
        stale.quality = EstimateQuality::stale;
        stale.stale_age = 2;
        record_run_quality(metrics, stale, sc.loads.size());
        MethodRun failed;
        failed.method = Method::vardi;
        failed.quality = EstimateQuality::failed;
        record_run_quality(metrics, failed, sc.loads.size());
        EXPECT_GE(metrics.stale_runs(), 1u);
        EXPECT_GE(metrics.failed_runs(), 1u);
        expect_recorded_once(metrics);
    }
}

// Non-finite / negative loads are repaired by the always-compiled
// ingest sanitizer: zeroed, flagged as a gap, counted — and the solvers
// never see them (estimates stay finite and nonnegative).
TEST(Degradation, IngestSanitizerRepairsCorruptLoads) {
    const scenario::Scenario sc = short_scenario(6);
    OnlineEngine engine(sc.topo, sc.routing, all_methods_config(3));
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        linalg::Vector loads = sc.loads[k];
        if (k == 2) {
            loads[0] = std::numeric_limits<double>::quiet_NaN();
            loads[1] = -5.0;
        }
        const WindowResult result = engine.ingest(k, std::move(loads));
        for (const MethodRun& run : result.runs) {
            for (double v : run.estimate) {
                ASSERT_TRUE(std::isfinite(v) && v >= 0.0)
                    << "sample " << k << " " << method_name(run.method);
            }
        }
    }
    EXPECT_EQ(engine.metrics().corrupt_samples.load(), 1u);
    EXPECT_EQ(engine.metrics().gap_samples.load(), 1u);
    const obs::Json j = engine.metrics().to_json();
    EXPECT_EQ(j.find("degradation")->find("corrupt_samples")->as_int(), 1);
}

// Missing-data windows (lost polls -> interpolated samples) flow
// through all methods as flagged gaps — not as degradation, and with
// MRE scoring untouched (mre_skipped_runs counts only all-quiet truth
// windows, which interpolation never creates here).
TEST(Degradation, MissingDataWindowsRunAllMethodsFlaggedAsGaps) {
    const scenario::Scenario sc = short_scenario(5);
    const std::size_t links = sc.topo.link_count();
    telemetry::TimeSeriesStore store(links, sc.loads.size());
    for (std::size_t k = 0; k < sc.loads.size(); ++k) {
        for (std::size_t l = 0; l < links; ++l) {
            if (k == 2 && l < 3) {
                store.record_loss(l, k);  // lost polls at interval 2
            } else {
                store.record(l, k, sc.loads[k][l]);
            }
        }
    }
    ASSERT_GT(store.missing_count(2), 0u);

    OnlineEngine engine(sc.topo, sc.routing, all_methods_config(3));
    engine.set_truth([&](std::size_t s) { return sc.demands[s]; });
    for (std::size_t k = 0; k < store.intervals(); ++k) {
        const WindowResult result = engine.ingest_interval(store, k);
        for (const MethodRun& run : result.runs) {
            EXPECT_EQ(run.quality, EstimateQuality::exact)
                << "interval " << k << " " << method_name(run.method);
            ASSERT_EQ(run.estimate.size(), sc.topo.pair_count());
            for (double v : run.estimate) {
                ASSERT_TRUE(std::isfinite(v) && v >= 0.0);
            }
            EXPECT_FALSE(std::isnan(run.mre))
                << "scored window lost its MRE at interval " << k;
        }
    }
    const EngineMetrics& metrics = engine.metrics();
    EXPECT_EQ(metrics.gap_samples.load(), 1u);  // exactly interval 2
    EXPECT_EQ(metrics.corrupt_samples.load(), 0u);
    EXPECT_EQ(metrics.mre_skipped_runs.load(), 0u);
    EXPECT_EQ(metrics.degraded_runs(), 0u);
    EXPECT_EQ(metrics.stale_runs(), 0u);
    EXPECT_EQ(metrics.failed_runs(), 0u);
}

// A fully dropped poll (every load zero — what the measurement_drop
// fault injects) has no exiting traffic and hence no gravity prior.
// The window is still served: every snapshot method is labelled with
// the reason and carried forward stale, the series methods stay exact,
// and the next sample is exact again.
TEST(Degradation, DroppedPollIsServedLabelledAndRecovers) {
    const scenario::Scenario sc = short_scenario(6);
    EngineConfig default_schedule;
    default_schedule.window_size = 3;
    default_schedule.min_series_window = 2;
    constexpr std::size_t kDropped = 3;
    for (const EngineConfig& config :
         {default_schedule, all_methods_config(3)}) {
        OnlineEngine engine(sc.topo, sc.routing, config);
        for (std::size_t k = 0; k < sc.loads.size(); ++k) {
            linalg::Vector loads = sc.loads[k];
            if (k == kDropped) loads.assign(loads.size(), 0.0);
            WindowResult result;
            ASSERT_NO_THROW(result = engine.ingest(k, std::move(loads)))
                << "sample " << k;
            for (const MethodRun& run : result.runs) {
                const char* name = method_name(run.method);
                ASSERT_EQ(run.estimate.size(), sc.topo.pair_count());
                for (double v : run.estimate) {
                    ASSERT_TRUE(std::isfinite(v) && v >= 0.0) << name;
                }
                if (k != kDropped || is_series_method(run.method)) {
                    EXPECT_EQ(run.quality, EstimateQuality::exact)
                        << "sample " << k << " " << name;
                    continue;
                }
                EXPECT_EQ(run.quality, EstimateQuality::stale) << name;
                EXPECT_EQ(run.stale_age, 1u) << name;
                EXPECT_NE(run.degradation_reason.find("exiting traffic"),
                          std::string::npos)
                    << name << ": " << run.degradation_reason;
            }
        }
        std::size_t snapshot_methods = 0;
        for (Method m : config.methods) {
            if (!is_series_method(m)) ++snapshot_methods;
        }
        EXPECT_EQ(engine.metrics().windows_run(), sc.loads.size());
        EXPECT_EQ(engine.metrics().stale_runs(), snapshot_methods);
    }
}

}  // namespace
}  // namespace tme::engine
