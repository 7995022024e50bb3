#include "engine/fleet.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/clock.hpp"
#include "fault/injection.hpp"
#include "obs/trace.hpp"

namespace tme::engine {

using Clock = SteadyClock;

std::string FleetReport::summary() const {
    char line[256];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "fleet: %zu jobs, %zu windows in %.3fs (%.1f windows/s)\n",
                  jobs.size(), total_windows, wall_seconds,
                  windows_per_second());
    out += line;
    std::snprintf(line, sizeof(line),
                  "shared epoch cache: %zu hits, %zu misses, %zu "
                  "evictions, %zu collisions\n",
                  cache_hits, cache_misses, cache_evictions,
                  cache_collisions);
    out += line;
    for (const FleetJobReport& job : jobs) {
        if (job.quarantined) {
            std::snprintf(line, sizeof(line),
                          "  %-16s QUARANTINED after %zu attempts: %s\n",
                          job.name.c_str(), job.attempts,
                          job.error.c_str());
        } else {
            std::snprintf(line, sizeof(line),
                          "  %-16s %5zu windows  %8.3fs  epochs=%zu\n",
                          job.name.c_str(), job.windows, job.seconds,
                          job.metrics.epoch_changes.load() + 1);
        }
        out += line;
    }
    return out;
}

FleetDriver::FleetDriver(const topology::Topology& topo, FleetConfig config)
    : topo_(&topo),
      config_(std::move(config)),
      cache_(std::make_shared<RoutingEpochCache>(
          config_.cache_capacity == 0 ? 4 : config_.cache_capacity)) {
    const SchedulerConfigCheck check = validate_methods(config_.engine.methods);
    if (!check) throw SchedulerConfigException(check);
}

void FleetDriver::run_job(const FleetJob& job, FleetJobReport& report,
                          std::size_t index) {
    // Job names are dynamic (span args are numeric), so the span
    // carries the job's input-order index; the report maps it to a name.
    obs::Span span("fleet/job", "job", static_cast<long long>(index));
    // Ambient fault scope = job name: a seeded schedule can poison
    // exactly this job (everything its worker thread executes) while
    // sibling jobs replay byte-identical to a fault-free run.
    fault::ScopedFaultScope fault_scope(job.name);
    const scenario::Scenario& sc = *job.scenario;
    const EngineConfig& cfg =
        job.engine.has_value() ? *job.engine : config_.engine;
    const Clock::time_point start = Clock::now();
    OnlineEngine engine(sc.topo, sc.routing, cfg, cache_);
    if (job.window_sink) engine.set_window_sink(job.window_sink);
    ReplayResult replay = replay_scenario(engine, sc, job.replay);
    report.metrics = engine.metrics();
    report.seconds = seconds_since(start);
    report.windows = replay.windows.size();
    span.arg("windows", static_cast<long long>(report.windows));
    report.mean_mre = std::move(replay.mean_mre);
    if (config_.keep_windows) {
        report.window_results = std::move(replay.windows);
    }
}

FleetReport FleetDriver::run(const std::vector<FleetJob>& jobs) {
    for (const FleetJob& job : jobs) {
        if (job.scenario == nullptr) {
            throw std::invalid_argument("FleetDriver::run: null scenario");
        }
        if (job.scenario->topo.link_count() != topo_->link_count() ||
            job.scenario->topo.pair_count() != topo_->pair_count()) {
            throw std::invalid_argument(
                "FleetDriver::run: scenario '" + job.name +
                "' does not match the fleet topology");
        }
        const SchedulerConfigCheck check =
            job.engine.has_value()
                ? validate_methods(job.engine->methods)
                : SchedulerConfigCheck{};
        if (!check) {
            throw SchedulerConfigException(check);
        }
    }

    FleetReport report;
    report.jobs.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        report.jobs[i].name = jobs[i].name;
    }
    if (jobs.empty()) return report;

    std::size_t workers = config_.concurrency;
    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 1 : hw;
    }
    if (workers > jobs.size()) workers = jobs.size();

    const Clock::time_point start = Clock::now();
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size()) return;
            FleetJobReport& rep = report.jobs[i];
            for (std::size_t attempt = 1; attempt <= kFleetJobAttempts;
                 ++attempt) {
                // Each attempt starts from a blank report: a failed
                // attempt's partial metrics/windows must not leak into
                // the retry's (the engine itself is rebuilt by run_job).
                FleetJobReport fresh;
                fresh.name = rep.name;
                fresh.attempts = attempt;
                try {
                    run_job(jobs[i], fresh, i);
                    fresh.completed = true;
                } catch (const std::exception& e) {
                    fresh.error = e.what();
                } catch (...) {
                    fresh.error = "unknown exception";
                }
                fresh.quarantined =
                    !fresh.completed && attempt == kFleetJobAttempts;
                rep = std::move(fresh);
                if (rep.completed) break;
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back(worker);
    }
    for (std::thread& t : threads) t.join();
    report.wall_seconds = seconds_since(start);

    for (const FleetJobReport& job : report.jobs) {
        report.total_windows += job.windows;
        if (job.quarantined) ++report.quarantined_jobs;
    }
    report.cache_hits = cache_->hits();
    report.cache_misses = cache_->misses();
    report.cache_evictions = cache_->evictions();
    report.cache_collisions = cache_->collisions();
    return report;
}

}  // namespace tme::engine
