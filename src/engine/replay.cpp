#include "engine/replay.hpp"

#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/ingest_queue.hpp"

namespace tme::engine {

namespace {

/// Mean per-method MRE over all scored windows.
std::map<Method, double> summarize_mre(
    const std::vector<WindowResult>& windows) {
    std::map<Method, std::pair<double, std::size_t>> acc;
    for (const WindowResult& window : windows) {
        for (const MethodRun& run : window.runs) {
            if (std::isnan(run.mre)) continue;
            auto& [sum, count] = acc[run.method];
            sum += run.mre;
            ++count;
        }
    }
    std::map<Method, double> mean;
    for (const auto& [method, pair] : acc) {
        if (pair.second > 0) {
            mean[method] = pair.first / static_cast<double>(pair.second);
        }
    }
    return mean;
}

/// Installs the scenario truth provider for the duration of `body`,
/// restoring whatever the caller had attached on every exit path.
template <typename Body>
void with_scenario_truth(OnlineEngine& engine, const scenario::Scenario& sc,
                         bool attach, const Body& body) {
    TruthProvider saved = engine.truth();
    if (attach) {
        engine.set_truth(
            [&sc](std::size_t sample) { return sc.demands.at(sample); });
    }
    try {
        body();
    } catch (...) {
        if (attach) engine.set_truth(std::move(saved));
        throw;
    }
    if (attach) engine.set_truth(std::move(saved));
}

}  // namespace

ReplayResult replay_scenario(OnlineEngine& engine,
                             const scenario::Scenario& sc,
                             const ReplayOptions& options) {
    if (engine.routing().cols() != sc.topo.pair_count()) {
        throw std::invalid_argument(
            "replay_scenario: engine routing does not match scenario");
    }
    ReplayResult result;
    with_scenario_truth(engine, sc, options.attach_truth, [&] {
        scenario::replay(
            sc, options.events,
            [&](std::size_t sample, const linalg::SparseMatrix& routing,
                const linalg::Vector& loads,
                const linalg::Vector& demands) {
                (void)demands;
                if (&routing != &engine.routing()) {
                    engine.set_routing(routing);
                }
                engine.submit(sample, loads);
            });
        result.windows = engine.finish();
    });
    result.mean_mre = summarize_mre(result.windows);
    return result;
}

ReplayResult replay_scenario_async(OnlineEngine& engine,
                                   const scenario::Scenario& sc,
                                   const ReplayOptions& options,
                                   std::size_t queue_capacity) {
    if (engine.routing().cols() != sc.topo.pair_count()) {
        throw std::invalid_argument(
            "replay_scenario_async: engine routing does not match "
            "scenario");
    }
    ReplayResult result;
    with_scenario_truth(engine, sc, options.attach_truth, [&] {
        IngestQueue queue(queue_capacity);
        // Producer stalls (full queue) and consumer waits (empty queue)
        // land in the engine's backpressure/ingest-wait histograms.
        queue.set_wait_sinks(&engine.backpressure_wait_sink(),
                             &engine.ingest_wait_sink());
        std::exception_ptr producer_error;
        // Producer: generates the day's samples (loads under the active
        // routing) and pushes them through the bounded queue.  Route
        // changes ride in-band on each item, so the consumer rebinds at
        // exactly the same stream position as the synchronous replay.
        std::thread producer([&] {
            try {
                scenario::replay(
                    sc, options.events,
                    [&](std::size_t sample,
                        const linalg::SparseMatrix& routing,
                        const linalg::Vector& loads,
                        const linalg::Vector& demands) {
                        (void)demands;
                        IngestItem item;
                        item.sample = sample;
                        item.loads = loads;
                        item.routing = &routing;
                        if (!queue.push(std::move(item))) {
                            // Consumer aborted; stop producing.  Typed
                            // so the join below can tell this echo from
                            // a genuine producer failure.
                            throw QueueClosedError(
                                "replay_scenario_async: queue closed");
                        }
                    });
            } catch (...) {
                producer_error = std::current_exception();
            }
            queue.close();
        });

        try {
            while (std::optional<IngestItem> item = queue.pop()) {
                if (item->routing != nullptr &&
                    item->routing != &engine.routing()) {
                    engine.set_routing(*item->routing);
                }
                engine.submit(item->sample, std::move(item->loads),
                              item->gap);
            }
        } catch (...) {
            // Unblock and stop the producer before rethrowing.
            queue.close();
            producer.join();
            throw;
        }
        producer.join();
        // A closed-queue abort in the producer is only the echo of a
        // consumer-side close (the catch above rethrows the consumer's
        // own error before reaching here); any other producer error
        // surfaces.
        if (producer_error) {
            try {
                std::rethrow_exception(producer_error);
            } catch (const QueueClosedError&) {
                // benign: consumer hung up first
            }
        }
        result.windows = engine.finish();
    });
    result.mean_mre = summarize_mre(result.windows);
    return result;
}

}  // namespace tme::engine
