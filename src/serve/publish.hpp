// Publication glue: engine window completion -> EstimateStore.
//
// make_publisher() turns a store into an engine::WindowSink — the hook
// the engine exposes (OnlineEngine::set_window_sink, and
// FleetJob::window_sink per fleet job).  Every
// completed window becomes one published EstimateSnapshot version:
//
//   serve::EstimateStore store;
//   engine.set_window_sink(serve::make_publisher(store));
//   ... ingest ...                    // each window publishes v1, v2, ...
//   serve::Reader reader(store);      // any thread, lock-free
//   auto head = reader.latest();
//
// The sink runs on the engine's submitting thread, once per window in
// submission order, so per-engine stores see monotone window order.  The store tolerates
// several engines publishing into it concurrently (publishes
// serialize), at the cost of interleaved version order.
#pragma once

#include "engine/scheduler.hpp"
#include "serve/store.hpp"

namespace tme::serve {

/// A WindowSink that publishes every completed window into `store`.
/// The store must outlive every engine the sink is attached to.
engine::WindowSink make_publisher(EstimateStore& store);

}  // namespace tme::serve
