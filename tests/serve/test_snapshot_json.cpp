// Golden round trip for snapshot export: EstimateSnapshot::to_json()
// dumped and re-parsed with obs::Json::parse reproduces the version,
// the 64-bit epoch fingerprint (hex string — it may exceed int64),
// per-method MRE, solve outcome and the solver-counter telemetry
// exactly; and a snapshot keeps every field of the engine's runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "serve/store.hpp"

namespace tme::serve {
namespace {

std::uint64_t parse_hex(const obs::Json& doc, const char* key) {
    const obs::Json* field = doc.find(key);
    EXPECT_NE(field, nullptr) << key;
    if (field == nullptr || !field->is_string()) return 0;
    return std::strtoull(field->as_string().c_str(), nullptr, 16);
}

EstimateSnapshot published_snapshot(EstimateStore& store) {
    engine::WindowResult window;
    window.window_start_sample = 42;
    window.window_end_sample = 53;
    window.window_size = 12;
    // High bit set: only the hex-string export survives obs::Json's
    // int64 integers.
    window.epoch_fingerprint = 0xDEADBEEFCAFEBABEull;
    window.seconds = 0.125;

    engine::MethodRun gravity;
    gravity.method = engine::Method::gravity;
    gravity.estimate = {0.1, 1.0 / 3.0, 1e-17, 12345.678, 0.0};
    gravity.mre = 0.23456789012345678;  // full double precision
    gravity.seconds = 0.001953125;
    window.runs.push_back(gravity);

    engine::MethodRun entropy;
    entropy.method = engine::Method::entropy;
    entropy.estimate = {1.0, 2.0, 3.0, 4.0, 5.0};
    entropy.mre = std::numeric_limits<double>::quiet_NaN();  // unscored
    entropy.seconds = 0.25;
    entropy.warm_started = true;
    entropy.warm_accepted = true;
    entropy.solver.entropy_iterations = 17;
    entropy.solver.entropy_armijo_probes = 5;
    entropy.solver.capped_solves = 1;
    entropy.solve_outcome = linalg::SolveOutcome::iteration_capped;
    window.runs.push_back(entropy);

    store.publish(EstimateSnapshot::from_window(window));
    Reader reader(store);
    return *reader.latest().value.snapshot;
}

TEST(ServeSnapshotJson, RoundTripReproducesEveryFieldExactly) {
    EstimateStore store;
    const EstimateSnapshot snap = published_snapshot(store);
    ASSERT_EQ(snap.version(), 1u);
    ASSERT_TRUE(snap.consistent());

    const std::string text = snap.to_json(true).dump(2);
    const std::optional<obs::Json> parsed = obs::Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const obs::Json& doc = *parsed;

    EXPECT_EQ(doc.find("version")->as_int(), 1);
    EXPECT_EQ(doc.find("window_start_sample")->as_int(), 42);
    EXPECT_EQ(doc.find("window_end_sample")->as_int(), 53);
    EXPECT_EQ(doc.find("window_size")->as_int(), 12);
    EXPECT_EQ(parse_hex(doc, "epoch_fingerprint"),
              0xDEADBEEFCAFEBABEull);
    EXPECT_EQ(parse_hex(doc, "checksum"), snap.checksum());
    EXPECT_EQ(doc.find("window_seconds")->as_double(), 0.125);
    EXPECT_EQ(doc.find("pairs")->as_int(), 5);

    const obs::Json* methods = doc.find("methods");
    ASSERT_NE(methods, nullptr);
    ASSERT_EQ(methods->size(), 2u);

    const obs::Json* gravity = methods->find("gravity");
    ASSERT_NE(gravity, nullptr);
    EXPECT_EQ(gravity->find("mre")->as_double(),
              0.23456789012345678);  // exact: shortest-round-trip dump
    EXPECT_EQ(gravity->find("seconds")->as_double(), 0.001953125);
    EXPECT_FALSE(gravity->find("warm_started")->as_bool());
    EXPECT_EQ(gravity->find("solve_outcome")->as_string(), "converged");
    const obs::Json* est = gravity->find("estimate");
    ASSERT_NE(est, nullptr);
    ASSERT_EQ(est->size(), 5u);
    EXPECT_EQ(est->items()[0].as_double(), 0.1);
    EXPECT_EQ(est->items()[1].as_double(), 1.0 / 3.0);
    EXPECT_EQ(est->items()[2].as_double(), 1e-17);
    EXPECT_EQ(est->items()[3].as_double(), 12345.678);
    EXPECT_EQ(est->items()[4].as_double(), 0.0);

    const obs::Json* entropy = methods->find("entropy");
    ASSERT_NE(entropy, nullptr);
    // NaN MRE (unscored window) is not representable in JSON: the
    // field must be absent, not null/0.
    EXPECT_EQ(entropy->find("mre"), nullptr);
    EXPECT_TRUE(entropy->find("warm_started")->as_bool());
    EXPECT_TRUE(entropy->find("warm_accepted")->as_bool());
    EXPECT_EQ(entropy->find("solve_outcome")->as_string(),
              "iteration_capped");
    const obs::Json* solver = entropy->find("solver");
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->find("entropy_iterations")->as_int(), 17);
    EXPECT_EQ(solver->find("entropy_armijo_probes")->as_int(), 5);
    EXPECT_EQ(solver->find("capped_solves")->as_int(), 1);
    // Zero counters are omitted by counters_to_json.
    EXPECT_EQ(solver->find("qp_active_set_rounds"), nullptr);
}

TEST(ServeSnapshotJson, FromWindowKeepsEveryRunField) {
    engine::WindowResult window;
    window.window_start_sample = 3;
    window.window_end_sample = 6;
    window.window_size = 4;
    window.epoch_fingerprint = 0x0123456789ABCDEFull;
    window.seconds = 0.5;
    engine::MethodRun run;
    run.method = engine::Method::fanout;
    run.estimate = {0.25, 0.0, 7.5};
    run.seconds = 0.125;
    run.warm_started = true;
    run.warm_accepted = false;
    run.mre = 0.375;
    run.solver.qp_active_set_rounds = 4;
    run.solver.qp_cg_iterations = 40;
    run.solver.nnls_pivots = 2;
    run.solve_outcome = linalg::SolveOutcome::budget_exhausted;
    run.quality = engine::EstimateQuality::stale;
    run.used_fallback = true;
    run.fallback_method = engine::Method::bayesian;
    run.stale_age = 3;
    run.degradation_reason = "whole chain failed";
    window.runs.push_back(run);

    const EstimateSnapshot snap = EstimateSnapshot::from_window(window);
    EXPECT_EQ(snap.version(), 0u);
    EXPECT_EQ(snap.window_start_sample(), 3u);
    EXPECT_EQ(snap.window_end_sample(), 6u);
    EXPECT_EQ(snap.window_size(), 4u);
    EXPECT_EQ(snap.epoch_fingerprint(), 0x0123456789ABCDEFull);
    EXPECT_EQ(snap.window_seconds(), 0.5);
    EXPECT_EQ(snap.pair_count(), 3u);
    ASSERT_EQ(snap.methods().size(), 1u);
    const MethodEstimate* kept = snap.find(engine::Method::fanout);
    ASSERT_EQ(kept, &snap.methods().front());
    EXPECT_EQ(snap.find(engine::Method::gravity), nullptr);
    EXPECT_EQ(kept->method, run.method);
    EXPECT_EQ(kept->estimate, run.estimate);
    EXPECT_EQ(kept->seconds, run.seconds);
    EXPECT_EQ(kept->warm_started, run.warm_started);
    EXPECT_EQ(kept->warm_accepted, run.warm_accepted);
    EXPECT_EQ(kept->mre, run.mre);
    EXPECT_EQ(kept->solver.qp_active_set_rounds, 4u);
    EXPECT_EQ(kept->solver.qp_cg_iterations, 40u);
    EXPECT_EQ(kept->solver.nnls_pivots, 2u);
    EXPECT_EQ(kept->solver.entropy_iterations, 0u);
    EXPECT_EQ(kept->solve_outcome, run.solve_outcome);
    EXPECT_EQ(kept->quality, run.quality);
    EXPECT_EQ(kept->used_fallback, run.used_fallback);
    EXPECT_EQ(kept->fallback_method, run.fallback_method);
    EXPECT_EQ(kept->stale_age, run.stale_age);
    EXPECT_EQ(kept->degradation_reason, run.degradation_reason);

    // The solve outcome is exported and covered by the checksum: two
    // windows that differ only in it publish (as version 1 of their own
    // stores) under different checksums.
    EstimateStore cut_store;
    cut_store.publish(EstimateSnapshot::from_window(window));
    window.runs.front().solve_outcome = linalg::SolveOutcome::converged;
    EstimateStore converged_store;
    converged_store.publish(EstimateSnapshot::from_window(window));
    const SnapshotRef cut = Reader(cut_store).latest().value;
    const SnapshotRef converged = Reader(converged_store).latest().value;
    ASSERT_TRUE(cut && converged);
    EXPECT_EQ(cut->to_json().find("methods")->find("fanout")
                  ->find("solve_outcome")->as_string(),
              "budget_exhausted");
    EXPECT_TRUE(cut->consistent());
    EXPECT_TRUE(converged->consistent());
    EXPECT_NE(cut->checksum(), converged->checksum());
}

TEST(ServeSnapshotJson, MetadataOnlyExportOmitsEstimates) {
    EstimateStore store;
    const EstimateSnapshot snap = published_snapshot(store);
    const std::string text = snap.to_json(false).dump();
    const std::optional<obs::Json> parsed = obs::Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    const obs::Json* gravity = parsed->find("methods")->find("gravity");
    ASSERT_NE(gravity, nullptr);
    EXPECT_EQ(gravity->find("estimate"), nullptr);
    EXPECT_EQ(gravity->find("pairs")->as_int(), 5);
}

TEST(ServeSnapshotJson, StoreTelemetryExports) {
    EstimateStore store;
    (void)published_snapshot(store);
    const std::optional<obs::Json> doc =
        obs::Json::parse(store.to_json().dump(2));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("head_version")->as_int(), 1);
    EXPECT_EQ(doc->find("writer_waits")->as_int(), 0);
    EXPECT_EQ(doc->find("publish_latency")->find("count")->as_int(), 1);
}

}  // namespace
}  // namespace tme::serve
