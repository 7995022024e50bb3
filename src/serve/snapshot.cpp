#include "serve/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/report.hpp"

namespace tme::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

void fnv_double(std::uint64_t& h, double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    fnv_u64(h, bits);
}

std::string hex_u64(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

EstimateSnapshot EstimateSnapshot::from_window(
    const engine::WindowResult& window) {
    EstimateSnapshot snap;
    snap.window_ = window;
    return snap;
}

void EstimateSnapshot::freeze(std::uint64_t version) {
    version_ = version;
    checksum_ = compute_checksum();
}

std::uint64_t EstimateSnapshot::compute_checksum() const {
    std::uint64_t h = kFnvOffset;
    fnv_u64(h, version_);
    fnv_u64(h, window_.window_start_sample);
    fnv_u64(h, window_.window_end_sample);
    fnv_u64(h, window_.window_size);
    fnv_u64(h, window_.epoch_fingerprint);
    fnv_double(h, window_.seconds);
    fnv_u64(h, window_.runs.size());
    for (const MethodEstimate& me : window_.runs) {
        fnv_u64(h, static_cast<std::uint64_t>(me.method));
        fnv_double(h, me.mre);
        fnv_double(h, me.seconds);
        fnv_u64(h, (me.warm_started ? 1u : 0u) |
                       (me.warm_accepted ? 2u : 0u) |
                       (me.used_fallback ? 4u : 0u));
        fnv_u64(h, static_cast<std::uint64_t>(me.quality));
        fnv_u64(h, static_cast<std::uint64_t>(me.solve_outcome));
        fnv_u64(h, static_cast<std::uint64_t>(me.fallback_method));
        fnv_u64(h, me.stale_age);
        fnv_u64(h, me.estimate.size());
        for (double v : me.estimate) fnv_double(h, v);
    }
    return h;
}

obs::Json EstimateSnapshot::to_json(bool include_estimates) const {
    obs::Json doc = obs::Json::object();
    doc.set("version", version_);
    doc.set("window_start_sample", window_.window_start_sample);
    doc.set("window_end_sample", window_.window_end_sample);
    doc.set("window_size", window_.window_size);
    doc.set("epoch_fingerprint", hex_u64(window_.epoch_fingerprint));
    doc.set("checksum", hex_u64(checksum_));
    doc.set("window_seconds", window_.seconds);
    doc.set("pairs", pair_count());
    obs::Json methods = obs::Json::object();
    for (const MethodEstimate& me : window_.runs) {
        obs::Json m = obs::Json::object();
        m.set("pairs", me.estimate.size());
        // NaN (unscored window) is not representable in JSON; the field
        // is simply absent, and the round-trip test pins that.
        if (!std::isnan(me.mre)) m.set("mre", me.mre);
        m.set("seconds", me.seconds);
        m.set("warm_started", me.warm_started);
        m.set("warm_accepted", me.warm_accepted);
        m.set("quality", engine::estimate_quality_name(me.quality));
        m.set("solve_outcome", linalg::solve_outcome_name(me.solve_outcome));
        if (me.used_fallback) {
            m.set("fallback_method",
                  engine::method_name(me.fallback_method));
        }
        if (me.quality == engine::EstimateQuality::stale) {
            m.set("stale_age", me.stale_age);
        }
        m.set("solver", obs::counters_to_json(me.solver));
        if (include_estimates) {
            obs::Json est = obs::Json::array();
            for (double v : me.estimate) est.push_back(v);
            m.set("estimate", std::move(est));
        }
        methods.set(engine::method_name(me.method), std::move(m));
    }
    doc.set("methods", std::move(methods));
    return doc;
}

}  // namespace tme::serve
