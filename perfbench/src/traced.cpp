#include "traced.hpp"

#include <array>
#include <fstream>
#include <string_view>

#include "core/metrics.hpp"
#include "linalg/vector_ops.hpp"
#include "serve/query.hpp"

namespace perfbench {

namespace tme_e = tme::engine;
using tme::linalg::SparseMatrix;
using tme::linalg::Vector;

namespace {

/// Static span names (the log keeps the pointers).
const char* solve_span_name(Method m) {
    switch (m) {
        case Method::gravity: return "core.gravity.solve";
        case Method::kruithof: return "core.kruithof.solve";
        case Method::entropy: return "core.entropy.solve";
        case Method::bayesian: return "core.bayesian.solve";
        case Method::vardi: return "core.vardi.solve";
        case Method::fanout: return "core.fanout.solve";
    }
    return "core.?.solve";
}

double matrix_bytes(const tme::linalg::Matrix& m) {
    return 8.0 * static_cast<double>(m.rows() * m.cols());
}

/// Bytes WindowContext::capture materializes (computed from its shape).
double capture_bytes(const tme_e::WindowContext& ctx) {
    double values = 0.0;
    for (const Vector& loads : ctx.series.loads) {
        values += static_cast<double>(loads.size());
    }
    values += static_cast<double>(ctx.latest.loads.size() + ctx.prior.size() +
                                  ctx.mean_loads.size() +
                                  ctx.weighted_rhs.size());
    return 8.0 * values + matrix_bytes(ctx.covariance) +
           matrix_bytes(ctx.source_outer);
}

/// Per-call seconds of `f`: batches sized to at least 2 ms, median of 15.
template <typename F>
double per_call_seconds(F&& f) {
    std::size_t reps = 1;
    for (;;) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < reps; ++i) f();
        if (seconds_between(t0, Clock::now()) >= 2e-3) break;
        reps *= 2;
    }
    std::vector<double> per;
    for (int b = 0; b < 15; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < reps; ++i) f();
        per.push_back(seconds_between(t0, Clock::now()) /
                      static_cast<double>(reps));
    }
    return median(per);
}

}  // namespace

void SpanLog::write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
            << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << i
            << ",\"parent\":"
            << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
            << "}}";
    }
    out << "\n]}\n";
}

TracedRun run_traced(const WorkloadSpec& spec, const Inputs& in,
                     std::size_t min_windows, std::size_t max_windows,
                     double seconds) {
    TracedRun out;
    SpanLog& spans = out.spans;
    const tme_e::EngineConfig config = engine_config(spec);
    const tme_e::MethodOptions& options = config.method_options;
    const std::size_t min_series = std::max<std::size_t>(config.min_series_window, 1);
    const std::size_t pairs = in.pairs();

    tme_e::RoutingEpochCache cache(config.epoch_cache_capacity);
    tme_e::SlidingWindow window(&in.sc.topo, &in.sc.routing, config.window_size,
                                tme_e::schedules(config.methods, Method::vardi));
    tme::serve::EstimateStore store;
    tme::serve::Reader reader(store);
    std::array<Vector, method_count> warm;
    std::array<bool, method_count> warm_valid{};
    std::array<tme_e::FallbackState, method_count> last_good;
    std::uint64_t bound_serial = 0;
    bool bound = false;
    std::size_t ordinal = 0;

    const Clock::time_point start = Clock::now();
    for (std::size_t w = 0; w < max_windows; ++w) {
        if (w >= min_windows && seconds_between(start, Clock::now()) >= seconds) {
            break;
        }
        const SparseMatrix& routing = in.routing_for(w);
        const std::size_t sample = in.sample(w);
        Vector loads = in.loads(w);
        for (double v : loads) {
            // The engine repairs such loads; generated inputs never need it.
            if (!std::isfinite(v) || v < 0.0) out.tallies.fail("corrupt input loads");
        }

        const std::size_t win = spans.open("window", SpanLog::kNoParent);
        const std::size_t misses = cache.misses();
        const std::size_t acquire = spans.open("engine.epoch.acquire", win);
        const std::shared_ptr<const tme_e::RoutingEpoch> epoch =
            cache.acquire_shared(routing);
        spans.close(acquire);
        if (cache.misses() != misses) {
            // A cold epoch: the acquire built it, and the derived data the
            // schedule reads is built next (the engine builds the same
            // items lazily in its first solves).  Both count as the cold
            // build, so the hit path keeps its own span name.
            spans.rename(acquire, "engine.epoch.acquire_miss");
            const std::size_t build = spans.open("engine.epoch.cold_build", win);
            epoch->routing_transpose();
            if (tme_e::schedules(config.methods, Method::fanout)) {
                epoch->fanout_constraints(in.sc.topo);
            }
            spans.close(build);
            out.cold_epoch_s.push_back(spans.duration(acquire) + spans.duration(build));
        }
        // Epoch binding exactly as OnlineEngine::ingest: a new epoch
        // flushes the window and drops every warm start.
        if (!bound || epoch->serial() != bound_serial) {
            window.reset(&routing);
            warm_valid.fill(false);
            bound_serial = epoch->serial();
            bound = true;
        } else if (window.series().routing != &routing) {
            window.rebind_routing(&routing);
        }
        spans.timed("engine.window.push", win,
                    [&] { window.push(sample, std::move(loads)); });

        const Clock::time_point pass_start = Clock::now();
        const tme_e::WindowContext ctx = spans.timed("engine.capture", win, [&] {
            return tme_e::WindowContext::capture(window, epoch, config.methods,
                                                 min_series, ordinal++);
        });

        std::vector<tme_e::MethodExecution> executions;
        for (Method m : config.methods) {
            if (tme_e::is_series_method(m) && !ctx.run_series) continue;
            const std::size_t mi = method_index(m);
            executions.push_back(spans.timed(solve_span_name(m), win, [&] {
                if (m == Method::gravity) {
                    return tme_e::execute_method_guarded(m, ctx, options, nullptr,
                                                         last_good[mi]);
                }
                const Vector* seed =
                    config.warm_start && warm_valid[mi] ? &warm[mi] : nullptr;
                return tme_e::execute_method_guarded(m, ctx, options, seed,
                                                     last_good[mi],
                                                     config.warm_start);
            }));
        }
        tme_e::WindowResult result;
        result.window_start_sample = ctx.window_start_sample;
        result.window_end_sample = ctx.window_end_sample;
        result.window_size = ctx.window_size;
        result.epoch_fingerprint = ctx.epoch->fingerprint();
        for (tme_e::MethodExecution& ex : executions) {
            const std::size_t mi = method_index(ex.run.method);
            if (config.warm_start && ex.warm_next_valid) {
                warm[mi] = std::move(ex.warm_next);
                warm_valid[mi] = true;
            }
            result.runs.push_back(std::move(ex.run));
        }
        result.seconds = seconds_between(pass_start, Clock::now());

        // Truth scoring, in the engine's arithmetic order.
        const Vector& truth_now = in.demands(sample);
        Vector truth_mean;
        for (tme_e::MethodRun& run : result.runs) {
            const Vector* reference = &truth_now;
            if (tme_e::is_series_method(run.method)) {
                if (truth_mean.empty()) {
                    truth_mean.assign(truth_now.size(), 0.0);
                    for (std::size_t s : window.sample_indices()) {
                        const Vector& t = in.demands(s);
                        for (std::size_t p = 0; p < truth_mean.size(); ++p) {
                            truth_mean[p] += t[p];
                        }
                    }
                    const double inv_k = 1.0 / static_cast<double>(window.size());
                    for (double& v : truth_mean) v *= inv_k;
                }
                reference = &truth_mean;
            }
            if (tme::linalg::sum(*reference) > 0.0) {
                run.mre = tme::core::mre_at_coverage(*reference, run.estimate, 0.9);
            }
        }

        spans.timed("serve.publish", win, [&] {
            store.publish(tme::serve::EstimateSnapshot::from_window(result));
        });
        spans.close(win);
        out.window_s.push_back(spans.spans()[win].end - spans.spans()[win].start);
        out.capture_bytes.push_back(capture_bytes(ctx));
        out.tallies.note_window(spec, options, pairs, w, result);
        out.windows = w + 1;

        // One uncontended read of each kind against the new version.
        const auto latest = spans.timed("serve.read.latest", SpanLog::kNoParent,
                                        [&] { return reader.latest(); });
        if (!latest.ok() || latest.value.version != w + 1 ||
            !served_intact(latest.value, out.tallies.log.back().hash)) {
            out.tallies.fail("traced window " + std::to_string(w) +
                             ": served snapshot differs from the replay result");
            continue;
        }
        const tme::serve::EstimateSnapshot& snap = *latest.value;
        const Method m = snap.methods()[w % snap.methods().size()].method;
        const bool point_ok = spans.timed("serve.read.point", SpanLog::kNoParent, [&] {
            return tme::serve::point(snap, m, (w * 7919) % pairs).ok();
        });
        const bool topk_ok = spans.timed("serve.read.topk", SpanLog::kNoParent, [&] {
            return tme::serve::top_k(snap, m, 10).ok();
        });
        bool delta_ok = true;
        if (w > 0) {
            const auto older = reader.at(w);
            const Method dm = older.ok() && older.value->find(m) != nullptr
                                  ? m
                                  : snap.methods().front().method;
            delta_ok = older.ok() &&
                       spans.timed("serve.read.delta", SpanLog::kNoParent, [&] {
                           return tme::serve::delta(snap, *older.value, dm).ok();
                       });
        }
        if (!point_ok || !topk_ok || !delta_ok) {
            out.tallies.fail("traced window " + std::to_string(w) +
                             ": a read of the new version failed");
        }
    }
    out.wall_s = seconds_between(start, Clock::now());
    out.cache_hits = cache.hits();
    out.cache_misses = cache.misses();
    out.reclaim_deferred = store.reclaim_deferred();
    return out;
}

KernelTimes time_kernels(const Inputs& in) {
    const SparseMatrix& r = in.sc.routing;
    const Vector x = in.demands(in.sample(0));
    Vector y(r.rows(), 0.0);
    Vector xt(r.cols(), 0.0);
    KernelTimes k;
    k.rx_s = per_call_seconds([&] { r.multiply_into(x, y); });
    k.rtx_s = per_call_seconds([&] { r.multiply_transpose_into(y, xt); });

    const SparseMatrix rt = tme::linalg::transpose(r);
    std::vector<double> scratch(r.cols(), 0.0);
    std::vector<std::size_t> support;
    std::size_t j = 0;
    k.gram_column_s = per_call_seconds([&] {
        tme::linalg::gram_column(r.view(), rt.view(), j, scratch.data(), support);
        for (std::size_t s : support) scratch[s] = 0.0;
        j = (j + 7919) % r.cols();
    });
    // Values, column indices and gathered x per nonzero; row offsets and
    // the written y per row.
    k.spmv_bytes = 24.0 * static_cast<double>(r.nonzeros()) +
                   16.0 * static_cast<double>(r.rows()) + 8.0;
    return k;
}

double span_cost_seconds() {
    constexpr std::size_t n = 200000;
    SpanLog scratch;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        scratch.close(scratch.open("probe", SpanLog::kNoParent));
    }
    return seconds_between(t0, Clock::now()) / static_cast<double>(n);
}

double median_span(const SpanLog& log, const char* name) {
    std::vector<double> d;
    for (const Span& s : log.spans()) {
        if (std::string_view(s.name) == name) d.push_back(s.end - s.start);
    }
    return median(std::move(d));
}

double median_self_time(const SpanLog& log, const char* name) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> self(spans.size(), -1.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::string_view(spans[i].name) == name) {
            self[i] = spans[i].end - spans[i].start;
        }
    }
    for (const Span& s : spans) {
        if (s.parent != SpanLog::kNoParent && self[s.parent] >= 0.0) {
            self[s.parent] -= s.end - s.start;
        }
    }
    std::vector<double> d;
    for (double v : self) {
        if (v >= 0.0) d.push_back(v);
    }
    return median(std::move(d));
}

}  // namespace perfbench
