// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 streams the workload through OnlineEngine (plus the serving
// layer) for S seconds and reports the end-to-end metrics.  --trace 1
// runs the same untraced stream for S/2 seconds, then replays it
// serially through the public layer functions with one span per call
// for S/2 seconds, gates that the replay's estimates and MREs are
// bitwise the engine's, and reports the per-layer metrics.  The last
// line of standard output is the JSON result; perfbench/README.md
// documents workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_build/perfbench/results";
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = static_cast<unsigned>(std::stoul(value));
        } else if (key == "--seconds") {
            a.seconds = std::stod(value);
        } else if (key == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            a.trace = value == "1";
        } else if (key == "--out-dir") {
            a.out_dir = value;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return a;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                        &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
        }
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        const std::size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

#define PERFBENCH_STR2(x) #x
#define PERFBENCH_STR(x) PERFBENCH_STR2(x)

/// Seconds a fixed amount of single-thread work takes: a dependent chain
/// of multiply-adds, independent of the program under measurement.
/// Every result file records it before and after the measured part, so
/// a run that the host slowed down can be told from one that the
/// program slowed down.
double calibration_seconds() {
    // Volatile operands, so the compiler can neither fold nor shorten the chain.
    volatile double start = 1.0;
    volatile double factor = 0.9999999;
    const Clock::time_point t0 = Clock::now();
    double x = start;
    const double a = factor;
    for (int i = 0; i < 20000000; ++i) x = x * a + 1e-7;
    start = x;
    return seconds_between(t0, Clock::now());
}

/// Build and host provenance, recorded with every result.
std::string provenance_json(const Args& a, const WorkloadSpec& spec) {
    std::ostringstream o;
    o << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":\"" << json_escape(cpu_model()) << "\""
#if defined(__clang__)
      << ",\"compiler\":\"clang " << __clang_version__ << "\""
#elif defined(__GNUC__)
      << ",\"compiler\":\"gcc " << __VERSION__ << "\""
#else
      << ",\"compiler\":\"unknown\""
#endif
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
#ifdef NDEBUG
      << ",\"NDEBUG\":1"
#else
      << ",\"NDEBUG\":0"
#endif
#ifdef TME_CONTRACTS
      << ",\"TME_CONTRACTS\":" PERFBENCH_STR(TME_CONTRACTS)
#else
      << ",\"TME_CONTRACTS\":\"undefined\""
#endif
#ifdef TME_CONTRACTS_DBG
      << ",\"TME_CONTRACTS_DBG\":" PERFBENCH_STR(TME_CONTRACTS_DBG)
#else
      << ",\"TME_CONTRACTS_DBG\":\"undefined\""
#endif
#ifdef TME_FAULT_INJECTION
      << ",\"TME_FAULT_INJECTION\":" PERFBENCH_STR(TME_FAULT_INJECTION)
#else
      << ",\"TME_FAULT_INJECTION\":\"undefined\""
#endif
#ifdef TME_TRACING
      << ",\"TME_TRACING\":" PERFBENCH_STR(TME_TRACING)
#else
      << ",\"TME_TRACING\":\"undefined\""
#endif
      << ",\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
      << ",\"readers\":" << spec.readers;
    if (spec.readers > 0) {
        const WorkloadSpec::ReaderMix& mix = spec.reader_mix;
        o << ",\"reader_mix_pct\":{\"latest_at\":" << mix.latest_at
          << ",\"point\":" << mix.point << ",\"top_k\":" << mix.top_k
          << ",\"delta\":" << 100 - mix.latest_at - mix.point - mix.top_k << "}";
    }
    o << ",\"seconds\":" << a.seconds << ",\"trace\":" << (a.trace ? 1 : 0)
      << "}";
    return o.str();
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

class Report {
  public:
    void add(std::string name, double value, std::string unit,
             std::string note = "") {
        metrics_.push_back({std::move(name), value, std::move(unit),
                            std::move(note)});
    }
    const std::vector<Metric>& metrics() const { return metrics_; }

    std::string metrics_json() const {
        std::ostringstream o;
        o.precision(17);
        o << "{";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric& m = metrics_[i];
            o << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
              << m.unit << "\"}";
        }
        o << "}";
        return o.str();
    }
    bool all_finite() const {
        for (const Metric& m : metrics_) {
            if (!std::isfinite(m.value)) return false;
        }
        return true;
    }

  private:
    std::vector<Metric> metrics_;
};

std::string pct_label(double pct) {
    std::ostringstream o;
    o << "p" << pct;
    return o.str();
}

/// End-to-end metrics from an untraced run.
void report_end_to_end(const WorkloadSpec& spec, const std::vector<double>& setups,
                       const EngineRun& run, Report& r) {
    const std::size_t n = run.window_s.size();
    r.add("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " set-ups, range " +
              std::to_string(*std::min_element(setups.begin(), setups.end())) + "-" +
              std::to_string(*std::max_element(setups.begin(), setups.end())));
    r.add("windows_per_s", static_cast<double>(run.windows) / run.wall_s, "1/s",
          std::to_string(run.windows) + " windows");
    r.add("window_p50_s", median(run.window_s), "s", std::to_string(n) + " windows");
    r.add("window_tail_s", percentile(run.window_s, spec.tail_pct), "s",
          pct_label(spec.tail_pct) + " of " + std::to_string(n) + " windows");
    r.add("mre_bayesian", run.tallies.mean_mre(Method::bayesian), "ratio",
          "first " + std::to_string(spec.score_windows) + " windows");
    r.add("mre_fanout", run.tallies.mean_mre(Method::fanout), "ratio",
          "first " + std::to_string(spec.score_windows) + " windows");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

double per_run(std::size_t total, std::size_t runs) {
    return runs == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(runs);
}

/// Per-layer metrics from the untraced phase `a` and the traced replay `b`.
void report_per_layer(const WorkloadSpec& spec, const Inputs& in,
                      const EngineRun& a, const TracedRun& b, Report& r) {
    const SpanLog& log = b.spans;
    r.add("engine.window.push_s", median_span(log, "engine.window.push"), "s");
    r.add("engine.epoch.acquire_s", median_span(log, "engine.epoch.acquire"), "s",
          "cache hits");
    r.add("engine.epoch.cold_build_s", median(b.cold_epoch_s), "s",
          "missing acquire + derived data, " + std::to_string(b.cold_epoch_s.size()) +
              " cold epochs");
    r.add("engine.epoch.hits", per_run(b.cache_hits, b.cache_hits + b.cache_misses),
          "ratio", "of acquires");
    r.add("engine.epoch.misses", static_cast<double>(b.cache_misses), "count");
    r.add("engine.capture_s", median_span(log, "engine.capture"), "s");
    r.add("engine.capture.bytes", median(b.capture_bytes), "bytes");

    const tme::engine::EngineConfig config = engine_config(spec);
    const auto& tally = b.tallies.by_method;
    auto solve_s = [&](Method m) {
        return median_span(log, (std::string("core.") + tme::engine::method_name(m) +
                                 ".solve").c_str());
    };
    for (Method m : tme::engine::all_methods) {
        r.add(std::string("core.") + tme::engine::method_name(m) + ".solve_s",
              solve_s(m), "s");
    }
    for (Method m : {Method::entropy, Method::bayesian, Method::vardi, Method::fanout}) {
        const MethodTally& t = tally[method_index(m)];
        r.add(std::string("core.") + tme::engine::method_name(m) +
                  ".warm_accept_ratio",
              per_run(t.warm_accepted, t.warm_started), "ratio");
    }
    for (Method m : {Method::kruithof, Method::entropy, Method::bayesian,
                     Method::fanout}) {
        const MethodTally& t = tally[method_index(m)];
        r.add(std::string("core.") + tme::engine::method_name(m) + ".capped_ratio",
              per_run(t.capped, t.runs), "ratio");
    }

    const MethodTally& bay = tally[method_index(Method::bayesian)];
    const MethodTally& fan = tally[method_index(Method::fanout)];
    const MethodTally& var = tally[method_index(Method::vardi)];
    const MethodTally& ent = tally[method_index(Method::entropy)];
    const MethodTally& kru = tally[method_index(Method::kruithof)];
    r.add("linalg.qp.rounds.bayesian", per_run(bay.solver.qp_active_set_rounds, bay.runs),
          "count");
    r.add("linalg.qp.rounds.fanout", per_run(fan.solver.qp_active_set_rounds, fan.runs),
          "count");
    r.add("linalg.qp.cg_iters.bayesian", per_run(bay.solver.qp_cg_iterations, bay.runs),
          "count");
    r.add("linalg.qp.cg_iters.fanout", per_run(fan.solver.qp_cg_iterations, fan.runs),
          "count");
    r.add("linalg.nnls.pivots.bayesian", per_run(bay.solver.nnls_pivots, bay.runs),
          "count");
    r.add("linalg.nnls.pivots.vardi", per_run(var.solver.nnls_pivots, var.runs),
          "count");
    r.add("linalg.entropy.iters", per_run(ent.solver.entropy_iterations, ent.runs),
          "count");
    r.add("linalg.entropy.probes", per_run(ent.solver.entropy_armijo_probes, ent.runs),
          "count");
    r.add("linalg.mart.sweeps", per_run(kru.solver.kruithof_sweeps, kru.runs), "count");

    const KernelTimes k = time_kernels(in);
    r.add("linalg.spmv.rx_s", k.rx_s, "s");
    r.add("linalg.spmv.rtx_s", k.rtx_s, "s");
    r.add("linalg.spmv.bytes", k.spmv_bytes, "bytes");
    r.add("linalg.gram_column_s", k.gram_column_s, "s");
    // Each CG iteration applies R and R' once per sample the operator
    // spans: one for Bayesian, the window's samples for fanout.
    auto cg_share = [&](Method m, const MethodTally& t, double applies) {
        const double solve = solve_s(m);
        return solve > 0.0 ? per_run(t.solver.qp_cg_iterations, t.runs) * applies *
                                 (k.rx_s + k.rtx_s) / solve
                           : 0.0;
    };
    r.add("linalg.qp.cg_spmv_share.bayesian", cg_share(Method::bayesian, bay, 1.0),
          "ratio");
    r.add("linalg.qp.cg_spmv_share.fanout",
          cg_share(Method::fanout, fan, static_cast<double>(config.window_size)),
          "ratio");

    r.add("serve.publish_s", median_span(log, "serve.publish"), "s");
    r.add("serve.reclaim_deferred", static_cast<double>(b.reclaim_deferred), "count");
    r.add("serve.read.latest_us", 1e6 * median_span(log, "serve.read.latest"), "us");
    r.add("serve.read.point_us", 1e6 * median_span(log, "serve.read.point"), "us");
    r.add("serve.read.topk_us", 1e6 * median_span(log, "serve.read.topk"), "us");
    r.add("serve.read.delta_us", 1e6 * median_span(log, "serve.read.delta"), "us");

    const std::size_t common = std::min(a.window_s.size(), b.window_s.size());
    const std::vector<double> untraced(a.window_s.begin(),
                                       a.window_s.begin() + static_cast<std::ptrdiff_t>(common));
    const std::vector<double> traced(b.window_s.begin(),
                                     b.window_s.begin() + static_cast<std::ptrdiff_t>(common));
    r.add("engine.other_s", median_self_time(log, "window"), "s");
    r.add("engine.fanout_speedup", median(traced) / median(untraced), "ratio",
          "traced serial window / untraced window, " + std::to_string(common) +
              " windows");
    r.add("trace.overhead_frac",
          static_cast<double>(log.spans().size()) * span_cost_seconds() / b.wall_s,
          "ratio", std::to_string(log.spans().size()) + " spans");

    for (Method m : {Method::kruithof, Method::entropy, Method::vardi}) {
        r.add(std::string("mre_") + tme::engine::method_name(m), a.tallies.mean_mre(m),
              "ratio", "first " + std::to_string(spec.score_windows) + " windows");
    }
    r.add("degraded_frac", per_run(a.tallies.runs_not_exact(), a.tallies.runs()),
          "ratio", std::to_string(a.tallies.runs()) + " method runs");
    const double tail = tail_percentile_for(a.reads.latency.count());
    r.add("reads_per_s", a.reads.ops_per_s, "1/s",
          std::to_string(a.reads.ops) + " reads");
    r.add("read_p50_us", 1e6 * a.reads.latency.percentile(50.0), "us");
    r.add("read_tail_us", 1e6 * a.reads.latency.percentile(tail), "us",
          pct_label(tail) + " of " + std::to_string(a.reads.ops) + " reads");
    r.add("read_fail_frac",
          a.reads.ops == 0 ? 0.0
                           : static_cast<double>(a.reads.failed) /
                                 static_cast<double>(a.reads.ops),
          "ratio",
          std::to_string(a.reads.failed) + " failed, " +
              std::to_string(a.reads.mismatched) + " of them checks");
}

/// Equivalence gate: the replay must reproduce the engine's estimates
/// and MREs bitwise on every window both phases ran.
void check_equivalence(const EngineRun& a, TracedRun& b) {
    const std::size_t common = std::min(a.tallies.log.size(), b.tallies.log.size());
    if (common == 0) b.tallies.fail("no window to compare");
    for (std::size_t w = 0; w < common; ++w) {
        const WindowLog& x = a.tallies.log[w];
        const WindowLog& y = b.tallies.log[w];
        if (x.hash != y.hash || x.mre_bits != y.mre_bits) {
            b.tallies.fail("traced window " + std::to_string(w) +
                           " is not bitwise the engine's (estimates or MREs)");
            return;
        }
    }
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
}

int run(const Args& args) {
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    std::filesystem::create_directories(args.out_dir);
    const std::string provenance = provenance_json(args, *spec);
    std::printf("provenance %s\n", provenance.c_str());
    std::fflush(stdout);

    Report report;
    std::string error;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<double> window_s;  // recorded in the result file
    std::vector<double> calibration{calibration_seconds()};
    if (!args.trace) {
        // Set-up is timed in two batches, before and after the stream,
        // each at least kMinSetups set-ups and kSetupSeconds long: on a
        // host whose speed drifts over seconds, one batch would sample a
        // single moment.
        std::vector<double> setups;
        std::unique_ptr<EngineRig> rig;
        const auto time_setups = [&] {
            constexpr std::size_t kMinSetups = 3;
            constexpr std::size_t kMaxSetups = 50;
            constexpr double kSetupSeconds = 0.5;
            double total = 0.0;
            for (std::size_t i = 0;
                 i < kMaxSetups && (i < kMinSetups || total < kSetupSeconds); ++i) {
                rig.reset();
                const Clock::time_point t0 = Clock::now();
                rig = std::make_unique<EngineRig>(*spec, args.seed);
                setups.push_back(seconds_between(t0, Clock::now()));
                total += setups.back();
            }
        };
        time_setups();
        const EngineRun stream = run_engine(*spec, *rig, args.seed, args.seconds);
        time_setups();
        report_end_to_end(*spec, setups, stream, report);
        window_s = stream.window_s;
        if (spec->readers > 0) {
            std::printf("reads: %llu by %zu readers, %llu failed (%llu checks)\n",
                        static_cast<unsigned long long>(stream.reads.ops), spec->readers,
                        static_cast<unsigned long long>(stream.reads.failed),
                        static_cast<unsigned long long>(stream.reads.mismatched));
        }
        error = stream.tallies.error;
        attempted = stream.tallies.runs() + stream.reads.ops;
        failed = stream.tallies.runs_not_exact() + stream.reads.failed;
    } else {
        auto rig = std::make_unique<EngineRig>(*spec, args.seed);
        const EngineRun a = run_engine(*spec, *rig, args.seed, args.seconds / 2.0);
        // The replay covers at least the scored windows (which include
        // the reroute and its revert).
        TracedRun b = run_traced(*spec, *rig->in, std::min(a.windows, spec->score_windows),
                                 a.windows, args.seconds / 2.0);
        check_equivalence(a, b);
        report_per_layer(*spec, *rig->in, a, b, report);
        b.spans.write_chrome_trace(args.out_dir + "/spans-" + spec->name + ".json");
        error = !a.tallies.error.empty() ? a.tallies.error : b.tallies.error;
        attempted = a.tallies.runs() + a.reads.ops + b.tallies.runs();
        failed = a.tallies.runs_not_exact() + a.reads.failed +
                 b.tallies.runs_not_exact();
    }
    calibration.push_back(calibration_seconds());
    std::printf("calibration_s %.6f before, %.6f after\n", calibration[0],
                calibration[1]);
    if (!report.all_finite() && error.empty()) error = "a metric is not finite";
    const bool correct = error.empty();

    for (const Metric& m : report.metrics()) {
        std::printf("%-34s %-14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
    if (!correct) std::printf("output check FAILED: %s\n", error.c_str());

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << report.metrics_json() << "}";
    std::ostringstream windows;
    windows.precision(9);
    for (std::size_t i = 0; i < window_s.size(); ++i) {
        windows << (i == 0 ? "" : ",") << window_s[i];
    }
    write_file(args.out_dir + "/result-" + spec->name + "-trace" +
                   (args.trace ? "1" : "0") + ".json",
               "{\"provenance\": " + provenance + ", \"calibration_s\": [" +
                   std::to_string(calibration[0]) + "," +
                   std::to_string(calibration[1]) + "], \"result\": " + result.str() +
                   ", \"error\": \"" + json_escape(error) + "\", \"window_s\": [" +
                   windows.str() + "]}\n");
    std::printf("%s\n", result.str().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
