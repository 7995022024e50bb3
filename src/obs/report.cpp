#include "obs/report.hpp"

#include <cstdio>
#include <utility>

namespace tme::obs {

Json histogram_to_json(const HistogramSnapshot& snapshot) {
    Json j = Json::object();
    j.set("count", static_cast<long long>(snapshot.count));
    j.set("mean_s", snapshot.mean_seconds());
    j.set("p50_s", snapshot.p50());
    j.set("p95_s", snapshot.p95());
    j.set("p99_s", snapshot.p99());
    j.set("max_s", snapshot.max_seconds());
    if (snapshot.count > 0) j.set("min_s", snapshot.min_seconds());
    return j;
}

Json counters_to_json(const SolverCounters& counters) {
    Json j = Json::object();
    const auto put = [&j](const char* key, std::size_t value) {
        if (value != 0) j.set(key, static_cast<long long>(value));
    };
    put("qp_active_set_rounds", counters.qp_active_set_rounds);
    put("qp_cg_iterations", counters.qp_cg_iterations);
    put("entropy_iterations", counters.entropy_iterations);
    put("entropy_armijo_probes", counters.entropy_armijo_probes);
    put("kruithof_sweeps", counters.kruithof_sweeps);
    put("nnls_pivots", counters.nnls_pivots);
    put("capped_solves", counters.capped_solves);
    return j;
}

Report::Report(std::string name) : root_(Json::object()) {
    root_.set("report", std::move(name));
}

bool Report::write_file(const std::string& path, int indent) const {
    // Write-then-rename so the report appears atomically: a reader (CI
    // gate, dashboard scraper) polling `path` sees either the previous
    // complete report or the new complete report, never a torn partial
    // write — and a crash mid-write leaves the previous report intact.
    const std::string text = to_json(indent) + "\n";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote_all =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote_all || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

}  // namespace tme::obs
