// The benchmark's three workloads: what each one builds from its seed,
// how the engine is configured, and the untraced closed-loop run that
// the end-to-end metrics come from.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "scenario/scenario.hpp"
#include "serve/store.hpp"
#include "util.hpp"

namespace perfbench {

using tme::engine::Method;
using tme::engine::method_count;

inline std::size_t method_index(Method m) { return static_cast<std::size_t>(m); }

struct WorkloadSpec {
    enum class Network { usa, europe, generated };

    std::string name;
    Network network = Network::usa;
    /// Generated backbones only: PoP count and the length of the
    /// generated day (the stream cycles through it).
    std::size_t pops = 0;
    std::size_t day_samples = 288;
    /// Window 0 feeds scenario sample start_sample + seed % start_offsets;
    /// window w the w-th sample after it (the stream cycles the day).
    std::size_t start_sample = 0;
    std::size_t start_offsets = 1;
    tme::engine::EngineConfig config;
    /// Run the engine's method fan-out on every hardware thread.
    bool fan_out_on_all_threads = false;
    /// Windows at which the stream switches to a perturbed routing and
    /// back to the original (0 = no reroute).
    std::size_t reroute_at = 0;
    std::size_t revert_at = 0;
    /// Closed-loop reader threads querying the store beside the writer,
    /// and the store's retention: enough versions that a reader the OS
    /// deschedules for a while still finds the version it addresses.
    std::size_t readers = 0;
    std::size_t store_retention = tme::serve::StoreOptions{}.retention;
    /// The readers' operation mix in percent; delta takes the rest.  An
    /// assumption, not a measurement: nothing in the repository records
    /// real reader traffic, and bench_perf_serving issues latest+point
    /// only.  Every result's provenance records it, so a change of mix
    /// is not mistaken for a change of the program.
    struct ReaderMix {
        unsigned latest_at = 30;
        unsigned point = 30;
        unsigned top_k = 20;
    };
    ReaderMix reader_mix;
    /// A run never stops before this many windows, whatever --seconds
    /// says, so the reroute, the scored windows and the tail percentile
    /// are always covered.
    std::size_t min_windows = 1;
    /// MREs average over the first `score_windows` windows, which makes
    /// them a deterministic function of the seed.
    std::size_t score_windows = 1;
    /// Percentile reported as window_tail_s; where the run is long
    /// enough, min_windows leaves at least ten windows beyond it.
    double tail_pct = 100.0;
};

const WorkloadSpec* find_workload(const std::string& name);

/// Everything a run is fed: the scenario day, the reroute matrix, and
/// the sample/routing/truth of every window from the seeded start.
struct Inputs {
    const WorkloadSpec* spec = nullptr;
    tme::scenario::Scenario sc;
    tme::linalg::SparseMatrix reroute;  ///< unused without a reroute
    std::size_t start = 0;

    std::size_t sample(std::size_t w) const { return start + w; }
    const tme::linalg::SparseMatrix& routing_for(std::size_t w) const;
    tme::linalg::Vector loads(std::size_t w) const;
    const tme::linalg::Vector& demands(std::size_t sample) const {
        return sc.demands[sample % sc.demands.size()];
    }
    std::size_t pairs() const { return sc.routing.cols(); }
};

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec, unsigned seed);

/// The engine configuration a workload runs with on this host.
tme::engine::EngineConfig engine_config(const WorkloadSpec& spec);

/// Payload hashes of published versions, written by the publishing sink
/// before the publish and read by readers that verify what they got.
/// A ring: readers only ever check versions within the store's
/// retention of the head, far less than the ring size.
class ExpectedPayloads {
  public:
    void set(std::uint64_t version, std::uint64_t hash) {
        ring_[version & kMask].store(hash, std::memory_order_release);
    }
    std::uint64_t get(std::uint64_t version) const {
        return ring_[version & kMask].load(std::memory_order_acquire);
    }

  private:
    static constexpr std::uint64_t kMask = (1u << 16) - 1;
    std::vector<std::atomic<std::uint64_t>> ring_ =
        std::vector<std::atomic<std::uint64_t>>(kMask + 1);
};

/// A served snapshot is intact (its checksum holds) and its payload is
/// bitwise the one hashed as `hash` before publication.
inline bool served_intact(const tme::serve::SnapshotRef& ref, std::uint64_t hash) {
    return ref && ref->consistent() && payload_hash(*ref) == hash;
}

/// What one window produced, for the traced-vs-untraced equivalence
/// gate: the payload hash and every run's MRE bit pattern.
struct WindowLog {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> mre_bits;
};

/// Per-method tallies over a phase's windows.
struct MethodTally {
    std::size_t runs = 0;
    std::size_t not_exact = 0;
    std::size_t warm_started = 0;
    std::size_t warm_accepted = 0;
    std::size_t capped = 0;
    tme::obs::SolverCounters solver;
    double mre_sum = 0.0;  ///< over the scored windows only
    std::size_t mre_n = 0;
};

/// Output checks and tallies shared by the untraced and traced phases.
struct Tallies {
    std::array<MethodTally, method_count> by_method{};
    std::vector<WindowLog> log;
    std::string error;  ///< first failed output check; empty when correct

    void fail(const std::string& what) {
        if (error.empty()) error = what;
    }
    /// Checks every run's estimate, counts quality/warm/cap outcomes
    /// and MREs, and appends the window's log entry.
    void note_window(const WorkloadSpec& spec,
                     const tme::engine::MethodOptions& options,
                     std::size_t pairs, std::size_t w,
                     const tme::engine::WindowResult& result);
    std::size_t runs() const;
    std::size_t runs_not_exact() const;
    double mean_mre(Method m) const;
};

/// Closed-loop readers' totals.
struct ReaderTotals {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;      ///< non-ok status or failed check
    std::uint64_t mismatched = 0;  ///< of those, failed checks
    double ops_per_s = 0.0;  ///< summed over readers
    LogHistogram latency;
};

/// Result of the untraced engine phase.
struct EngineRun {
    std::size_t windows = 0;
    double wall_s = 0.0;
    std::vector<double> window_s;  ///< ingest -> published, per window
    Tallies tallies;
    ReaderTotals reads;
};

/// The engine as a user deploys it: inputs, store, publishing sink.
struct EngineRig {
    std::unique_ptr<Inputs> in;
    tme::serve::EstimateStore store;
    ExpectedPayloads expected;
    tme::engine::OnlineEngine engine;

    EngineRig(const WorkloadSpec& spec, unsigned seed);
};

/// Streams windows through the rig's engine for `seconds` (and at least
/// spec.min_windows), with spec.readers reader threads beside it.
EngineRun run_engine(const WorkloadSpec& spec, EngineRig& rig, unsigned seed,
                     double seconds);

}  // namespace perfbench
