// Deterministic, seeded fault injection (compile-gated).
//
// The registry lets tests, benches and scenario replays schedule
// faults — corrupt measurements, routing inconsistencies, solver
// stalls/divergence, allocation failure — at exact, reproducible points
// in the stream.  Production code asks `should_inject(site, detail)` at
// each injection point; the call is an inline `return false` when the
// layer is compiled out (TME_FAULT_INJECTION=0, the release-native
// bench configuration, which gates that the compiled-out sites cost
// nothing and change no estimates) and a couple of relaxed atomic loads
// when compiled in but disarmed, so leaving the sites in the hot paths
// is free.
//
// Determinism contract: a FaultSpec fires on exact *matching-hit
// ordinals* (skip `after_hits` matching probes, then fire `count`
// consecutive ones), never on wall-clock time or unseeded randomness.
// `draw()` values come from a splitmix64 stream keyed by (seed, site,
// fire ordinal), so the same schedule over the same serial stream
// corrupts the same link of the same sample every run.  Scope filters
// target one fleet job (the ambient thread scope set by
// ScopedFaultScope) or one method (the `detail` string a solver site
// passes), which is how a single poisoned job is injected while its
// siblings stay byte-identical to a fault-free run.
//
// This directory is a base layer like obs/counters.hpp: it includes
// nothing from core/linalg/engine/obs/serve, so every layer may call
// into it (see tools/lint_invariants.py LAYERING_RULES).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if !defined(TME_FAULT_INJECTION)
#define TME_FAULT_INJECTION 0
#endif

namespace tme::fault {

enum class FaultSite : std::uint8_t {
    measurement_nan,        ///< one link load becomes NaN at ingest
    measurement_negative,   ///< one link load becomes negative
    measurement_drop,       ///< one link load is dropped (zeroed)
    routing_inconsistency,  ///< window capture sees inconsistent routing
    solver_stall,           ///< a solve wedges (its budget expires at once)
    solver_diverge,         ///< a solve returns a non-finite estimate
    alloc_failure,          ///< a window allocation throws bad_alloc
};

inline constexpr std::size_t fault_site_count = 7;

/// One scheduled fault: fire `count` consecutive times at `site` after
/// `after_hits` matching probes have passed.
struct FaultSpec {
    FaultSite site = FaultSite::measurement_nan;
    /// Scope filter.  Empty matches every probe of `site`; otherwise
    /// the probe's `detail` string (method name at solver sites) or the
    /// probing thread's ambient scope (fleet job name, see
    /// ScopedFaultScope) must equal it.
    std::string scope;
    /// Matching probes skipped before the spec starts firing.
    std::uint64_t after_hits = 0;
    /// Matching probes that fire once started.
    std::uint64_t count = 1;
};

/// Per-site probe/injection totals since the last arm().
struct FaultStats {
    std::uint64_t hits[fault_site_count] = {};   ///< probes while armed
    std::uint64_t fires[fault_site_count] = {};  ///< injections delivered

    std::uint64_t total_fires() const {
        std::uint64_t total = 0;
        for (std::uint64_t f : fires) total += f;
        return total;
    }
};

/// Whether the fault layer is compiled into this build.
constexpr bool compiled() { return TME_FAULT_INJECTION != 0; }

#if TME_FAULT_INJECTION

/// Installs `schedule` and starts matching probes against it.  `seed`
/// keys the draw() streams.  Replaces any previous schedule and zeroes
/// the statistics.  Thread-safe, but arming while probes are in flight
/// makes the hit ordinals racy — arm before starting the workload.
void arm(std::vector<FaultSpec> schedule, std::uint64_t seed);

/// Removes the schedule; every subsequent probe returns false.
void disarm();

/// True between arm() and disarm().
bool armed();

/// Probe/injection totals since the last arm().
FaultStats stats();

/// Probes `site`: true when an armed spec matches and its fire window
/// covers this probe.  `detail` is the site-local scope (method name at
/// solver sites); null falls back to the thread's ambient scope.
bool should_inject(FaultSite site, const char* detail = nullptr);

/// Deterministic 64-bit value for the most recent fire at `site`
/// (splitmix64 of seed, site and the site's fire ordinal) — injection
/// points use it to pick e.g. which link load to corrupt.
std::uint64_t draw(FaultSite site);

/// The probing thread's ambient scope ("" when none): fleet workers set
/// it to the job name so schedules can poison exactly one job.
const char* current_scope();

/// RAII ambient scope for the current thread; nests.
class ScopedFaultScope {
  public:
    explicit ScopedFaultScope(std::string scope);
    ~ScopedFaultScope();
    ScopedFaultScope(const ScopedFaultScope&) = delete;
    ScopedFaultScope& operator=(const ScopedFaultScope&) = delete;

  private:
    std::string scope_;
    const char* previous_;
};

#else  // TME_FAULT_INJECTION compiled out: zero-cost inline no-ops.

inline void arm(std::vector<FaultSpec>, std::uint64_t) {}
inline void disarm() {}
inline constexpr bool armed() { return false; }
inline FaultStats stats() { return {}; }
inline constexpr bool should_inject(FaultSite,
                                    const char* = nullptr) {
    return false;
}
inline constexpr std::uint64_t draw(FaultSite) { return 0; }
inline constexpr const char* current_scope() { return ""; }

class ScopedFaultScope {
  public:
    explicit ScopedFaultScope(std::string) {}
};

#endif  // TME_FAULT_INJECTION

}  // namespace tme::fault
