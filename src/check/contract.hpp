// Runtime contract layer: typed, compile-time-removable invariant checks.
//
// The estimators in this repo fail by producing plausible-looking garbage,
// not by crashing — a NaN leaking out of a rank-deficient Cholesky or a
// malformed CSR structure flows silently through every downstream window.
// Contracts turn that class of bug into an immediate typed exception at
// the boundary where the invariant first broke.
//
// Two tiers, both statement-shaped and both removed entirely when
// contracts are compiled out (each site then costs literally nothing —
// the condition expression is never evaluated):
//
//   TME_CONTRACT(cond, msg)      cheap boundary predicates (size/shape
//                                checks, option sanity) — O(1).
//   TME_CONTRACT_DBG(cond, msg)  expensive scans (full-vector NaN/Inf
//                                sweeps, CSR structure walks) — O(n) or
//                                O(nnz); a separate switch so a build can
//                                keep the cheap tier in production.
//
// Statement forms for the reusable validators in check/validators.hpp
// (which throw ContractViolation themselves with precise diagnostics):
//
//   TME_CONTRACT_CHECK(check::finite(x, "nnls solution"));
//   TME_CONTRACT_DBG_CHECK(check::csr_structure(r.view(), "routing"));
//
// Compile-time gating:
//   * -DTME_CONTRACTS=0/1 forces the cheap tier off/on;
//   * -DTME_CONTRACTS_DBG=0/1 forces the expensive tier (never on while
//     the cheap tier is off);
//   * with neither defined, both tiers follow !defined(NDEBUG) — debug
//     builds check, release builds compile every site to nothing.
// The build system passes TME_CONTRACTS[_DBG]=1 in the default (test)
// configuration and 0 in the bench lane; tests/check/test_contracts.cpp
// pins that a compiled-out or suspended site never evaluates its
// argument, and bench_perf_solvers gates that estimates are bitwise
// identical with contracts armed and suspended.
//
// Runtime switch: when compiled in, contracts are armed by default and
// can be suspended process-wide (ScopedContractSuspend) so one binary
// can measure checked-vs-unchecked behaviour.  The suspension gate is a
// single relaxed atomic load per site, the same discipline as
// obs tracing.  See docs/STATIC_ANALYSIS.md.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

#if defined(TME_CONTRACTS)
#if TME_CONTRACTS
#define TME_CONTRACTS_ENABLED 1
#else
#define TME_CONTRACTS_ENABLED 0
#endif
#elif defined(NDEBUG)
#define TME_CONTRACTS_ENABLED 0
#else
#define TME_CONTRACTS_ENABLED 1
#endif

#if !TME_CONTRACTS_ENABLED
// The expensive tier never runs without the cheap one.
#define TME_CONTRACTS_DBG_ENABLED 0
#elif defined(TME_CONTRACTS_DBG)
#if TME_CONTRACTS_DBG
#define TME_CONTRACTS_DBG_ENABLED 1
#else
#define TME_CONTRACTS_DBG_ENABLED 0
#endif
#else
#define TME_CONTRACTS_DBG_ENABLED TME_CONTRACTS_ENABLED
#endif

namespace tme::check {

/// Thrown when a contract fails.  Derives std::logic_error: a contract
/// violation is a programming/data-integrity error, not a recoverable
/// condition — tests assert on the type, production catches it at the
/// window boundary and quarantines the window.
class ContractViolation : public std::logic_error {
  public:
    ContractViolation(const char* condition, const char* file, int line,
                      const std::string& detail);

    const char* condition() const { return condition_; }
    const char* file() const { return file_; }
    int line() const { return line_; }

  private:
    const char* condition_;
    const char* file_;
    int line_;
};

namespace detail {

extern std::atomic<bool> g_contracts_armed;

[[noreturn]] void raise(const char* condition, const char* file, int line,
                        const std::string& detail);

}  // namespace detail

/// True when contract sites were compiled into this binary (cheap tier).
constexpr bool contracts_compiled() { return TME_CONTRACTS_ENABLED != 0; }

/// True when the expensive (DBG) tier was compiled in.
constexpr bool contracts_dbg_compiled() {
    return TME_CONTRACTS_DBG_ENABLED != 0;
}

/// Compiled-in contracts evaluate only while armed (default: armed).
inline bool contracts_armed() {
    return detail::g_contracts_armed.load(std::memory_order_relaxed);
}

/// Process-wide suspension, for measuring checked-vs-unchecked runs in
/// one binary (the bench's bitwise gate).  Not a security boundary;
/// nesting is not reference-counted — use one scope at a time.
class ScopedContractSuspend {
  public:
    ScopedContractSuspend() {
        detail::g_contracts_armed.store(false, std::memory_order_relaxed);
    }
    ~ScopedContractSuspend() {
        detail::g_contracts_armed.store(true, std::memory_order_relaxed);
    }
    ScopedContractSuspend(const ScopedContractSuspend&) = delete;
    ScopedContractSuspend& operator=(const ScopedContractSuspend&) = delete;
};

}  // namespace tme::check

#if TME_CONTRACTS_ENABLED
#define TME_CONTRACT(cond, msg)                                            \
    do {                                                                   \
        if (::tme::check::contracts_armed() && !(cond)) {                  \
            ::tme::check::detail::raise(#cond, __FILE__, __LINE__, (msg)); \
        }                                                                  \
    } while (0)
#define TME_CONTRACT_CHECK(validator_call)          \
    do {                                            \
        if (::tme::check::contracts_armed()) {      \
            validator_call;                         \
        }                                           \
    } while (0)
#else
#define TME_CONTRACT(cond, msg) static_cast<void>(0)
#define TME_CONTRACT_CHECK(validator_call) static_cast<void>(0)
#endif

#if TME_CONTRACTS_DBG_ENABLED
#define TME_CONTRACT_DBG(cond, msg) TME_CONTRACT(cond, msg)
#define TME_CONTRACT_DBG_CHECK(validator_call) \
    TME_CONTRACT_CHECK(validator_call)
#else
#define TME_CONTRACT_DBG(cond, msg) static_cast<void>(0)
#define TME_CONTRACT_DBG_CHECK(validator_call) static_cast<void>(0)
#endif
