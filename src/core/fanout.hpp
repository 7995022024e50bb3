// Fanout estimation from a time series of link loads (paper Section
// 4.2.4 — the paper's novel method).
//
// Assume fanouts are constant over the window (all load fluctuation comes
// from per-source total traffic changes; Section 5.2.2 shows this is a
// good model for large sources).  With S[k] = diag of per-source totals
// applied to pairs, solve
//
//     minimize    sum_k || R S[k] a - t[k] ||^2
//     subject to  sum_m a_nm = 1  for every source n,    a >= 0.
//
// The per-source totals te(n)[k] are read from the ingress edge-link rows
// of t[k] itself, so the method needs nothing beyond (R, t[k]).  The
// window makes the system overdetermined for K >= 3 even when R is rank
// deficient (paper Fig. 10); accuracy saturates quickly with K (Fig. 11).
//
// The data term H = sum_k W_k (R'R) W_k is never materialized, dense or
// CSR: the QP (linalg::solve_eq_qp_nonneg_operator) applies it per
// window sample through R and R' (O(nnz * window) per product) and
// generates KKT rows on demand as source-weighted Gram columns
// (linalg::gram_column).
#pragma once

#include <cstdint>

#include "core/problem.hpp"
#include "linalg/qp.hpp"

namespace tme::core {

/// The fanout QP's equality-constraint structure: per source, fanouts
/// sum to one.  It depends only on the topology's pair enumeration (one
/// row per source PoP, E(src(p), p) = 1), so the online engine builds
/// it once per routing epoch and shares it across windows.  Held in
/// CSR form only (one nonzero per column) — the QP iterates E's
/// nonzeros directly.
struct FanoutConstraints {
    std::vector<std::size_t> source_of;  ///< pair -> source PoP
    /// E in CSR form (pops x pairs, one nonzero per column).
    linalg::SparseMatrix equality_sparse;
    linalg::Vector rhs;                  ///< all-ones right-hand side

    static FanoutConstraints build(const topology::Topology& topo);
};

/// The sums over a window's K samples that the fanout QP reads, with
/// te_k[n] the ingress edge-link load of source n at sample k and
/// w_k[p] = te_k[src(p)].  fanout_window_sums is their one
/// implementation: fanout_estimate calls it when no aggregates are
/// supplied, and the online engine's window capture calls it to fill
/// them, so both paths see the same doubles.
struct FanoutWindowSums {
    /// sum_k te_k te_k' (nodes x nodes).  The pair-space weighting
    /// matrix sum_k w_k w_k' is its lift.
    linalg::Matrix source_outer;
    /// sum_k w_k .* (R' t[k]) (pair-indexed).
    linalg::Vector weighted_rhs;
};

FanoutWindowSums fanout_window_sums(const SeriesProblem& problem);

/// Precomputed window aggregates for fanout_estimate: the two
/// fanout_window_sums and linalg::sample_mean of the window loads.  All
/// three must be supplied together; none are owned.
struct FanoutWindowAggregates {
    const linalg::Matrix* source_outer = nullptr;
    const linalg::Vector* weighted_rhs = nullptr;
    /// Mean load vector over the window (length = link count).
    const linalg::Vector* mean_loads = nullptr;

    bool complete() const {
        return source_outer != nullptr && weighted_rhs != nullptr &&
               mean_loads != nullptr;
    }
    bool empty() const {
        return source_outer == nullptr && weighted_rhs == nullptr &&
               mean_loads == nullptr;
    }
};

struct FanoutOptions {
    /// Weight (relative to the data term's diagonal) of a weak Tikhonov
    /// pull toward the gravity fanouts computed from the window's mean
    /// edge loads.  The LS system identifies fanouts only up to the
    /// directions excited by differential per-source total variation;
    /// when the busy-hour totals are nearly flat those directions are
    /// data-starved, and this term selects the gravity-consistent
    /// solution among the near-optimal ones instead of an arbitrary
    /// vertex.  Set to 0 for the paper's pure formulation.
    double gravity_tiebreak_weight = 1e-3;
    /// Optional precomputed equality-constraint structure; MUST equal
    /// FanoutConstraints::build(*problem.topo).  Not owned.
    const FanoutConstraints* shared_constraints = nullptr;
    /// Optional precomputed CSR transpose of the routing matrix; MUST
    /// equal linalg::transpose(*problem.routing) (the engine caches it
    /// per routing epoch); derived on the fly when absent.  Not owned.
    const linalg::SparseMatrix* shared_routing_transpose = nullptr;
    /// Optional precomputed window aggregates (see above).
    FanoutWindowAggregates aggregates;
    /// Options of the operator QP solve (solve_eq_qp_nonneg_operator:
    /// dense-gather limit, projected-CG tolerance/caps, block runner,
    /// counters, budget), passed through unchanged.  qp.warm_start is
    /// the previous window's fanout vector (pair-indexed, or null): the
    /// QP verifies the seed's KKT feasibility and falls back to a cold
    /// solve when it is inconsistent, so on the exact-LU path (every
    /// paper-scale window) the estimate does not depend on the seed.
    /// In the projected-CG regime warm and cold solves stop at slightly
    /// different points (see qp.hpp).
    linalg::EqQpNonnegOptions qp;
};

struct FanoutResult {
    linalg::Vector fanouts;          ///< alpha, pair-indexed
    /// Estimated demands averaged over the window:
    /// alpha_p * mean_k te(src(p))[k], from the mean loads.
    linalg::Vector mean_demands;
    double equality_violation = 0.0; ///< worst |sum_m a_nm - 1|
    std::size_t qp_iterations = 0;   ///< KKT solves the QP performed
    /// Projected-CG iterations across those solves (0 when every KKT
    /// system fit the dense-gather path; see EqQpNonnegResult).
    std::size_t qp_cg_iterations = 0;
    /// True when the warm-start seed passed KKT verification (no cold
    /// fall-back); feed `fanouts` into the next window's warm_start.
    bool warm_accepted = false;
};

/// Estimates constant fanouts over the window.
FanoutResult fanout_estimate(const SeriesProblem& problem,
                             const FanoutOptions& options = {});

/// Demands implied by fanouts at a single snapshot (using its edge-link
/// loads for the per-source totals).
linalg::Vector demands_from_fanout_snapshot(const SnapshotProblem& problem,
                                            const linalg::Vector& fanouts);

}  // namespace tme::core
