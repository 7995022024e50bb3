// Traffic matrix inference from deliberate routing changes (after Nucci,
// Cruz, Taft & Diot, INFOCOM 2004 — reference [14] of the paper).
//
// The paper's related work: "the routing is changed and shifting of link
// load is used to infer the traffic demands."  Every additional routing
// configuration R_j observed with its own load vector t_j (while the
// demands stay constant) contributes L fresh linear equations:
//
//     [ R_1 ]       [ t_1 ]
//     [ R_2 ]  s  =  [ t_2 ]        s >= 0
//     [ ... ]       [ ... ]
//
// With enough link-weight perturbations the stacked system becomes full
// rank and the traffic matrix is determined without any statistical
// prior.  This module stacks the snapshots, solves the NNLS, and reports
// the stacked rank so callers can see how many configurations were
// needed (the bench sweeps this).
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"

namespace tme::core {

/// Order-sensitive 64-bit fingerprint of a routing matrix (FNV-1a over
/// the CSR arrays, dimensions included): a compact label for a routing
/// epoch in reports and traces.  Any change produced by a reroute (new
/// paths, new weights, new dimensions) yields a different fingerprint
/// with overwhelming probability; the online engine's epoch cache
/// nevertheless identifies an epoch by content equality, never by this
/// label.
std::uint64_t routing_fingerprint(const linalg::SparseMatrix& routing);

/// One observed routing configuration and its load vector.
struct RoutingObservation {
    const linalg::SparseMatrix* routing = nullptr;
    linalg::Vector loads;
};

struct RouteChangeResult {
    linalg::Vector s;            ///< demand estimate
    std::size_t stacked_rank = 0;  ///< numerical rank of [R_1; ...; R_J]
    double residual_norm = 0.0;  ///< stacked LS residual
};

/// Estimates demands from J >= 1 routing configurations.  All matrices
/// must have the same column count; throws std::invalid_argument
/// otherwise.  Rank is computed via QR on the stacked transpose.
RouteChangeResult route_change_estimate(
    const std::vector<RoutingObservation>& observations);

/// Helper for experiments: reroutes the topology's LSP mesh with IGP
/// metrics perturbed multiplicatively per core link by deterministic
/// factors in [1, 1+spread] (seeded), returning the new routing matrix.
/// Models an operator's deliberate link-weight change.
linalg::SparseMatrix perturbed_routing(const topology::Topology& topo,
                                       double spread, unsigned seed);

}  // namespace tme::core
