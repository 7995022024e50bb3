// Gravity models (paper Section 4.1).
//
// The simple gravity model predicts
//
//     s_nm = t_e(n) * t_x(m) / sum_m t_x(m)
//
// from edge-link loads alone; equivalently, every source fans its
// entering traffic out proportionally to destination exit shares.  The
// generalized variant zeroes peer-to-peer demand and renormalizes, using
// PoP roles from the topology.
#pragma once

#include "core/problem.hpp"

namespace tme::core {

/// Simple gravity estimate from a load snapshot (uses only edge rows).
/// Throws std::invalid_argument when no traffic exits the network.
linalg::Vector gravity_estimate(const SnapshotProblem& problem);

/// Whether any traffic exits the network in the snapshot — exactly the
/// condition under which gravity_estimate has an estimate to return.
bool has_exiting_traffic(const SnapshotProblem& problem);

/// Generalized gravity: demand between two peering PoPs is forced to 0
/// and the remaining entries are scaled so each source's total entering
/// traffic is preserved.
linalg::Vector generalized_gravity_estimate(const SnapshotProblem& problem);

}  // namespace tme::core
