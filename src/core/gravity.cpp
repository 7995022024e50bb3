#include "core/gravity.hpp"

#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"

namespace tme::core {

namespace {

struct EdgeTotals {
    linalg::Vector entering;  // t_e(n)
    linalg::Vector exiting;   // t_x(m)
    double total_exit = 0.0;
};

EdgeTotals edge_totals(const SnapshotProblem& problem) {
    const topology::Topology& topo = *problem.topo;
    EdgeTotals et;
    et.entering.resize(topo.pop_count());
    et.exiting.resize(topo.pop_count());
    for (std::size_t n = 0; n < topo.pop_count(); ++n) {
        et.entering[n] = problem.loads[topo.ingress_link(n)];
        et.exiting[n] = problem.loads[topo.egress_link(n)];
        et.total_exit += et.exiting[n];
    }
    return et;
}

}  // namespace

linalg::Vector gravity_estimate(const SnapshotProblem& problem) {
    problem.validate_with_topology();
    const topology::Topology& topo = *problem.topo;
    const EdgeTotals et = edge_totals(problem);
    if (et.total_exit <= 0.0) {
        throw std::invalid_argument("gravity_estimate: no exiting traffic");
    }
    linalg::Vector s(topo.pair_count(), 0.0);
    for (std::size_t n = 0; n < topo.pop_count(); ++n) {
        for (std::size_t m = 0; m < topo.pop_count(); ++m) {
            if (n == m) continue;
            s[topo.pair_index(n, m)] =
                et.entering[n] * et.exiting[m] / et.total_exit;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "gravity_estimate", s, /*require_nonnegative=*/true));
    return s;
}

bool has_exiting_traffic(const SnapshotProblem& problem) {
    return edge_totals(problem).total_exit > 0.0;
}

linalg::Vector generalized_gravity_estimate(const SnapshotProblem& problem) {
    problem.validate_with_topology();
    const topology::Topology& topo = *problem.topo;
    const EdgeTotals et = edge_totals(problem);
    if (et.total_exit <= 0.0) {
        throw std::invalid_argument(
            "generalized_gravity_estimate: no exiting traffic");
    }
    linalg::Vector s(topo.pair_count(), 0.0);
    for (std::size_t n = 0; n < topo.pop_count(); ++n) {
        const bool n_peer = topo.pop(n).role == topology::PopRole::peering;
        // Exit share restricted to destinations this source may send to.
        double allowed_exit = 0.0;
        for (std::size_t m = 0; m < topo.pop_count(); ++m) {
            if (m == n) continue;
            const bool m_peer =
                topo.pop(m).role == topology::PopRole::peering;
            if (n_peer && m_peer) continue;
            allowed_exit += et.exiting[m];
        }
        if (allowed_exit <= 0.0) continue;
        for (std::size_t m = 0; m < topo.pop_count(); ++m) {
            if (m == n) continue;
            const bool m_peer =
                topo.pop(m).role == topology::PopRole::peering;
            if (n_peer && m_peer) continue;
            // Each source's entering total is preserved:
            // sum_m s_nm = t_e(n).
            s[topo.pair_index(n, m)] =
                et.entering[n] * et.exiting[m] / allowed_exit;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "generalized_gravity_estimate", s, /*require_nonnegative=*/true));
    return s;
}

}  // namespace tme::core
