#pragma once

#include <cstddef>
#include <vector>

#include "analysis/certificate.hpp"
#include "netlist/circuit.hpp"
#include "testability/cop.hpp"

namespace tpi::analysis {

/// Observe-point candidates that are provably zero-gain under COP, with
/// transparent-chain certificates.
///
/// The criterion is *bitwise*: `zero_gain[v]` is set exactly when
/// `cop.obs[v] == 1.0`. Because every COP factor lies in [0, 1] and
/// rounding is monotone, a product can equal 1.0 only when every factor
/// is exactly 1.0 — so obs[v] == 1.0 certifies a fully transparent
/// fanout chain to a primary output. An observe point at such a node
/// leaves the transformed circuit's COP bitwise unchanged (the new
/// branch contributes max(1.0, 1.0)), hence every fault detection
/// probability, every candidate score, and every planner decision is
/// bitwise identical with or without the candidate. The observe DP
/// applies the same criterion to its placements (TreeObsDp::zero_gain);
/// this pass reports the sites and their certificates for `tpidp
/// analyze` and lint.
struct ObservePruning {
    std::vector<bool> zero_gain;
    std::size_t count = 0;

    /// TransparentChain certificates for the first `max_certificates`
    /// pruned nodes, in topological order.
    std::vector<Certificate> certificates;
};

/// `cop` must be compute_cop (or a bitwise-equal export) of `circuit`.
ObservePruning compute_observe_pruning(const netlist::Circuit& circuit,
                                       const testability::CopResult& cop,
                                       std::size_t max_certificates);

/// The transparent chain witnessing cop.obs[v] == 1.0: a fanout path
/// from v to a primary output whose every gate-entry sensitisation
/// factor is exactly 1.0. Precondition: cop.obs[v] == 1.0 bitwise
/// (throws tpi::Error otherwise).
std::vector<netlist::NodeId> transparent_chain(
    const netlist::Circuit& circuit, const testability::CopResult& cop,
    netlist::NodeId v);

}  // namespace tpi::analysis
