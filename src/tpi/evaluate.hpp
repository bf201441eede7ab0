#pragma once

#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "netlist/test_point.hpp"
#include "tpi/objective.hpp"

namespace tpi {

/// COP-based evaluation of a test-point plan against the *original*
/// circuit's fault universe.
struct PlanEvaluation {
    /// Detection probability per collapsed fault of the original circuit,
    /// as estimated on the transformed (test-point-inserted) netlist.
    std::vector<double> detection_probability;
    /// Objective value (weighted benefit sum).
    double score = 0.0;
    /// Estimated N-pattern fault coverage over the uncollapsed universe.
    double estimated_coverage = 0.0;
    /// Bottleneck: the minimum detection probability over the universe.
    double min_detection_probability = 0.0;
};

/// Materialise `points` into the circuit, recompute COP with all inputs
/// (including the fresh test-signal inputs) equiprobable, and score the
/// original fault universe. This is the from-scratch oracle the
/// planners' EvalEngine scores are tested against bit-for-bit, and the
/// reference path of serve `score` with `exact_eval`.
PlanEvaluation evaluate_plan(const netlist::Circuit& circuit,
                             const fault::CollapsedFaults& faults,
                             std::span<const netlist::TestPoint> points,
                             const Objective& objective);

}  // namespace tpi
