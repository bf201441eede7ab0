#pragma once

#include "tpi/evaluate.hpp"
#include "tpi/plan.hpp"

namespace tpi {

/// Acceptance test of the TPI-MIN (threshold) formulation. A plan is
/// accepted when every enabled goal holds.
struct ThresholdGoal {
    /// Require every fault's detection probability >= this (0 disables).
    double min_detection = 0.0;
    /// Require estimated N-pattern coverage >= this (0 disables).
    double estimated_coverage = 0.0;
};

struct ThresholdResult {
    Plan plan;
    bool feasible = false;
    int budget_used = 0;      ///< smallest budget meeting the goal
    PlanEvaluation evaluation;
};

/// TPI-MIN: find the smallest test-point budget for which `planner`
/// produces a plan meeting `goal`, trying budgets 0..max_budget. The
/// ThresholdLinear objective (theta = goal.min_detection) is used to
/// steer the planner when min_detection is enabled. All other options —
/// including prune_via_lint — forward to the inner planner at every
/// budget, so the returned plan carries that planner's pruning counters.
ThresholdResult solve_min_points(const netlist::Circuit& circuit,
                                 Planner& planner,
                                 PlannerOptions base_options,
                                 const ThresholdGoal& goal, int max_budget);

}  // namespace tpi
