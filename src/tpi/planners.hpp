#pragma once

#include "tpi/plan.hpp"

namespace tpi {

/// The paper's algorithm for general circuits: decompose into maximal
/// fanout-free regions, run the tree DP (joint control+observation where
/// possible, observation-only otherwise) inside each region for every
/// budget, allocate the global budget across regions with an outer
/// knapsack, apply, recompute COP and repeat for a few rounds to absorb
/// cross-region coupling.
class DpPlanner final : public Planner {
public:
    Plan plan(const netlist::Circuit& circuit,
              const PlannerOptions& options) override;
    std::string_view name() const override { return "dp"; }
};

/// The classic testability-measure greedy baseline: each step ranks
/// candidate (net, kind) pairs by a cheap COP-local proxy, exactly
/// re-evaluates the most promising ones (EvalEngine::score_block), inserts
/// the best, and repeats until the budget is spent or no candidate helps.
class GreedyPlanner final : public Planner {
public:
    Plan plan(const netlist::Circuit& circuit,
              const PlannerOptions& options) override;
    std::string_view name() const override { return "greedy"; }
};

/// Uniform random placements (the lower-bound baseline).
class RandomPlanner final : public Planner {
public:
    Plan plan(const netlist::Circuit& circuit,
              const PlannerOptions& options) override;
    std::string_view name() const override { return "random"; }
};

/// Exact oracle: enumerates every placement set within budget and keeps
/// the best under the COP objective (EvalEngine scores, bit-identical to
/// evaluate_plan). Exponential — small circuits only; used
/// by the DP optimality experiments (Table 2) and tests.
class ExhaustivePlanner final : public Planner {
public:
    Plan plan(const netlist::Circuit& circuit,
              const PlannerOptions& options) override;
    std::string_view name() const override { return "exhaustive"; }
};

}  // namespace tpi
