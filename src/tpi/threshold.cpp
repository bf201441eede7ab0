#include "tpi/threshold.hpp"

#include "fault/fault.hpp"
#include "tpi/eval_engine.hpp"
#include "util/error.hpp"

namespace tpi {

ThresholdResult solve_min_points(const netlist::Circuit& circuit,
                                 Planner& planner,
                                 PlannerOptions base_options,
                                 const ThresholdGoal& goal,
                                 int max_budget) {
    require(max_budget >= 0, "solve_min_points: negative max budget");
    require(goal.min_detection > 0.0 || goal.estimated_coverage > 0.0,
            "solve_min_points: no goal enabled");

    if (goal.min_detection > 0.0) {
        base_options.objective.kind = Objective::Kind::ThresholdLinear;
        base_options.objective.threshold = goal.min_detection;
    }

    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    // One engine across the sweep: each budget's plan is checked by
    // pushing its points as a rolled-back delta stack (bit-identical to
    // evaluate_plan) instead of re-transforming the circuit per budget.
    // Constructed after the objective fixup above so thresholds match.
    EvalEngine engine(circuit, faults, base_options.objective,
                      base_options.sink);
    const auto evaluate = [&](std::span<const netlist::TestPoint> points) {
        for (const netlist::TestPoint& tp : points) engine.push(tp);
        PlanEvaluation eval = engine.evaluation();
        for (std::size_t i = 0; i < points.size(); ++i) engine.pop();
        return eval;
    };
    const auto meets = [&](const PlanEvaluation& eval) {
        if (goal.min_detection > 0.0 &&
            eval.min_detection_probability < goal.min_detection)
            return false;
        if (goal.estimated_coverage > 0.0 &&
            eval.estimated_coverage < goal.estimated_coverage)
            return false;
        return true;
    };

    ThresholdResult result;
    for (int budget = 0; budget <= max_budget; ++budget) {
        base_options.budget = budget;
        Plan plan = budget == 0 ? Plan{} : planner.plan(circuit, base_options);
        PlanEvaluation eval = evaluate(plan.points);
        if (meets(eval)) {
            result.plan = std::move(plan);
            result.feasible = true;
            result.budget_used = result.plan.total_cost(base_options.cost);
            result.evaluation = std::move(eval);
            return result;
        }
        // Keep the best-so-far for reporting when infeasible.
        if (budget == max_budget) {
            result.plan = std::move(plan);
            result.budget_used = result.plan.total_cost(base_options.cost);
            result.evaluation = std::move(eval);
        }
    }
    return result;
}

}  // namespace tpi
