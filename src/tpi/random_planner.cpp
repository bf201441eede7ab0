#include "fault/fault.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/planners.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tpi {

using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

Plan RandomPlanner::plan(const netlist::Circuit& circuit,
                         const PlannerOptions& options) {
    validate_planner_options(options, "RandomPlanner");
    util::Rng rng(options.seed);

    std::vector<TpKind> kinds;
    if (options.allow_observe) kinds.push_back(TpKind::Observe);
    for (TpKind k : options.control_kinds) kinds.push_back(k);
    require(!kinds.empty(), "RandomPlanner: no test point kinds allowed");

    std::vector<TestPoint> points;
    std::vector<bool> has_point(circuit.node_count(), false);
    int remaining = options.budget;
    bool truncated = false;
    std::size_t attempts = 0;
    const std::size_t max_attempts = 64 * (circuit.node_count() + 1);
    while (remaining > 0 && attempts++ < max_attempts) {
        if (options.deadline != nullptr &&
            options.deadline->expired_now()) {
            truncated = true;
            break;
        }
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        if (has_point[node.v]) continue;
        const TpKind kind = kinds[rng.below(kinds.size())];
        const int cost = options.cost.cost(kind);
        if (cost > remaining) continue;
        points.push_back({node, kind});
        has_point[node.v] = true;
        remaining -= cost;
    }

    Plan result;
    result.points = std::move(points);
    result.truncated = truncated;
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    // Score the sampled plan through the engine (bit-identical to
    // evaluate_plan; avoids materialising the transformed netlist).
    EvalEngine engine(circuit, faults, options.objective, options.sink);
    for (const TestPoint& tp : result.points) {
        engine.push(tp);
        engine.commit();
    }
    result.predicted_score = engine.score();
    return result;
}

}  // namespace tpi
