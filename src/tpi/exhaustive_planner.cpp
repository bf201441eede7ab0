#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/planners.hpp"
#include "util/error.hpp"

namespace tpi {

using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

namespace {

struct Search {
    const PlannerOptions& options;
    EvalEngine& engine;
    std::vector<TestPoint> atoms;  ///< candidate (net, kind) placements
    std::vector<TestPoint> current;
    std::vector<TestPoint> best_points;
    double best_score = 0.0;
    bool truncated = false;

    bool out_of_time() {
        if (options.deadline != nullptr && options.deadline->expired())
            truncated = true;
        return truncated;
    }

    void evaluate_current() {
        // The engine's ordered benefit sum is bit-identical to
        // evaluate_plan on the materialised `current`.
        obs::add(options.sink, obs::Counter::EngineEvaluations);
        const double score = engine.score();
        if (score > best_score + 1e-12) {
            best_score = score;
            best_points = current;
        }
    }

    void recurse(std::size_t start, int budget_left) {
        for (std::size_t i = start; i < atoms.size(); ++i) {
            if (out_of_time()) return;
            const TestPoint atom = atoms[i];
            const int cost = options.cost.cost(atom.kind);
            if (cost > budget_left) continue;
            // At most one control point per net (transform invariant);
            // observation atoms are unique per net by construction.
            bool conflict = false;
            for (const TestPoint& tp : current) {
                if (tp.node == atom.node &&
                    netlist::is_control(tp.kind) ==
                        netlist::is_control(atom.kind)) {
                    conflict = true;
                    break;
                }
            }
            if (conflict) continue;
            current.push_back(atom);
            engine.push(atom);
            evaluate_current();
            recurse(i + 1, budget_left - cost);
            current.pop_back();
            engine.pop();
        }
    }
};

}  // namespace

Plan ExhaustivePlanner::plan(const netlist::Circuit& circuit,
                             const PlannerOptions& options) {
    validate_planner_options(options, "ExhaustivePlanner");
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);

    std::vector<TestPoint> atoms;
    for (NodeId v : circuit.all_nodes()) {
        if (options.allow_observe) atoms.push_back({v, TpKind::Observe});
        for (TpKind kind : options.control_kinds) atoms.push_back({v, kind});
    }
    // Keep the oracle honest about its cost: the search space is
    // exponential in the budget; refuse plainly oversized instances.
    if (atoms.size() > 256)
        throw LimitError(
            "ExhaustivePlanner: instance too large for exhaustive search "
            "(" +
            std::to_string(atoms.size()) +
            " candidate placements, limit 256)");

    EvalEngine engine(circuit, faults, options.objective, options.sink);
    Search search{options, engine, std::move(atoms), {}, {},
                  engine.score(), false};
    search.recurse(0, options.budget);

    Plan result;
    result.points = std::move(search.best_points);
    result.truncated = search.truncated;
    result.predicted_score = search.best_score;
    return result;
}

}  // namespace tpi
