#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/test_point.hpp"
#include "obs/obs.hpp"
#include "tpi/objective.hpp"
#include "util/deadline.hpp"

namespace tpi {

/// Integer cost of each test point kind, in budget units. The classic
/// accounting charges an observation point less than a control point
/// (a bare scan cell vs. gate + routing + test signal), but the default
/// here is uniform so budgets read as "number of test points".
struct CostModel {
    int observe = 1;
    int control = 1;

    int cost(netlist::TpKind kind) const {
        return netlist::is_control(kind) ? control : observe;
    }
};

/// Options shared by all planners.
struct PlannerOptions {
    /// Total budget in CostModel units.
    int budget = 8;
    CostModel cost;
    Objective objective;

    /// Which test point kinds the planner may use.
    bool allow_observe = true;
    std::vector<netlist::TpKind> control_kinds = {
        netlist::TpKind::ControlXor, netlist::TpKind::ControlAnd,
        netlist::TpKind::ControlOr};

    /// Dynamic-program parameters (see DESIGN.md §2).
    double dp_delta_bits = 0.25;   ///< log-cost quantisation grid
    int dp_max_cost_bucket = 120;  ///< saturation cap of the cost grid
    int dp_region_budget = 6;      ///< max points the DP considers per FFR
    int dp_rounds = 4;             ///< recompute/reallocate rounds
    int dp_joint_c1_grid = 9;      ///< controllability classes (joint DP)
    int dp_joint_max_region = 600; ///< joint DP fallback threshold

    /// Cross-round reuse of per-FFR DP tables in the DP planner's
    /// observe-only fast path (no control kinds). Observation points add no nodes, so the
    /// transformed numbering is identical in every round and a region's
    /// tables depend only on its member list, the COP on its members and
    /// their fanins, and the placement mask — all invariant for regions
    /// untouched by the points committed since the tables were built.
    /// Reused tables are bitwise identical to a rebuild, so plans and
    /// scores do not change (asserted by the differential suite); off
    /// restores the rebuild-every-round reference path.
    bool dp_reuse_regions = true;

    /// Greedy baseline: exact evaluations per step.
    int greedy_pool = 24;

    /// Observe-candidate ranking of the greedy planner. Off (default):
    /// the covering proxy — a per-fault propagation profile whose cost
    /// grows with faults times their above-threshold cone sizes. On:
    /// an O(nodes + edges) deficit-flow proxy — every hard fault's
    /// weighted benefit deficit is injected at its site and flowed down
    /// the best single-path sensitisation product in one topological
    /// sweep over the fanout CSR. Only the *ranking* that feeds the
    /// shortlist changes (survivors are still scored exactly), so plans
    /// may differ from the covering proxy; intended for 100k+-gate
    /// circuits where the per-fault profile is infeasible.
    bool greedy_flow_proxy = false;

    /// Pre-filter candidates with the lint engine: nets proven constant
    /// or unobservable (no sensitisable path to any primary output) are
    /// dropped before any DP table or shortlist is built, and the fault
    /// classes lint proves redundant are zero-weighted in the planner's
    /// internal universe. Exact whenever the unpruned optimum spends no
    /// budget on lint-condemned nets (see DESIGN.md §10); a measurable
    /// speedup on circuits with dead or tied-off logic. The reported
    /// predicted_score is always computed over the full fault universe,
    /// so pruned and unpruned plans are directly comparable.
    bool prune_via_lint = false;

    std::uint64_t seed = 1;

    /// Worker lanes for region-parallel DP planning: the independent
    /// per-FFR dynamic programs of a round are solved concurrently and
    /// their candidate tables consumed in region-index order, so plans
    /// are identical for every thread count. 1 (the default) is the
    /// exact single-threaded code path; 0 means hardware concurrency.
    /// Planners without internal parallelism ignore it.
    unsigned threads = 1;

    /// Optional cooperative resource budget (not owned). Planners check
    /// it at their natural work boundaries and, once it expires, stop
    /// and return their best-so-far plan with Plan::truncated set —
    /// they never run unbounded.
    util::Deadline* deadline = nullptr;

    /// Optional observability sink (not owned). Planners open tracing
    /// spans at phase boundaries (per-round, per-region DP build,
    /// knapsack merge) and record work counters into it; null (the
    /// default) disables all instrumentation at the cost of one branch
    /// per site. The deterministic counters (DpCellsFilled, PlanPoints,
    /// ...) total identically for every `threads` value.
    obs::Sink* sink = nullptr;
};

/// A set of selected test points plus the planner's own estimate of the
/// objective it achieves (COP-based; validate with fault simulation).
struct Plan {
    std::vector<netlist::TestPoint> points;
    double predicted_score = 0.0;

    /// Completeness status: true when the planner's deadline expired and
    /// `points` is a best-so-far result rather than the full search.
    bool truncated = false;

    /// Planner instrumentation (DP and greedy): candidate nets admitted
    /// in the first planning round, and candidates excluded from that
    /// set by PlannerOptions::prune_via_lint (0 when pruning is off).
    std::size_t candidates_considered = 0;
    std::size_t candidates_pruned = 0;

    int total_cost(const CostModel& cost) const {
        int sum = 0;
        for (const auto& tp : points) sum += cost.cost(tp.kind);
        return sum;
    }
};

/// Shared entry validation for every planner: throws ValidationError on
/// a malformed cost model (a zero or negative per-kind cost would divide
/// the greedy gain rate by zero and make budgets meaningless), and
/// tpi::Error on a negative budget. `planner` names the caller in the
/// message.
void validate_planner_options(const PlannerOptions& options,
                              std::string_view planner);

/// Abstract TPI planner. Implementations: DpPlanner (the paper),
/// GreedyPlanner, RandomPlanner, ExhaustivePlanner (oracle).
class Planner {
public:
    virtual ~Planner() = default;

    /// Select test points for `circuit` under `options`.
    virtual Plan plan(const netlist::Circuit& circuit,
                      const PlannerOptions& options) = 0;

    virtual std::string_view name() const = 0;
};

}  // namespace tpi
