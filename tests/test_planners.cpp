#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/arith.hpp"
#include "gen/benchmarks.hpp"
#include "gen/chains.hpp"
#include "gen/random_circuits.hpp"
#include "netlist/transform.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "tpi/threshold.hpp"

namespace {

using namespace tpi;
using namespace tpi::netlist;

PlannerOptions default_options(int budget, std::size_t patterns = 4096) {
    PlannerOptions options;
    options.budget = budget;
    options.objective.num_patterns = patterns;
    return options;
}

double score_of(const Circuit& circuit, const Plan& plan,
                const Objective& objective) {
    const auto faults = fault::singleton_faults(circuit);
    return evaluate_plan(circuit, faults, plan.points, objective).score;
}

TEST(DpPlanner, RespectsBudgetAndAvoidsDuplicates) {
    const Circuit circuit = gen::equality_comparator(16);
    DpPlanner planner;
    const PlannerOptions options = default_options(5);
    const Plan plan = planner.plan(circuit, options);
    EXPECT_LE(plan.total_cost(options.cost), 5);
    // At most one observation and one control point per net (an OP+CP
    // pair on one net is legitimate).
    for (std::size_t i = 0; i < plan.points.size(); ++i)
        for (std::size_t j = i + 1; j < plan.points.size(); ++j) {
            if (plan.points[i].node == plan.points[j].node) {
                EXPECT_NE(is_control(plan.points[i].kind),
                          is_control(plan.points[j].kind));
            }
        }
}

TEST(DpPlanner, IsDeterministic) {
    const Circuit circuit = gen::and_or_chain(24, 6);
    DpPlanner planner;
    const PlannerOptions options = default_options(4);
    const Plan a = planner.plan(circuit, options);
    const Plan b = planner.plan(circuit, options);
    EXPECT_EQ(a.points, b.points);
}

TEST(DpPlanner, ImprovesPredictedScore) {
    for (const char* name : {"cmp32", "chain24", "aochain32"}) {
        const Circuit circuit = gen::suite_entry(name).build();
        DpPlanner planner;
        const PlannerOptions options = default_options(6);
        const Plan plan = planner.plan(circuit, options);
        const double base = score_of(circuit, Plan{}, options.objective);
        EXPECT_GT(plan.predicted_score, base) << name;
    }
}

TEST(DpPlanner, ZeroBudgetYieldsEmptyPlan) {
    const Circuit circuit = gen::and_chain(10);
    DpPlanner planner;
    const Plan plan = planner.plan(circuit, default_options(0));
    EXPECT_TRUE(plan.points.empty());
}

TEST(DpPlanner, StopsWhenNothingToGain) {
    // A parity tree is already perfectly testable: the planner must not
    // waste its budget.
    const Circuit circuit = gen::parity_tree(32);
    DpPlanner planner;
    const Plan plan = planner.plan(circuit, default_options(8));
    EXPECT_TRUE(plan.points.empty());
}

TEST(DpPlanner, ObservationOnlyModeUsesOnlyObservePoints) {
    const Circuit circuit = gen::equality_comparator(16);
    DpPlanner planner;
    PlannerOptions options = default_options(4);
    options.control_kinds.clear();
    const Plan plan = planner.plan(circuit, options);
    for (const TestPoint& tp : plan.points)
        EXPECT_EQ(tp.kind, TpKind::Observe);
}

TEST(DpPlanner, ControlOnlyModeUsesOnlyControlPoints) {
    const Circuit circuit = gen::and_chain(20);
    DpPlanner planner;
    PlannerOptions options = default_options(4);
    options.allow_observe = false;
    const Plan plan = planner.plan(circuit, options);
    EXPECT_FALSE(plan.points.empty());
    for (const TestPoint& tp : plan.points)
        EXPECT_TRUE(is_control(tp.kind));
}

TEST(GreedyPlanner, RespectsBudgetAndImproves) {
    const Circuit circuit = gen::equality_comparator(16);
    GreedyPlanner planner;
    const PlannerOptions options = default_options(4);
    const Plan plan = planner.plan(circuit, options);
    EXPECT_LE(plan.total_cost(options.cost), 4);
    EXPECT_GT(plan.predicted_score,
              score_of(circuit, Plan{}, options.objective));
}

TEST(GreedyPlanner, StopsWhenNoGain) {
    const Circuit circuit = gen::parity_tree(16);
    GreedyPlanner planner;
    const Plan plan = planner.plan(circuit, default_options(6));
    EXPECT_TRUE(plan.points.empty());
}

// The deficit-flow proxy (PlannerOptions::greedy_flow_proxy) replaces
// the per-fault covering profile with an O(nodes + edges) ranking; the
// shortlist survivors are still scored exactly, so the plan must stay
// a real improvement, within budget and deterministic.
TEST(GreedyPlanner, FlowProxyImprovesAndIsDeterministic) {
    for (const char* name : {"cmp32", "dag500"}) {
        const Circuit circuit = gen::suite_entry(name).build();
        GreedyPlanner planner;
        PlannerOptions options = default_options(4, 1024);
        options.greedy_flow_proxy = true;
        const Plan plan = planner.plan(circuit, options);
        EXPECT_LE(plan.total_cost(options.cost), 4);
        EXPECT_GT(plan.predicted_score,
                  score_of(circuit, Plan{}, options.objective))
            << name;
        const Plan again = planner.plan(circuit, options);
        EXPECT_EQ(plan.points, again.points);
        EXPECT_EQ(plan.predicted_score, again.predicted_score);
        // The exact scorer is shared with the covering-proxy path, so
        // the reported score must match an independent re-evaluation.
        EXPECT_EQ(plan.predicted_score,
                  score_of(circuit, plan, options.objective));
    }
}

TEST(RandomPlanner, FillsBudgetDeterministicallyPerSeed) {
    const Circuit circuit = gen::equality_comparator(16);
    RandomPlanner planner;
    PlannerOptions options = default_options(5);
    options.seed = 42;
    const Plan a = planner.plan(circuit, options);
    const Plan b = planner.plan(circuit, options);
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.total_cost(options.cost), 5);
    options.seed = 43;
    const Plan c = planner.plan(circuit, options);
    EXPECT_NE(a.points, c.points);
}

TEST(ExhaustivePlanner, FindsKnownOptimumOnTinyCircuit) {
    // g = AND(a, b); h = AND(g, d): observing g is never better than
    // a control/observe mix the oracle can also reach; just check the
    // oracle beats or ties every single-point plan it enumerates.
    Circuit circuit;
    const NodeId a = circuit.add_input("a");
    const NodeId b = circuit.add_input("b");
    const NodeId d = circuit.add_input("d");
    const NodeId g = circuit.add_gate(GateType::And, {a, b}, "g");
    const NodeId h = circuit.add_gate(GateType::And, {g, d}, "h");
    circuit.mark_output(h);

    ExhaustivePlanner oracle;
    PlannerOptions options = default_options(1, 64);
    const Plan best = oracle.plan(circuit, options);
    const auto faults = fault::singleton_faults(circuit);
    for (NodeId v : circuit.all_nodes()) {
        for (TpKind kind : {TpKind::Observe, TpKind::ControlXor,
                            TpKind::ControlAnd, TpKind::ControlOr}) {
            const std::vector<TestPoint> single{{v, kind}};
            const double s =
                evaluate_plan(circuit, faults, single, options.objective)
                    .score;
            EXPECT_LE(s, best.predicted_score + 1e-9);
        }
    }
}

TEST(ExhaustivePlanner, RefusesOversizedInstances) {
    const Circuit circuit = gen::equality_comparator(32);
    ExhaustivePlanner oracle;
    EXPECT_THROW(oracle.plan(circuit, default_options(2)), tpi::Error);
}

class PlannerComparison : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerComparison, DpAtLeastMatchesRandomAndIsCompetitiveWithGreedy) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const PlannerOptions options = default_options(6);

    DpPlanner dp;
    GreedyPlanner greedy;
    RandomPlanner random;
    const double dp_score =
        score_of(circuit, dp.plan(circuit, options), options.objective);
    const double greedy_score =
        score_of(circuit, greedy.plan(circuit, options), options.objective);
    const double random_score =
        score_of(circuit, random.plan(circuit, options), options.objective);

    EXPECT_GE(dp_score, random_score - 1e-6) << "DP lost to random";
    // DP should be at least in greedy's ballpark (greedy does full exact
    // re-evaluation per step, so parity is already meaningful).
    EXPECT_GE(dp_score, 0.85 * greedy_score) << "DP far behind greedy";
}

INSTANTIATE_TEST_SUITE_P(Suite, PlannerComparison,
                         ::testing::Values("cmp32", "chain24", "aochain32",
                                           "lanes8x12"));

TEST(PlannersEndToEnd, DpImprovesRealFaultCoverage) {
    for (const char* name : {"cmp32", "chain24"}) {
        const Circuit circuit = gen::suite_entry(name).build();
        DpPlanner planner;
        PlannerOptions options = default_options(8, 8192);
        const Plan plan = planner.plan(circuit, options);
        const auto before = fault::random_pattern_coverage(circuit, 8192, 3);
        const auto dft = apply_test_points(circuit, plan.points);
        const auto after =
            fault::random_pattern_coverage(dft.circuit, 8192, 3);
        EXPECT_GT(after.coverage, before.coverage + 0.2) << name;
    }
}

TEST(DpPlanner, WideGatesFallBackGracefully) {
    // A region with >2 in-region fanins per gate cannot run the joint DP;
    // the planner must fall back to the observation DP rather than fail.
    Circuit circuit;
    std::vector<NodeId> mids;
    for (int i = 0; i < 3; ++i) {
        const NodeId x = circuit.add_input("x" + std::to_string(i));
        const NodeId y = circuit.add_input("y" + std::to_string(i));
        mids.push_back(circuit.add_gate(GateType::And, {x, y},
                                        "m" + std::to_string(i)));
    }
    const NodeId g = circuit.add_gate(GateType::And, mids, "g");
    circuit.mark_output(g);

    DpPlanner planner;
    const PlannerOptions options = default_options(3, 256);
    const Plan plan = planner.plan(circuit, options);
    EXPECT_FALSE(plan.points.empty());
    EXPECT_GT(plan.predicted_score,
              score_of(circuit, Plan{}, options.objective));
}

TEST(DpPlanner, BinarisedWideCircuitEnablesControlPoints) {
    // After netlist::binarize the same circuit satisfies the joint DP's
    // structural requirement, so control points become available and the
    // plan must be at least as good.
    Circuit circuit;
    std::vector<NodeId> mids;
    for (int i = 0; i < 4; ++i) {
        NodeId acc = circuit.add_input("x" + std::to_string(i) + "_0");
        for (int d = 1; d <= 6; ++d) {
            const NodeId x = circuit.add_input(
                "x" + std::to_string(i) + "_" + std::to_string(d));
            acc = circuit.add_gate(GateType::And, {acc, x});
        }
        mids.push_back(acc);
    }
    const NodeId g = circuit.add_gate(GateType::And, mids, "g");
    circuit.mark_output(g);

    const BinarizeResult bin = binarize(circuit);
    DpPlanner planner;
    const PlannerOptions options = default_options(4, 2048);
    const Plan wide_plan = planner.plan(circuit, options);
    const Plan bin_plan = planner.plan(bin.circuit, options);
    const double wide_score =
        score_of(circuit, wide_plan, options.objective);
    const auto bin_faults = fault::singleton_faults(bin.circuit);
    const double bin_score =
        evaluate_plan(bin.circuit, bin_faults, bin_plan.points,
                      options.objective)
            .score;
    // Scores live on slightly different universes (binarisation adds
    // nets); compare normalised coverage-like ratios.
    const double wide_norm =
        wide_score / fault::singleton_faults(circuit).total_faults;
    const double bin_norm =
        bin_score / static_cast<double>(bin_faults.total_faults);
    EXPECT_GE(bin_norm, wide_norm - 0.05);
}

// ------------------------------------------------------------ TPI-MIN ----

TEST(ThresholdSolver, FindsMinimalBudgetOnComparator) {
    const Circuit circuit = gen::equality_comparator(16);
    DpPlanner planner;
    PlannerOptions options = default_options(0, 8192);
    ThresholdGoal goal;
    goal.estimated_coverage = 0.995;
    const ThresholdResult result =
        solve_min_points(circuit, planner, options, goal, 10);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.budget_used, 0);
    EXPECT_GE(result.evaluation.estimated_coverage, 0.995);

    // One budget less must NOT reach the goal (minimality).
    if (result.budget_used > 1) {
        options.budget = result.budget_used - 1;
        const Plan smaller = planner.plan(circuit, options);
        const auto faults = fault::collapse_faults(circuit);
        const auto eval = evaluate_plan(circuit, faults, smaller.points,
                                        options.objective);
        EXPECT_LT(eval.estimated_coverage, 0.995);
    }
}

TEST(ThresholdSolver, ReportsInfeasibleWhenGoalOutOfReach) {
    const Circuit circuit = gen::and_chain(40);
    DpPlanner planner;
    ThresholdGoal goal;
    goal.min_detection = 0.4;  // unreachable with a single point
    const ThresholdResult result = solve_min_points(
        circuit, planner, default_options(0, 1024), goal, 1);
    EXPECT_FALSE(result.feasible);
}

TEST(ThresholdSolver, RejectsEmptyGoal) {
    const Circuit circuit = gen::and_chain(5);
    DpPlanner planner;
    EXPECT_THROW(solve_min_points(circuit, planner, default_options(0),
                                  ThresholdGoal{}, 4),
                 tpi::Error);
}

// The cross-round region cache (PlannerOptions::dp_reuse_regions) must
// be a pure speedup: plans and predicted scores bitwise identical with
// the cache on and off, for every thread count, and the cache must
// actually serve tables on a multi-round run (otherwise this test would
// pass vacuously while the fast path never triggers).
TEST(DpPlanner, RegionReuseIsBitIdentical) {
    gen::RandomDagOptions gopt;
    gopt.gates = 600;
    gopt.inputs = 48;
    gopt.seed = 7;
    const std::vector<Circuit> circuits = {
        gen::random_dag(gopt), gen::suite_entry("cmp32").build()};

    for (const Circuit& circuit : circuits) {
        PlannerOptions base = default_options(8, 1024);
        base.control_kinds.clear();  // observe-only: the fast path
        base.dp_rounds = 4;

        PlannerOptions off = base;
        off.dp_reuse_regions = false;
        DpPlanner planner;
        const Plan reference = planner.plan(circuit, off);

        std::uint64_t reused_total = 0;
        for (const unsigned threads : {1u, 2u, 8u}) {
            PlannerOptions on = base;
            on.threads = threads;
            obs::Sink sink;
            on.sink = &sink;
            const Plan cached = planner.plan(circuit, on);
            EXPECT_EQ(cached.points, reference.points);
            EXPECT_EQ(cached.predicted_score, reference.predicted_score);
            reused_total +=
                sink.value(obs::Counter::DpRegionsReused);
        }
        EXPECT_GT(reused_total, 0u);
    }
}

// With a control-point mix (joint DP), the planner must quietly fall
// back to the rebuild path — same plans, nothing served from the cache.
TEST(DpPlanner, RegionReuseFallsBackOutsideFastPath) {
    const Circuit circuit = gen::suite_entry("cmp32").build();
    DpPlanner planner;

    PlannerOptions joint = default_options(6, 1024);  // control kinds on
    joint.dp_rounds = 3;
    obs::Sink sink_b;
    joint.sink = &sink_b;
    PlannerOptions joint_off = joint;
    joint_off.dp_reuse_regions = false;
    joint_off.sink = nullptr;
    EXPECT_EQ(planner.plan(circuit, joint).points,
              planner.plan(circuit, joint_off).points);
    EXPECT_EQ(sink_b.value(obs::Counter::DpRegionsReused), 0u);
}

}  // namespace
