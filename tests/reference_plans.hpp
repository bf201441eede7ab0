// Recorded reference plans for the planners.
//
// Every planner scores its candidates with the incremental, lane-batched
// EvalEngine. The rows below were recorded on slower reference paths:
// the from-scratch `evaluate_plan` scorer (full transform + COP per
// candidate) and, for the "simd" suite, the scalar per-candidate engine.
// Each was run single-threaded with default PlannerOptions apart from
// the listed columns, and each row keeps the plan's points in order and
// its predicted_score as an exact hex double. The planners must
// reproduce every row bitwise at threads 1, 2 and 8, and every
// predicted_score must equal `evaluate_plan` on the returned points
// bitwise: `evaluate_plan` is the one oracle the tests compare against.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "gen/benchmarks.hpp"
#include "netlist/circuit.hpp"
#include "netlist/test_point.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "tpi/threshold.hpp"

namespace tpi::testref {

struct ReferencePlan {
    const char* suite;    ///< which test checks the row
    const char* planner;  ///< dp | greedy | random | exhaustive
    const char* circuit;  ///< built-in suite name
    int budget;
    std::uint64_t patterns;
    bool prune_lint;
    const char* points;  ///< "KIND@net ..." in plan order
    double predicted_score;
};

// Suites: "engine" and "engine-lint" (evaluate_plan reference; checked
// by PlannerEngineDifferential), "simd" (scalar engine reference;
// SimdEvalPlannerInvariance), "identity" (evaluate_plan reference;
// PlanIdentity).
inline constexpr ReferencePlan kReferencePlans[] = {
    {"engine", "greedy", "c17", 6, 2048, false,
     "",
     0x1.6p+4},
    {"engine", "greedy", "cmp32", 6, 2048, false,
     "OP@andt27 OP@andt26 OP@andt24 OP@andt25 CP-XOR@andt29 CP-XOR@andt28",
     0x1.f7eaad31d4417p+7},
    {"engine", "greedy", "dag500", 6, 2048, false,
     "OP@g348 OP@g139 CP-OR@g122 OP@g357 OP@g243 CP-XOR@g424",
     0x1.0dfff13085453p+10},
    {"engine", "dp", "cmp32", 6, 2048, false,
     "OP@andt26 OP@andt27 OP@andt24 OP@andt25 CP-XOR@andt28 CP-XOR@andt29",
     0x1.f7eaad31d4417p+7},
    {"engine", "dp", "aochain32", 6, 2048, false,
     "OP@c18 OP@c8 OP@c16 OP@c24 OP@c4 CP-XOR@c4",
     0x1.03f32a17e8323p+7},
    {"engine", "dp", "dag500", 6, 2048, false,
     "OP@g139 OP@g348 OP@g198 OP@g357 OP@g243 OP@g482",
     0x1.0df9c72e605d7p+10},
    {"engine", "random", "cmp32", 6, 2048, false,
     "CP-AND@a26 CP-OR@a10 CP-AND@a7 CP-XOR@a14 OP@eqb2 CP-AND@b5",
     0x1.c3fb1a459c5fep+2},
    {"engine", "exhaustive", "c17", 2, 2048, false,
     "",
     0x1.6p+4},
    {"engine-lint", "greedy", "cmp32", 4, 1024, true,
     "OP@andt27 OP@andt26 OP@andt24 OP@andt25",
     0x1.ea10da281fd07p+7},

    {"simd", "dp", "cmp32", 4, 64, false,
     "OP@andt23 OP@andt22 OP@andt21 OP@andt20",
     0x1.dd103189920c7p+6},
    {"simd", "greedy", "cmp32", 4, 64, false,
     "OP@andt16 OP@andt23 OP@andt22 OP@andt17",
     0x1.dd103189920c7p+6},
    {"simd", "dp", "dag500", 4, 64, false,
     "OP@g137 OP@g72 OP@g357 OP@g443",
     0x1.01d70adb6c9e6p+10},
    {"simd", "greedy", "dag500", 4, 64, false,
     "CP-XOR@g122 OP@g118 CP-XOR@g424 OP@g357",
     0x1.032b607d46977p+10},

    {"identity", "dp", "c17", 4, 1024, false, "", 0x1.6p+4},
    {"identity", "greedy", "c17", 4, 1024, false, "", 0x1.6p+4},
    {"identity", "dp", "chain24", 4, 1024, false,
     "OP@c8 CP-XOR@c16 OP@c19 CP-XOR@c11",
     0x1.43ac88d55eb3fp+6},
    {"identity", "greedy", "chain24", 4, 1024, false,
     "OP@c8 CP-XOR@c16 OP@c19 CP-XOR@c11",
     0x1.43ac88d55eb3fp+6},
    {"identity", "dp", "aochain32", 4, 1024, false,
     "OP@c16 OP@c24 OP@c7 OP@c8",
     0x1.ff307ebb1f174p+6},
    {"identity", "greedy", "aochain32", 4, 1024, false,
     "OP@c16 OP@c24 OP@c7 OP@c8",
     0x1.ff307ebb1f174p+6},
    {"identity", "dp", "cmp32", 4, 1024, false,
     "OP@andt27 OP@andt26 OP@andt25 OP@andt24",
     0x1.ea10da281fd07p+7},
    {"identity", "greedy", "cmp32", 4, 1024, false,
     "OP@andt27 OP@andt26 OP@andt24 OP@andt25",
     0x1.ea10da281fd07p+7},
    {"identity", "dp", "dag500", 3, 1024, false,
     "OP@g198 OP@g357 OP@g348",
     0x1.0d92379b1fd1cp+10},
    {"identity", "greedy", "dag500", 3, 1024, false,
     "CP-OR@g122 OP@g139 OP@g348",
     0x1.0dcb895d18e2cp+10},
};

/// A recorded TPI-MIN budget sweep (solve_min_points, budgets
/// 0..max_budget) and the result it accepted.
struct ReferenceSweep {
    const char* suite;
    const char* planner;
    const char* circuit;
    std::uint64_t patterns;
    double min_detection;
    double estimated_coverage;
    int max_budget;
    bool feasible;
    int budget_used;
    const char* points;
    double score;  ///< evaluation.score of the returned plan
};

inline constexpr ReferenceSweep kReferenceSweeps[] = {
    {"engine", "dp", "cmp32", 1024, 0x0p+0, 0x1.ccccccccccccdp-1, 6,
     true, 4, "OP@andt27 OP@andt26 OP@andt25 OP@andt24",
     0x1.ea10da281fd07p+7},
    {"simd", "greedy", "cmp32", 64, 0x1p-9, 0x0p+0, 6,
     false, 6,
     "OP@andt27 OP@andt26 OP@andt25 OP@andt24 OP@andt28 OP@andt29",
     0x1.f6080004p+7},
    {"identity", "dp", "cmp32", 1024, 0x1.999999999999ap-5, 0x0p+0, 4,
     false, 4, "OP@andt23 OP@andt22 OP@andt21 OP@andt20",
     0x1.e400a17c5p+6},
};

inline constexpr unsigned kReferenceThreads[] = {1, 2, 8};

inline std::unique_ptr<Planner> make_planner(std::string_view name) {
    if (name == "dp") return std::make_unique<DpPlanner>();
    if (name == "greedy") return std::make_unique<GreedyPlanner>();
    if (name == "random") return std::make_unique<RandomPlanner>();
    if (name == "exhaustive") return std::make_unique<ExhaustivePlanner>();
    ADD_FAILURE() << "unknown planner " << name;
    return nullptr;
}

/// Points in the table's "KIND@net ..." spelling.
inline std::string format_points(
    const netlist::Circuit& circuit,
    std::span<const netlist::TestPoint> points) {
    std::string out;
    for (const netlist::TestPoint& tp : points) {
        if (!out.empty()) out += ' ';
        out += netlist::tp_kind_name(tp.kind);
        out += '@';
        out += circuit.node_name(tp.node);
    }
    return out;
}

inline PlannerOptions reference_options(const ReferencePlan& row,
                                        unsigned threads) {
    PlannerOptions options;
    options.budget = row.budget;
    options.objective.num_patterns = row.patterns;
    options.prune_via_lint = row.prune_lint;
    options.threads = threads;
    return options;
}

/// `plan` must carry the row's points and score bitwise, and its score
/// must equal the evaluate_plan oracle on its own points bitwise.
inline void expect_plan_matches(const ReferencePlan& row,
                                const netlist::Circuit& circuit,
                                const Plan& plan) {
    EXPECT_EQ(format_points(circuit, plan.points), row.points);
    EXPECT_EQ(plan.predicted_score, row.predicted_score);
    EXPECT_FALSE(plan.truncated);
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    Objective objective;
    objective.num_patterns = row.patterns;
    EXPECT_EQ(plan.predicted_score,
              evaluate_plan(circuit, faults, plan.points, objective).score);
}

/// Plans every row of `suite` for `planner` at threads 1/2/8.
inline void expect_reference_plans(std::string_view suite,
                                   std::string_view planner) {
    int rows = 0;
    for (const ReferencePlan& row : kReferencePlans) {
        if (row.suite != suite || row.planner != planner) continue;
        ++rows;
        const netlist::Circuit circuit =
            gen::suite_entry(row.circuit).build();
        const auto p = make_planner(row.planner);
        ASSERT_NE(p, nullptr);
        for (unsigned threads : kReferenceThreads) {
            SCOPED_TRACE(std::string(row.planner) + " " + row.circuit +
                         " threads=" + std::to_string(threads));
            expect_plan_matches(row, circuit,
                                p->plan(circuit,
                                        reference_options(row, threads)));
        }
    }
    EXPECT_GT(rows, 0) << "no reference rows for " << suite << "/"
                       << planner;
}

/// The row of `suite` recorded for this configuration, or null.
inline const ReferencePlan* find_reference_plan(std::string_view suite,
                                                std::string_view planner,
                                                std::string_view circuit,
                                                int budget) {
    for (const ReferencePlan& row : kReferencePlans)
        if (row.suite == suite && row.planner == planner &&
            row.circuit == circuit && row.budget == budget)
            return &row;
    return nullptr;
}

/// Re-runs the recorded sweep of `suite` at threads 1/2/8.
inline void expect_reference_sweep(std::string_view suite) {
    int rows = 0;
    for (const ReferenceSweep& row : kReferenceSweeps) {
        if (row.suite != suite) continue;
        ++rows;
        const netlist::Circuit circuit =
            gen::suite_entry(row.circuit).build();
        const auto planner = make_planner(row.planner);
        ASSERT_NE(planner, nullptr);
        ThresholdGoal goal;
        goal.min_detection = row.min_detection;
        goal.estimated_coverage = row.estimated_coverage;
        for (unsigned threads : kReferenceThreads) {
            SCOPED_TRACE(std::string(row.planner) + " " + row.circuit +
                         " threads=" + std::to_string(threads));
            PlannerOptions options;
            options.objective.num_patterns = row.patterns;
            options.threads = threads;
            const ThresholdResult result = solve_min_points(
                circuit, *planner, options, goal, row.max_budget);
            EXPECT_EQ(result.feasible, row.feasible);
            EXPECT_EQ(result.budget_used, row.budget_used);
            EXPECT_EQ(format_points(circuit, result.plan.points),
                      row.points);
            EXPECT_EQ(result.evaluation.score, row.score);
            // The sweep scores against the objective it steers with.
            Objective objective = options.objective;
            if (goal.min_detection > 0.0) {
                objective.kind = Objective::Kind::ThresholdLinear;
                objective.threshold = goal.min_detection;
            }
            EXPECT_EQ(result.evaluation.score,
                      evaluate_plan(circuit,
                                    fault::singleton_faults(circuit),
                                    result.plan.points, objective)
                          .score);
        }
    }
    EXPECT_GT(rows, 0) << "no reference sweeps for " << suite;
}

}  // namespace tpi::testref
