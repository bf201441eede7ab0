// Differential suite for the incremental evaluation engine.
//
// The contract under test: every quantity the engine maintains — COP
// state, per-fault detection probabilities, the objective score, full
// plan evaluations, and the exported CopResult — is *bit-identical* to
// the oracle that materialises the plan with apply_test_points and
// recomputes COP from scratch. The planner tests then assert the
// consequence: every planner reproduces the plans the from-scratch
// reference path recorded (tests/reference_plans.hpp), at every thread
// count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gen/benchmarks.hpp"
#include "gen/random_circuits.hpp"
#include "netlist/transform.hpp"
#include "obs/obs.hpp"
#include "testability/cop.hpp"
#include "testability/incremental_cop.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "reference_plans.hpp"

namespace {

using namespace tpi;
using netlist::Circuit;
using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

void expect_identical_eval(const PlanEvaluation& oracle,
                           const PlanEvaluation& engine) {
    ASSERT_EQ(oracle.detection_probability.size(),
              engine.detection_probability.size());
    EXPECT_EQ(oracle.detection_probability, engine.detection_probability);
    EXPECT_EQ(oracle.score, engine.score);
    EXPECT_EQ(oracle.estimated_coverage, engine.estimated_coverage);
    EXPECT_EQ(oracle.min_detection_probability,
              engine.min_detection_probability);
}

/// The candidate kinds cycled through by the stress drivers.
constexpr TpKind kKinds[] = {TpKind::Observe, TpKind::ControlAnd,
                            TpKind::ControlOr, TpKind::ControlXor};

// ---------------------------------------------------------------------
// IncrementalCop vs compute_cop(apply_test_points(...))

class IncrementalCopDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(IncrementalCopDifferential, AppliedPointsMatchFromScratchCop) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    testability::IncrementalCop inc(circuit);

    // Spread every kind across the circuit, committing as we go; after
    // each commit the maintained state must equal the from-scratch COP
    // of the materialised transform at every original site.
    std::vector<TestPoint> points;
    util::Rng rng(7);
    std::vector<bool> has_control(circuit.node_count(), false);
    std::vector<bool> has_observe(circuit.node_count(), false);
    for (int step = 0; step < 12; ++step) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        const TpKind kind = kKinds[rng.below(4)];
        auto& present =
            netlist::is_control(kind) ? has_control : has_observe;
        if (present[node.v]) continue;
        present[node.v] = true;

        points.push_back({node, kind});
        inc.apply(points.back());
        inc.commit();

        const netlist::TransformResult dft =
            netlist::apply_test_points(circuit, points);
        const testability::CopResult cop =
            testability::compute_cop(dft.circuit);
        for (NodeId v : circuit.all_nodes()) {
            const NodeId site = dft.node_map[v.v];
            ASSERT_EQ(cop.c1[site.v], inc.c1(v))
                << "c1 mismatch at node " << v.v << " step " << step;
            ASSERT_EQ(cop.obs[site.v], inc.site_obs(v))
                << "obs mismatch at node " << v.v << " step " << step;
        }
    }
}

TEST_P(IncrementalCopDifferential, RollbackRestoresStateBitwise) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    testability::IncrementalCop inc(circuit);
    const std::vector<double> c1_before = [&] {
        std::vector<double> out;
        for (NodeId v : circuit.all_nodes()) out.push_back(inc.c1(v));
        return out;
    }();
    const std::vector<double> obs_before = [&] {
        std::vector<double> out;
        for (NodeId v : circuit.all_nodes()) out.push_back(inc.site_obs(v));
        return out;
    }();

    util::Rng rng(23);
    for (int trial = 0; trial < 8; ++trial) {
        // Push a small random stack, then unwind it completely.
        std::vector<bool> has_control(circuit.node_count(), false);
        std::vector<bool> has_observe(circuit.node_count(), false);
        std::size_t pushed = 0;
        for (int step = 0; step < 5; ++step) {
            const NodeId node{static_cast<std::uint32_t>(
                rng.below(circuit.node_count()))};
            const TpKind kind = kKinds[rng.below(4)];
            auto& present =
                netlist::is_control(kind) ? has_control : has_observe;
            if (present[node.v]) continue;
            present[node.v] = true;
            inc.apply({node, kind});
            ++pushed;
        }
        while (pushed-- > 0) inc.rollback();
        ASSERT_EQ(inc.depth(), 0u);
        std::size_t i = 0;
        for (NodeId v : circuit.all_nodes()) {
            ASSERT_EQ(c1_before[i], inc.c1(v)) << "trial " << trial;
            ASSERT_EQ(obs_before[i], inc.site_obs(v)) << "trial " << trial;
            ++i;
        }
    }
}

TEST_P(IncrementalCopDifferential, ExportCopMatchesFromScratch) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    testability::IncrementalCop inc(circuit);
    std::vector<TestPoint> points;
    util::Rng rng(41);
    std::vector<bool> has_control(circuit.node_count(), false);
    std::vector<bool> has_observe(circuit.node_count(), false);
    for (int step = 0; step < 6; ++step) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        const TpKind kind = kKinds[rng.below(4)];
        auto& present =
            netlist::is_control(kind) ? has_control : has_observe;
        if (present[node.v]) continue;
        present[node.v] = true;
        points.push_back({node, kind});
        inc.apply(points.back());
        inc.commit();
    }

    const netlist::TransformResult dft =
        netlist::apply_test_points(circuit, points);
    const testability::CopResult reference =
        testability::compute_cop(dft.circuit);
    const testability::CopResult exported = inc.export_cop(dft);
    // Whole-vector bitwise equality: original nets, override gates, and
    // the fresh test-signal inputs alike.
    EXPECT_EQ(reference.c1, exported.c1);
    EXPECT_EQ(reference.obs, exported.obs);
}

INSTANTIATE_TEST_SUITE_P(BundledBenches, IncrementalCopDifferential,
                         ::testing::Values("c17", "cmp32", "chain24",
                                           "dag500"));

// ---------------------------------------------------------------------
// EvalEngine vs evaluate_plan

class EvalEngineDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(EvalEngineDifferential, InterleavedStackMatchesOracle) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    EvalEngine engine(circuit, faults, objective);

    // Random interleaving of push / pop / commit. The oracle plan is the
    // committed points followed by the open stack, in order; after every
    // operation the engine's full evaluation must equal evaluate_plan on
    // that plan bit-for-bit.
    std::vector<TestPoint> committed;
    std::vector<TestPoint> open;
    std::vector<bool> has_control(circuit.node_count(), false);
    std::vector<bool> has_observe(circuit.node_count(), false);
    util::Rng rng(3);
    for (int step = 0; step < 40; ++step) {
        const std::size_t op = rng.below(4);
        if (op == 0 && !open.empty()) {
            const TestPoint tp = open.back();
            open.pop_back();
            engine.pop();
            (netlist::is_control(tp.kind) ? has_control
                                          : has_observe)[tp.node.v] = false;
        } else if (op == 1 && open.size() == 1) {
            committed.push_back(open.back());
            open.pop_back();
            engine.commit();
        } else {
            const NodeId node{static_cast<std::uint32_t>(
                rng.below(circuit.node_count()))};
            const TpKind kind = kKinds[rng.below(4)];
            auto& present =
                netlist::is_control(kind) ? has_control : has_observe;
            if (present[node.v]) continue;
            present[node.v] = true;
            open.push_back({node, kind});
            engine.push(open.back());
        }

        std::vector<TestPoint> plan = committed;
        plan.insert(plan.end(), open.begin(), open.end());
        const PlanEvaluation oracle =
            evaluate_plan(circuit, faults, plan, objective);
        const PlanEvaluation incremental = engine.evaluation();
        ASSERT_EQ(oracle.score, incremental.score) << "step " << step;
        expect_identical_eval(oracle, incremental);
    }
}

TEST_P(EvalEngineDifferential, ScoreCandidateMatchesOracleAndRestores) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    EvalEngine engine(circuit, faults, objective);

    const double base = engine.score();
    util::Rng rng(11);
    for (int trial = 0; trial < 16; ++trial) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        const TpKind kind = kKinds[rng.below(4)];
        const TestPoint tp{node, kind};
        const double expected =
            evaluate_plan(circuit, faults, {{tp}}, objective).score;
        EXPECT_EQ(expected, engine.score_candidate(tp));
        // score_candidate is push + score + pop: the base state must be
        // restored exactly.
        EXPECT_EQ(base, engine.score());
    }
}

TEST_P(EvalEngineDifferential, BatchScoresAreLaneIndependent) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    EvalEngine engine(circuit, faults, objective);

    std::vector<TestPoint> candidates;
    util::Rng rng(17);
    for (int i = 0; i < 24; ++i) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        candidates.push_back({node, kKinds[rng.below(4)]});
    }
    const std::vector<double> serial =
        engine.score_block(candidates, 1);
    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(serial, engine.score_block(candidates, threads));
    }
    // And against the oracle.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double expected =
            evaluate_plan(circuit, faults, {{candidates[i]}}, objective)
                .score;
        EXPECT_EQ(expected, serial[i]) << "candidate " << i;
    }
}

TEST_P(EvalEngineDifferential, BatchAfterCommitsResyncsLanes) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    EvalEngine engine(circuit, faults, objective);

    std::vector<TestPoint> candidates;
    util::Rng rng(29);
    for (int i = 0; i < 12; ++i) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        candidates.push_back({node, kKinds[rng.below(4)]});
    }
    // Warm the per-worker block scratch on the empty base, then commit
    // a point and re-batch: the sweeps borrow the committed state in
    // place, so the next batch must see the commit.
    (void)engine.score_block(candidates, 8);
    std::vector<TestPoint> committed;
    for (const TestPoint& tp : candidates) {
        if (netlist::is_control(tp.kind)) continue;
        committed.push_back(tp);
        engine.push(tp);
        engine.commit();
        break;
    }
    ASSERT_EQ(committed.size(), 1u) << "no observe candidate drawn";
    // Drop candidates that would duplicate the committed placement (the
    // transform contract rejects those on both paths).
    std::vector<TestPoint> remaining;
    for (const TestPoint& tp : candidates) {
        if (tp.node == committed[0].node &&
            netlist::is_control(tp.kind) ==
                netlist::is_control(committed[0].kind))
            continue;
        remaining.push_back(tp);
    }
    const std::vector<double> parallel =
        engine.score_block(remaining, 8);
    for (std::size_t i = 0; i < remaining.size(); ++i) {
        std::vector<TestPoint> plan = committed;
        plan.push_back(remaining[i]);
        const double expected =
            evaluate_plan(circuit, faults, plan, objective).score;
        EXPECT_EQ(expected, parallel[i]) << "candidate " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(BundledBenches, EvalEngineDifferential,
                         ::testing::Values("c17", "cmp32", "dag500"));

TEST(EvalEngineDifferential, ThresholdObjectiveAlsoBitIdentical) {
    const Circuit circuit = gen::suite_entry("cmp32").build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    Objective objective;
    objective.kind = Objective::Kind::ThresholdLinear;
    objective.threshold = 1.0 / 512.0;
    EvalEngine engine(circuit, faults, objective);
    util::Rng rng(5);
    for (int trial = 0; trial < 8; ++trial) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        const TestPoint tp{node, kKinds[rng.below(4)]};
        EXPECT_EQ(evaluate_plan(circuit, faults, {{tp}}, objective).score,
                  engine.score_candidate(tp));
    }
}

TEST(EvalEngineDifferential, EngineCountersAreRecorded) {
    const Circuit circuit = gen::suite_entry("c17").build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    obs::Sink sink;
    EvalEngine engine(circuit, faults, Objective{}, &sink);
    engine.score_candidate({NodeId{0}, TpKind::Observe});
    engine.push({NodeId{0}, TpKind::Observe});
    engine.commit();
    EXPECT_EQ(sink.value(obs::Counter::EngineEvaluations), 1u);
    EXPECT_EQ(sink.value(obs::Counter::EngineRollbacks), 1u);
    EXPECT_EQ(sink.value(obs::Counter::EngineCommits), 1u);
    EXPECT_GT(sink.value(obs::Counter::EngineNodesTouched), 0u);
}

// ---------------------------------------------------------------------
// Planners: the engine-only planners reproduce the plans the
// from-scratch evaluate_plan reference path recorded

TEST(PlannerEngineDifferential, GreedyIsInvariant) {
    testref::expect_reference_plans("engine", "greedy");
}

TEST(PlannerEngineDifferential, DpIsInvariant) {
    testref::expect_reference_plans("engine", "dp");
}

TEST(PlannerEngineDifferential, RandomIsInvariant) {
    testref::expect_reference_plans("engine", "random");
}

TEST(PlannerEngineDifferential, ExhaustiveIsInvariant) {
    testref::expect_reference_plans("engine", "exhaustive");
}

TEST(PlannerEngineDifferential, GreedyWithPruningIsInvariant) {
    testref::expect_reference_plans("engine-lint", "greedy");
}

TEST(PlannerEngineDifferential, ThresholdSweepIsInvariant) {
    testref::expect_reference_sweep("engine");
}

// ---------------------------------------------------------------------
// Cost-model validation at plan entry

TEST(PlannerOptionsValidation, ZeroObserveCostIsRejected) {
    const Circuit circuit = gen::suite_entry("c17").build();
    PlannerOptions options;
    options.cost.observe = 0;
    GreedyPlanner greedy;
    EXPECT_THROW(greedy.plan(circuit, options), ValidationError);
    DpPlanner dp;
    EXPECT_THROW(dp.plan(circuit, options), ValidationError);
    RandomPlanner random;
    EXPECT_THROW(random.plan(circuit, options), ValidationError);
    ExhaustivePlanner exhaustive;
    EXPECT_THROW(exhaustive.plan(circuit, options), ValidationError);
}

TEST(PlannerOptionsValidation, NegativeControlCostIsRejected) {
    const Circuit circuit = gen::suite_entry("c17").build();
    PlannerOptions options;
    options.cost.control = -3;
    GreedyPlanner greedy;
    EXPECT_THROW(greedy.plan(circuit, options), ValidationError);
    DpPlanner dp;
    EXPECT_THROW(dp.plan(circuit, options), ValidationError);
}

TEST(PlannerOptionsValidation, ErrorCodeMapsToValidationExit) {
    try {
        validate_planner_options(
            [] {
                PlannerOptions o;
                o.cost.control = 0;
                return o;
            }(),
            "Test");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Validation);
        EXPECT_NE(std::string(e.what()).find("cost model"),
                  std::string::npos);
    }
}

}  // namespace
