// Differential suite for the lane-parallel candidate scorer
// (EvalEngine::score_block over testability::CopLaneSweep).
//
// The contract under test: every score the block path produces is
// *bit-identical* to the scalar engine (per-candidate delta-COP
// apply/score/rollback, EvalEngine::score_candidate) and to the
// evaluate_plan oracle — at every lane width {1, 2, 4, 8}, every thread
// count {1, 2, 8}, both objectives, and across commits. Lane width 2
// always runs the portable kernels (no vector stamp carries two lanes),
// so comparing widths doubles as a portable-vs-vector differential even
// on AVX hosts; a TPIDP_SIMD=OFF build runs the whole suite through the
// portable kernels (the release-portable CI leg).
//
// The planner tests assert the consequence: the planners reproduce the
// plans and predicted scores the scalar engine path recorded
// (tests/reference_plans.hpp).
//
// The suite rides in tpidp_parallel_tests so the CI thread-sanitizer
// job covers the block-parallel dispatch too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gen/benchmarks.hpp"
#include "gen/random_circuits.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "obs/obs.hpp"
#include "testability/cop_lanes.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "tpi/threshold.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "reference_plans.hpp"

namespace {

using namespace tpi;
using netlist::Circuit;
using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

constexpr TpKind kKinds[] = {TpKind::Observe, TpKind::ControlAnd,
                            TpKind::ControlOr, TpKind::ControlXor};
constexpr unsigned kLaneWidths[] = {1, 2, 4, 8};
constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// A deterministic mixed-kind candidate set (unique (node, kind) pairs).
std::vector<TestPoint> make_candidates(const Circuit& circuit,
                                       std::size_t count,
                                       std::uint64_t seed) {
    std::vector<TestPoint> candidates;
    std::vector<std::uint8_t> seen(circuit.node_count() * 4, 0);
    util::Rng rng(seed);
    while (candidates.size() < count) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        const std::size_t k = rng.below(4);
        if (seen[node.v * 4 + k] != 0) continue;
        seen[node.v * 4 + k] = 1;
        candidates.push_back({node, kKinds[k]});
    }
    return candidates;
}

/// Scores through the scalar engine path: the per-candidate
/// push/score/pop reference against the engine's current state.
std::vector<double> scalar_scores(EvalEngine& engine,
                                  std::span<const TestPoint> candidates) {
    std::vector<double> scores;
    for (const TestPoint& tp : candidates)
        scores.push_back(engine.score_candidate(tp));
    return scores;
}

std::vector<double> scalar_scores(const Circuit& circuit,
                                  const fault::CollapsedFaults& faults,
                                  const Objective& objective,
                                  std::span<const TestPoint> candidates) {
    EvalEngine engine(circuit, faults, objective);
    return scalar_scores(engine, candidates);
}

// ---------------------------------------------------------------------
// score_block vs scalar engine vs evaluate_plan

class SimdEvalDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SimdEvalDifferential, BlockMatchesScalarAndOracleEverywhere) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    const std::vector<TestPoint> candidates =
        make_candidates(circuit, 21, 5);

    const std::vector<double> scalar =
        scalar_scores(circuit, faults, objective, candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const std::vector<TestPoint> single{candidates[i]};
        const double oracle =
            evaluate_plan(circuit, faults, single, objective).score;
        ASSERT_EQ(oracle, scalar[i]) << "candidate " << i;
    }

    EvalEngine engine(circuit, faults, objective);
    for (unsigned lanes : kLaneWidths) {
        ASSERT_TRUE(testability::cop_lanes_supported(lanes));
        engine.set_eval_lanes(lanes);
        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(scalar, engine.score_block(candidates, threads));
        }
    }
}

TEST_P(SimdEvalDifferential, BothObjectivesMatchScalar) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const std::vector<TestPoint> candidates =
        make_candidates(circuit, 13, 23);

    Objective expected_detection;
    expected_detection.num_patterns = 4097;  // odd: every binexp branch
    Objective threshold_linear;
    threshold_linear.kind = Objective::Kind::ThresholdLinear;
    threshold_linear.threshold = 1.0 / 64.0;

    for (const Objective& objective :
         {expected_detection, threshold_linear}) {
        const std::vector<double> scalar =
            scalar_scores(circuit, faults, objective, candidates);
        EvalEngine engine(circuit, faults, objective);
        for (unsigned lanes : {2u, 8u}) {
            engine.set_eval_lanes(lanes);
            EXPECT_EQ(scalar, engine.score_block(candidates, 2))
                << "lanes=" << lanes;
        }
    }
}

TEST_P(SimdEvalDifferential, BlockMatchesScalarAcrossCommits) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;

    EvalEngine scalar(circuit, faults, objective);
    EvalEngine block(circuit, faults, objective);
    block.set_eval_lanes(8);

    util::Rng rng(59);
    std::vector<std::uint8_t> used(circuit.node_count() * 4, 0);
    for (int round = 0; round < 4; ++round) {
        // Candidates must not duplicate an already-committed point (the
        // same precondition the planners maintain for their shortlists).
        std::vector<TestPoint> candidates;
        for (const TestPoint& tp :
             make_candidates(circuit, 11, 67 + round)) {
            if (netlist::is_control(tp.kind) &&
                scalar.cop().control_kind(tp.node) >= 0)
                continue;
            if (!netlist::is_control(tp.kind) &&
                scalar.cop().observed(tp.node))
                continue;
            candidates.push_back(tp);
        }
        EXPECT_EQ(scalar_scores(scalar, candidates),
                  block.score_block(candidates, 2))
            << "round " << round;

        // Commit a fresh point into both engines; the block sweeps
        // borrow the committed state in place, so the next round must
        // see it without any resync step.
        for (;;) {
            const NodeId node{static_cast<std::uint32_t>(
                rng.below(circuit.node_count()))};
            const std::size_t k = rng.below(4);
            if (used[node.v * 4 + k] != 0) continue;
            used[node.v * 4 + k] = 1;
            const TestPoint tp{node, kKinds[k]};
            if (netlist::is_control(tp.kind) &&
                scalar.cop().control_kind(tp.node) >= 0)
                continue;
            if (!netlist::is_control(tp.kind) &&
                scalar.cop().observed(tp.node))
                continue;
            scalar.push(tp);
            scalar.commit();
            block.push(tp);
            block.commit();
            break;
        }
        ASSERT_EQ(scalar.score(), block.score());
    }
}

TEST_P(SimdEvalDifferential, DuplicatePointThrowsLikeScalar) {
    const Circuit circuit = gen::suite_entry(GetParam()).build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    const TestPoint committed{NodeId{2}, TpKind::ControlAnd};

    EvalEngine engine(circuit, faults, objective);
    engine.set_eval_lanes(4);
    engine.push(committed);
    engine.commit();

    // Any control kind on the committed net duplicates it (the
    // IncrementalCop::apply contract), through either path.
    const std::vector<TestPoint> bad = {{NodeId{2}, TpKind::ControlOr}};
    EXPECT_THROW(engine.score_block(bad, 1), Error);
    EvalEngine scalar(circuit, faults, objective);
    scalar.push(committed);
    scalar.commit();
    EXPECT_THROW(scalar.score_candidate(bad[0]), Error);
}

INSTANTIATE_TEST_SUITE_P(BundledBenches, SimdEvalDifferential,
                         ::testing::Values("c17", "cmp32", "chain24",
                                           "dag500"));

// ---------------------------------------------------------------------
// Counters

TEST(SimdEvalCounters, DeterministicAcrossThreads) {
    const Circuit circuit = gen::suite_entry("dag500").build();
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    const std::vector<TestPoint> candidates =
        make_candidates(circuit, 29, 83);

    auto run = [&](unsigned threads) {
        obs::Sink sink;
        EvalEngine engine(circuit, faults, objective, &sink);
        engine.set_eval_lanes(4);
        engine.score_block(candidates, threads);
        return std::vector<std::uint64_t>{
            sink.value(obs::Counter::ScoreBlocks),
            sink.value(obs::Counter::LanesActive),
            sink.value(obs::Counter::FrontierNodesShared),
            sink.value(obs::Counter::EngineNodesTouched)};
    };
    const std::vector<std::uint64_t> single = run(1);
    EXPECT_EQ(single[0], (candidates.size() + 3) / 4);  // ceil(n / K)
    EXPECT_EQ(single[1], candidates.size());
    for (unsigned threads : {2u, 8u})
        EXPECT_EQ(single, run(threads)) << "threads=" << threads;
}

// ---------------------------------------------------------------------
// Planner invariance: the lane-block planners reproduce the plans the
// scalar per-candidate engine recorded

class SimdEvalPlannerInvariance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SimdEvalPlannerInvariance, PlansIdenticalSimdOnOff) {
    for (const char* planner : {"dp", "greedy"}) {
        const testref::ReferencePlan* row = testref::find_reference_plan(
            "simd", planner, GetParam(), 4);
        ASSERT_NE(row, nullptr) << planner;
        const Circuit circuit = gen::suite_entry(GetParam()).build();
        const auto p = testref::make_planner(planner);
        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE(std::string(planner) +
                         " threads=" + std::to_string(threads));
            testref::expect_plan_matches(
                *row, circuit,
                p->plan(circuit, testref::reference_options(*row, threads)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BundledBenches, SimdEvalPlannerInvariance,
                         ::testing::Values("cmp32", "dag500"));

TEST(SimdEvalThreshold, SweepIdenticalSimdOnOff) {
    testref::expect_reference_sweep("simd");
}

// ---------------------------------------------------------------------
// Property test: random DAGs, block vs scalar, with a shrinking reducer
// (the test_simd_sim.cpp idiom)

bool block_agrees(const Circuit& circuit) {
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    const Objective objective;
    const std::vector<TestPoint> candidates = make_candidates(
        circuit, std::min<std::size_t>(18, circuit.node_count()), 101);
    const std::vector<double> scalar =
        scalar_scores(circuit, faults, objective, candidates);
    EvalEngine engine(circuit, faults, objective);
    for (unsigned lanes : {4u, 8u}) {
        engine.set_eval_lanes(lanes);
        for (unsigned threads : {1u, 2u})
            if (scalar != engine.score_block(candidates, threads))
                return false;
    }
    return true;
}

TEST(SimdEvalProperty, RandomDagsAgreeAtEveryWidthWithShrinking) {
    int checked = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (std::size_t gates : {std::size_t{40}, std::size_t{120},
                                  std::size_t{350}}) {
            ++checked;
            gen::RandomDagOptions options;
            options.gates = gates;
            options.inputs = 6 + seed % 20;
            options.seed = seed * 6151 + gates;
            const Circuit circuit = gen::random_dag(options);
            if (block_agrees(circuit)) continue;

            // Shrink: regenerate with ever fewer gates (same seed and
            // shape) while the disagreement persists, then report the
            // smallest failing instance as a bench netlist.
            gen::RandomDagOptions minimal = options;
            Circuit failing = circuit;
            while (minimal.gates > 2) {
                gen::RandomDagOptions candidate = minimal;
                candidate.gates = minimal.gates / 2;
                const Circuit c = gen::random_dag(candidate);
                if (block_agrees(c)) break;
                minimal = candidate;
                failing = c;
            }
            FAIL() << "score_block diverged from the scalar engine "
                      "(seed "
                   << options.seed << ", gates " << options.gates
                   << "); minimal failing instance (" << minimal.gates
                   << " gates):\n"
                   << netlist::write_bench_string(failing);
        }
    }
    EXPECT_EQ(checked, 36);
}

}  // namespace
