// Tests for the static analysis engine (src/analysis): post-dominator
// tree, implication engine, failed-assumption constant learning,
// untestability probing, observability bounds, certificate replay, the
// PODEM differential, and the observe DP's zero-gain rule (plans pinned
// to the recorded reference rows).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/certificate.hpp"
#include "analysis/dominators.hpp"
#include "analysis/implications.hpp"
#include "analysis/prune.hpp"
#include "analysis/ternary.hpp"
#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "gen/benchmarks.hpp"
#include "gen/chains.hpp"
#include "gen/random_circuits.hpp"
#include "lint/lint.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "obs/obs.hpp"
#include "testability/cop.hpp"
#include "tpi/planners.hpp"
#include "tpi/threshold.hpp"
#include "util/error.hpp"

#include "reference_plans.hpp"

namespace {

using namespace tpi;
using namespace tpi::netlist;
using analysis::Certificate;
using analysis::CertKind;
using analysis::DominatorTree;
using analysis::Literal;
using analysis::Ternary;

Circuit load_data_circuit(const std::string& file) {
    return read_bench_file(std::string(TPIDP_TEST_DATA_DIR) + "/golden/" +
                           file);
}

// A glue gadget: AND(x, NOT x) is constant 0, invisible to plain ternary
// propagation (X AND X = X) but provable by assuming the output 1.
Circuit contradiction_circuit(NodeId* out_gate = nullptr) {
    Circuit c;
    const NodeId x = c.add_input("x");
    const NodeId y = c.add_input("y");
    const NodeId nx = c.add_gate(GateType::Not, {x}, "nx");
    const NodeId g = c.add_gate(GateType::And, {x, nx}, "g");
    const NodeId z = c.add_gate(GateType::Or, {g, y}, "z");
    c.mark_output(z);
    if (out_gate) *out_gate = g;
    return c;
}

// ---------------------------------------------------------------------
// Post-dominator tree
// ---------------------------------------------------------------------

TEST(PostDominators, LinearChain) {
    Circuit c;
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId g1 = c.add_gate(GateType::And, {a, b}, "g1");
    const NodeId g2 = c.add_gate(GateType::Not, {g1}, "g2");
    c.mark_output(g2);
    const DominatorTree tree = analysis::compute_post_dominators(c);
    EXPECT_EQ(tree.idom[a.v], g1.v);
    EXPECT_EQ(tree.idom[b.v], g1.v);
    EXPECT_EQ(tree.idom[g1.v], g2.v);
    EXPECT_EQ(tree.idom[g2.v], DominatorTree::kSink);
    EXPECT_TRUE(tree.dominates(g2, a));
    EXPECT_TRUE(tree.dominates(g1, g1));  // reflexive
    EXPECT_FALSE(tree.dominates(a, g1));
    const std::vector<NodeId> chain = tree.chain(a);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], g1);
    EXPECT_EQ(chain[1], g2);
}

TEST(PostDominators, ReconvergenceMeetsAtMergeGate) {
    Circuit c;
    const NodeId s = c.add_input("s");
    const NodeId n1 = c.add_gate(GateType::Not, {s}, "n1");
    const NodeId n2 = c.add_gate(GateType::Buf, {s}, "n2");
    const NodeId r = c.add_gate(GateType::And, {n1, n2}, "r");
    c.mark_output(r);
    const DominatorTree tree = analysis::compute_post_dominators(c);
    // Both branches reconverge at r: the stem's immediate post-dominator
    // skips past the branches straight to the merge gate.
    EXPECT_EQ(tree.idom[s.v], r.v);
    EXPECT_EQ(tree.idom[n1.v], r.v);
    EXPECT_EQ(tree.idom[n2.v], r.v);
}

TEST(PostDominators, StemFeedingTwoOutputsHasOnlySinkDominator) {
    Circuit c;
    const NodeId s = c.add_input("s");
    const NodeId o1 = c.add_gate(GateType::Not, {s}, "o1");
    const NodeId o2 = c.add_gate(GateType::Buf, {s}, "o2");
    c.mark_output(o1);
    c.mark_output(o2);
    const DominatorTree tree = analysis::compute_post_dominators(c);
    EXPECT_EQ(tree.idom[s.v], DominatorTree::kSink);
    EXPECT_TRUE(tree.chain(s).empty());
}

TEST(PostDominators, DeadLogicIsUnreachable) {
    Circuit c;
    const NodeId a = c.add_input("a");
    const NodeId live = c.add_gate(GateType::Not, {a}, "live");
    const NodeId dead = c.add_gate(GateType::Buf, {a}, "dead");
    c.mark_output(live);
    const DominatorTree tree = analysis::compute_post_dominators(c);
    EXPECT_EQ(tree.idom[dead.v], DominatorTree::kUnreachable);
    EXPECT_FALSE(tree.reachable(dead));
    EXPECT_TRUE(tree.reachable(a));
    EXPECT_FALSE(tree.dominates(live, dead));
    EXPECT_TRUE(tree.chain(dead).empty());
}

// Brute force: d post-dominates v iff removing d cuts every path from v
// to every primary output.
bool reaches_output_avoiding(const Circuit& c, NodeId v, NodeId avoid) {
    if (v == avoid) return false;
    std::vector<bool> seen(c.node_count(), false);
    std::vector<NodeId> stack{v};
    seen[v.v] = true;
    while (!stack.empty()) {
        const NodeId cur = stack.back();
        stack.pop_back();
        if (c.is_output(cur)) return true;
        for (const NodeId next : c.fanouts(cur)) {
            if (next == avoid || seen[next.v]) continue;
            seen[next.v] = true;
            stack.push_back(next);
        }
    }
    return false;
}

TEST(PostDominators, AgreesWithBruteForceOnRandomDags) {
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        gen::RandomDagOptions options;
        options.gates = 120;
        options.inputs = 12;
        options.seed = seed;
        const Circuit c = gen::random_dag(options);
        const DominatorTree tree = analysis::compute_post_dominators(c);
        for (const NodeId v : c.all_nodes()) {
            const bool live = reaches_output_avoiding(c, v, kNullNode);
            ASSERT_EQ(tree.reachable(v), live)
                << "seed " << seed << " node " << v.v;
            if (!live) continue;
            for (const NodeId d : c.all_nodes()) {
                if (d == v) continue;
                const bool brute = !reaches_output_avoiding(c, v, d);
                ASSERT_EQ(tree.dominates(d, v), brute)
                    << "seed " << seed << " dom " << d.v << " of " << v.v;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Implication engine
// ---------------------------------------------------------------------

TEST(Implications, AndDrivingOneForcesEveryFanin) {
    Circuit c;
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId g = c.add_gate(GateType::And, {a, b}, "g");
    c.mark_output(g);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const Literal assume{g, true};
    const analysis::ImplicationResult r = engine.propagate({&assume, 1});
    EXPECT_FALSE(r.conflict);
    const std::vector<Literal> expected{{a, true}, {b, true}};
    for (const Literal& lit : expected)
        EXPECT_NE(std::find(r.implied.begin(), r.implied.end(), lit),
                  r.implied.end());
}

TEST(Implications, LastOpenFaninIsForcedByOutputZero) {
    // g = OR(a, b) driving 0 forces both; NAND with one sibling known
    // exercises the "last open fanin" rule.
    Circuit c;
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId g = c.add_gate(GateType::Nand, {a, b}, "g");
    c.mark_output(g);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const std::vector<Literal> assume{{g, false}};
    const analysis::ImplicationResult r = engine.propagate(assume);
    EXPECT_FALSE(r.conflict);
    // NAND = 0 forces every fanin to 1.
    EXPECT_NE(std::find(r.implied.begin(), r.implied.end(),
                        Literal{a, true}),
              r.implied.end());
    EXPECT_NE(std::find(r.implied.begin(), r.implied.end(),
                        Literal{b, true}),
              r.implied.end());
}

TEST(Implications, XorParityCompletesOnceOneFaninRemains) {
    Circuit c;
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId g = c.add_gate(GateType::Xor, {a, b}, "g");
    c.mark_output(g);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const std::vector<Literal> assume{{g, true}, {a, false}};
    const analysis::ImplicationResult r = engine.propagate(assume);
    EXPECT_FALSE(r.conflict);
    EXPECT_NE(std::find(r.implied.begin(), r.implied.end(),
                        Literal{b, true}),
              r.implied.end());
}

TEST(Implications, ContradictionYieldsConflict) {
    NodeId g = kNullNode;
    const Circuit c = contradiction_circuit(&g);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const std::vector<Literal> assume{{g, true}};
    EXPECT_TRUE(engine.propagate(assume).conflict);
}

TEST(Implications, StateIsRestoredBetweenQueries) {
    NodeId g = kNullNode;
    const Circuit c = contradiction_circuit(&g);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const std::vector<Literal> conflict{{g, true}};
    const std::vector<Literal> benign{{g, false}};
    const analysis::ImplicationResult before = engine.propagate(benign);
    EXPECT_TRUE(engine.propagate(conflict).conflict);
    const analysis::ImplicationResult after = engine.propagate(benign);
    EXPECT_EQ(before.conflict, after.conflict);
    EXPECT_EQ(before.implied, after.implied);
}

TEST(Implications, StepCapMarksQueryCapped) {
    const Circuit c = gen::and_chain(64);
    analysis::ImplicationEngine engine(c, analysis::propagate_constants(c));
    const std::vector<Literal> assume{
        {c.outputs().front(), true}};
    const analysis::ImplicationResult r = engine.propagate(assume, 1);
    EXPECT_TRUE(r.capped);
    EXPECT_FALSE(r.conflict);
}

// ---------------------------------------------------------------------
// run_analysis: learned constants, untestable faults, bounds
// ---------------------------------------------------------------------

TEST(AnalysisRun, LearnsContradictionConstantWithCertificate) {
    NodeId g = kNullNode;
    const Circuit c = contradiction_circuit(&g);
    // Plain ternary propagation cannot see it...
    EXPECT_EQ(analysis::propagate_constants(c)[g.v], Ternary::X);
    // ...failed-assumption probing proves it.
    const analysis::AnalysisResult result = analysis::run_analysis(c);
    EXPECT_EQ(result.constants[g.v], Ternary::Zero);
    EXPECT_NE(std::find(result.learned_constants.begin(),
                        result.learned_constants.end(), Literal{g, false}),
              result.learned_constants.end());
    bool has_cert = false;
    for (const Certificate& cert : result.certificates)
        if (cert.kind == CertKind::ConstantNet && cert.node == g) {
            has_cert = true;
            EXPECT_FALSE(cert.value);
        }
    EXPECT_TRUE(has_cert);
}

TEST(AnalysisRun, FaultsOnProvenConstantNetAreUntestable) {
    NodeId g = kNullNode;
    const Circuit c = contradiction_circuit(&g);
    const analysis::AnalysisResult result = analysis::run_analysis(c);
    // g is constant 0, so g stuck-at-0 can never be activated.
    EXPECT_NE(std::find(result.untestable.begin(), result.untestable.end(),
                        fault::Fault{g, false}),
              result.untestable.end());
}

TEST(AnalysisRun, ObsBoundsSandwichCop) {
    for (const char* name : {"c17", "chain24", "cmp32", "dag500"}) {
        const Circuit c = gen::suite_entry(name).build();
        const testability::CopResult cop = testability::compute_cop(c);
        const analysis::AnalysisResult result = analysis::run_analysis(c);
        const DominatorTree& tree = result.dominators;
        for (const NodeId v : c.all_nodes()) {
            if (!tree.reachable(v)) continue;
            // The witness-path lower bound is the COP argmax path, so it
            // attains the COP value bitwise.
            EXPECT_EQ(result.obs_lower[v.v], cop.obs[v.v])
                << name << " node " << v.v;
            EXPECT_LE(cop.obs[v.v], result.obs_upper[v.v])
                << name << " node " << v.v;
        }
    }
}

TEST(AnalysisRun, TruncatesUnderNodeCapWithoutLosingSoundness) {
    const Circuit c = gen::suite_entry("dag500").build();
    analysis::AnalysisOptions options;
    options.max_implication_nodes = 4;
    const analysis::AnalysisResult capped = analysis::run_analysis(c, options);
    EXPECT_TRUE(capped.truncated);
    // Facts derived under the cap are a subset of the uncapped run's.
    const analysis::AnalysisResult full = analysis::run_analysis(c);
    for (const Literal& lit : capped.learned_constants)
        EXPECT_NE(std::find(full.learned_constants.begin(),
                            full.learned_constants.end(), lit),
                  full.learned_constants.end());
}

TEST(AnalysisRun, CountersMatchResult) {
    const Circuit c = gen::suite_entry("dag500").build();
    obs::Sink sink;
    analysis::AnalysisOptions options;
    options.sink = &sink;
    const analysis::AnalysisResult result = analysis::run_analysis(c, options);
    EXPECT_EQ(sink.value(obs::Counter::ImplicationsLearned),
              result.implications_learned);
    EXPECT_EQ(sink.value(obs::Counter::FaultsProvedUntestable),
              result.untestable.size());
}

TEST(AnalysisRun, ZeroStepCapIsRejected) {
    analysis::AnalysisOptions options;
    options.max_implication_steps = 0;
    EXPECT_THROW(analysis::validate_analysis_options(options),
                 ValidationError);
    EXPECT_THROW(analysis::run_analysis(gen::suite_entry("c17").build(),
                                        options),
                 ValidationError);
}

TEST(AnalysisRun, LintWorkCapsAreValidatedNotClamped) {
    lint::LintOptions options;
    options.max_implication_steps = 0;
    EXPECT_THROW(lint::validate_lint_options(options), ValidationError);
}

// ---------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------

void expect_all_certificates_replay(const Circuit& c,
                                    const std::vector<Certificate>& certs,
                                    const char* what) {
    for (const Certificate& cert : certs) {
        const analysis::CertCheck check = analysis::check_certificate(c, cert);
        EXPECT_TRUE(check.ok)
            << what << ": " << analysis::cert_kind_name(cert.kind)
            << " certificate for node " << cert.node.v
            << " failed: " << check.detail;
    }
}

TEST(Certificates, AnalysisCertificatesReplayOnSuiteCircuits) {
    for (const char* name : {"c17", "dec5", "chain24", "dag500"}) {
        const Circuit c = gen::suite_entry(name).build();
        const analysis::AnalysisResult result = analysis::run_analysis(c);
        expect_all_certificates_replay(c, result.certificates, name);
    }
}

TEST(Certificates, AnalysisCertificatesReplayOnDataCircuits) {
    for (const char* file :
         {"mux4.bench", "eq4.bench", "eq16.bench", "lintdemo.bench"}) {
        const Circuit c = load_data_circuit(file);
        const analysis::AnalysisResult result = analysis::run_analysis(c);
        expect_all_certificates_replay(c, result.certificates, file);
    }
}

TEST(Certificates, ObservePruningMatchesBitwiseCriterion) {
    for (const char* name : {"c17", "par64", "dag500"}) {
        const Circuit c = gen::suite_entry(name).build();
        const testability::CopResult cop = testability::compute_cop(c);
        const analysis::ObservePruning pruning =
            analysis::compute_observe_pruning(c, cop, 16);
        std::size_t count = 0;
        for (const NodeId v : c.all_nodes()) {
            EXPECT_EQ(pruning.zero_gain[v.v], cop.obs[v.v] == 1.0)
                << name << " node " << v.v;
            count += pruning.zero_gain[v.v];
        }
        EXPECT_EQ(pruning.count, count);
        expect_all_certificates_replay(c, pruning.certificates, name);
    }
}

TEST(Certificates, TransparentChainRequiresExactObservability) {
    const Circuit c = gen::suite_entry("c17").build();
    const testability::CopResult cop = testability::compute_cop(c);
    for (const NodeId v : c.all_nodes()) {
        if (cop.obs[v.v] == 1.0) continue;
        EXPECT_THROW(analysis::transparent_chain(c, cop, v), Error);
        break;
    }
}

TEST(Certificates, TamperedCertificateIsRejected) {
    NodeId g = kNullNode;
    const Circuit c = contradiction_circuit(&g);
    const analysis::AnalysisResult result = analysis::run_analysis(c);
    ASSERT_FALSE(result.certificates.empty());
    for (Certificate cert : result.certificates) {
        if (cert.kind != CertKind::ConstantNet || cert.node != g) continue;
        cert.value = !cert.value;  // claim the opposite constant
        EXPECT_FALSE(analysis::check_certificate(c, cert).ok);
        return;
    }
    FAIL() << "no ConstantNet certificate for the gadget net";
}

// ---------------------------------------------------------------------
// PODEM differential: analysis-untestable ==> PODEM-redundant
// ---------------------------------------------------------------------

void expect_podem_confirms_untestable(const Circuit& c,
                                      const std::vector<fault::Fault>& faults,
                                      const char* what) {
    atpg::AtpgOptions options;
    options.backtrack_limit = 200000;
    for (const fault::Fault& f : faults) {
        const atpg::TestCube cube = atpg::generate_test(c, f, options);
        EXPECT_EQ(cube.outcome, atpg::Outcome::Redundant)
            << what << ": analysis says " << fault::fault_name(c, f)
            << " is untestable but PODEM "
            << (cube.outcome == atpg::Outcome::Detected ? "found a test"
                                                        : "aborted");
    }
}

TEST(PodemDifferential, DataCircuitUntestablesAreRedundant) {
    for (const char* file :
         {"mux4.bench", "eq4.bench", "eq16.bench", "lintdemo.bench"}) {
        const Circuit c = load_data_circuit(file);
        const analysis::AnalysisResult result = analysis::run_analysis(c);
        expect_podem_confirms_untestable(c, result.untestable, file);
    }
}

TEST(PodemDifferential, SuiteUntestablesAreRedundant) {
    std::size_t proved = 0;
    for (const char* name : {"c17", "dec5", "dag500"}) {
        const Circuit c = gen::suite_entry(name).build();
        const analysis::AnalysisResult result = analysis::run_analysis(c);
        proved += result.untestable.size();
        expect_podem_confirms_untestable(c, result.untestable, name);
    }
    // The sweep must actually exercise the differential: dag500 carries
    // redundant reconvergent logic the prober finds.
    EXPECT_GT(proved, 0u);
}

// The 108-circuit random-DAG corpus of the simulator differential
// (same parameterisation as test_simd_sim.cpp): analysis-untestable
// faults are PODEM-confirmed on every corpus circuit; on a spot-check
// subset, every PODEM-detected fault is confirmed absent from the
// untestable set (the contrapositive, checked explicitly).
TEST(PodemDifferential, RandomDagCorpus) {
    for (std::uint64_t seed = 1; seed <= 36; ++seed) {
        for (const std::size_t gates : {40ul, 120ul, 350ul}) {
            gen::RandomDagOptions options;
            options.gates = gates;
            options.inputs = 8 + seed % 24;
            options.seed = seed * 7919 + gates;
            const Circuit c = gen::random_dag(options);
            const analysis::AnalysisResult result = analysis::run_analysis(c);
            const std::string what = "seed " + std::to_string(seed) + "/" +
                                     std::to_string(gates) + " gates";
            expect_podem_confirms_untestable(c, result.untestable,
                                             what.c_str());
            if (gates != 40 || seed % 6 != 1) continue;
            // Vice-versa spot-check on the small circuits: run PODEM
            // over the full universe and cross-check the verdicts.
            std::set<std::pair<std::uint32_t, bool>> untestable;
            for (const fault::Fault& f : result.untestable)
                untestable.insert({f.node.v, f.stuck_at1});
            atpg::AtpgOptions atpg_options;
            atpg_options.backtrack_limit = 200000;
            for (const fault::Fault& f : fault::all_faults(c)) {
                const atpg::TestCube cube =
                    atpg::generate_test(c, f, atpg_options);
                if (cube.outcome == atpg::Outcome::Detected) {
                    EXPECT_FALSE(untestable.count({f.node.v, f.stuck_at1}))
                        << what << ": " << fault::fault_name(c, f)
                        << " is detectable yet claimed untestable";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planner plan identity: the zero-gain rule changes nothing but work
// ---------------------------------------------------------------------

PlannerOptions plan_options(int budget, unsigned threads) {
    PlannerOptions options;
    options.budget = budget;
    options.objective.num_patterns = 1024;
    options.threads = threads;
    return options;
}

void expect_plan_identical(Planner& planner, const Circuit& c, int budget,
                           const char* what) {
    // The rows were recorded on the from-scratch evaluate_plan reference
    // path, with analysis pruning off and on (identical both ways).
    const testref::ReferencePlan* ref = testref::find_reference_plan(
        "identity", planner.name(), what, budget);
    ASSERT_NE(ref, nullptr) << what << " " << planner.name();
    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::string(what) + " " + std::string(planner.name()) +
                     " threads " + std::to_string(threads));
        testref::expect_plan_matches(
            *ref, c, planner.plan(c, plan_options(budget, threads)));
    }
}

TEST(PlanIdentity, DpAndGreedyAreBitIdenticalWithPruning) {
    DpPlanner dp;
    GreedyPlanner greedy;
    for (const char* name : {"c17", "chain24", "aochain32", "cmp32"}) {
        const Circuit c = gen::suite_entry(name).build();
        expect_plan_identical(dp, c, 4, name);
        expect_plan_identical(greedy, c, 4, name);
    }
}

TEST(PlanIdentity, HoldsOnReconvergentDag500) {
    const Circuit c = gen::suite_entry("dag500").build();
    DpPlanner dp;
    GreedyPlanner greedy;
    expect_plan_identical(dp, c, 3, "dag500");
    expect_plan_identical(greedy, c, 3, "dag500");
}

TEST(PlanIdentity, TransparentCircuitPrunesEverythingAndPlansNothing) {
    // A parity tree is fully transparent: every net has COP
    // observability exactly 1.0, so the observe DP drops every member,
    // builds no region and plans nothing.
    const Circuit c = gen::parity_tree(32);
    DpPlanner planner;
    PlannerOptions options = plan_options(8, 1);
    options.control_kinds.clear();  // observe-only planning
    obs::Sink sink;
    options.sink = &sink;
    const Plan plan = planner.plan(c, options);
    EXPECT_TRUE(plan.points.empty());
    EXPECT_GT(sink.value(obs::Counter::CandidatesPrunedAnalysis), 0u);
    EXPECT_EQ(sink.value(obs::Counter::DpRegionsBuilt), 0u);
    const fault::CollapsedFaults faults = fault::singleton_faults(c);
    EXPECT_EQ(plan.predicted_score,
              evaluate_plan(c, faults, {}, options.objective).score);
}

TEST(PlanIdentity, ThresholdSweepAcceptsAtSameBudget) {
    // The cmp32 TPI-MIN sweep recorded with analysis pruning off and on
    // (both accepted the same budget, plan and score).
    testref::expect_reference_sweep("identity");
}

TEST(PlanIdentity, PrunedCounterIsReportedToSink) {
    // The zero-gain counter is deterministic: the same total at every
    // thread count, and nonzero where observe DPs meet transparent nets.
    const Circuit c = gen::suite_entry("dag500").build();
    std::uint64_t serial = 0;
    for (const unsigned threads : {1u, 2u, 8u}) {
        obs::Sink sink;
        DpPlanner planner;
        PlannerOptions options = plan_options(3, threads);
        options.control_kinds.clear();
        options.sink = &sink;
        planner.plan(c, options);
        const std::uint64_t pruned =
            sink.value(obs::Counter::CandidatesPrunedAnalysis);
        if (threads == 1) serial = pruned;
        EXPECT_EQ(pruned, serial) << "threads " << threads;
    }
    EXPECT_GT(serial, 0u);
}

}  // namespace
