#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "gen/benchmarks.hpp"
#include "gen/chains.hpp"
#include "gen/random_circuits.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "analysis/ternary.hpp"
#include "sim/logic_sim.hpp"
#include "testability/cop.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace {

using namespace tpi;
using namespace tpi::netlist;
using analysis::Ternary;

/// The planted lint gadget zoo: one trigger per built-in rule.
///   tie (CONST0), k = AND(u1, tie)  -> constant nets
///   u1 = XOR(a, c), only consumer k -> unobservable (blocked) net
///   dup1 = AND(a, b), dup2 = AND(b, a) -> duplicate gates
///   s -> n1/n2 -> rec                 -> reconvergent fanout
Circuit lint_gadget_circuit() {
    Circuit c("gadgets");
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId ci = c.add_input("c");
    const NodeId d = c.add_input("d");
    const NodeId tie = c.add_const(false, "tie");
    const NodeId u1 = c.add_gate(GateType::Xor, {a, ci}, "u1");
    const NodeId k = c.add_gate(GateType::And, {u1, tie}, "k");
    const NodeId dup1 = c.add_gate(GateType::And, {a, b}, "dup1");
    const NodeId dup2 = c.add_gate(GateType::And, {b, a}, "dup2");
    const NodeId s = c.add_gate(GateType::Or, {ci, d}, "s");
    const NodeId n1 = c.add_gate(GateType::Nand, {s, a}, "n1");
    const NodeId n2 = c.add_gate(GateType::And, {s, b}, "n2");
    const NodeId rec = c.add_gate(GateType::Or, {n1, n2}, "rec");
    const NodeId live = c.add_gate(GateType::Or, {dup1, dup2}, "live");
    const NodeId m = c.add_gate(GateType::Or, {rec, live}, "m");
    const NodeId out = c.add_gate(GateType::Or, {m, k}, "out");
    c.mark_output(out);
    return c;
}

/// Exhaustive ground truth: simulate all 2^n input patterns and report
/// the node's value when it is the same under every one of them.
std::optional<bool> exhaustive_constant(const Circuit& circuit, NodeId v) {
    const std::size_t n = circuit.input_count();
    EXPECT_LE(n, 16u) << "exhaustive_constant: too many inputs";
    const std::uint64_t total = std::uint64_t{1} << n;
    sim::LogicSimulator simulator(circuit);
    std::vector<std::uint64_t> words(n);
    std::uint64_t ones = 0;
    std::uint64_t count = 0;
    for (std::uint64_t base = 0; base < total; base += 64) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t w = 0;
            for (std::uint64_t j = 0; j < 64 && base + j < total; ++j)
                if (((base + j) >> i) & 1) w |= std::uint64_t{1} << j;
            words[i] = w;
        }
        simulator.simulate_block(words);
        const std::uint64_t valid = std::min<std::uint64_t>(64, total - base);
        const std::uint64_t mask =
            valid == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << valid) - 1;
        ones += std::popcount(simulator.value(v) & mask);
        count += valid;
    }
    if (ones == 0) return false;
    if (ones == count) return true;
    return std::nullopt;
}

// ---- ternary evaluation ------------------------------------------------

TEST(Ternary, GateDominanceRules) {
    using analysis::eval_ternary;
    const Ternary zx[] = {Ternary::Zero, Ternary::X};
    const Ternary ox[] = {Ternary::One, Ternary::X};
    const Ternary xx[] = {Ternary::X, Ternary::X};
    const Ternary oo[] = {Ternary::One, Ternary::One};
    // A controlling input decides the gate regardless of X siblings.
    EXPECT_EQ(eval_ternary(GateType::And, zx), Ternary::Zero);
    EXPECT_EQ(eval_ternary(GateType::Nand, zx), Ternary::One);
    EXPECT_EQ(eval_ternary(GateType::Or, ox), Ternary::One);
    EXPECT_EQ(eval_ternary(GateType::Nor, ox), Ternary::Zero);
    // No controlling input, some X input: unknown.
    EXPECT_EQ(eval_ternary(GateType::And, ox), Ternary::X);
    EXPECT_EQ(eval_ternary(GateType::Or, zx), Ternary::X);
    // Parity gates are X as soon as any input is X.
    EXPECT_EQ(eval_ternary(GateType::Xor, zx), Ternary::X);
    EXPECT_EQ(eval_ternary(GateType::Xor, ox), Ternary::X);
    EXPECT_EQ(eval_ternary(GateType::Xnor, xx), Ternary::X);
    EXPECT_EQ(eval_ternary(GateType::Xor, oo), Ternary::Zero);
    // Unary gates.
    const Ternary one[] = {Ternary::One};
    const Ternary unknown[] = {Ternary::X};
    EXPECT_EQ(eval_ternary(GateType::Not, one), Ternary::Zero);
    EXPECT_EQ(eval_ternary(GateType::Buf, one), Ternary::One);
    EXPECT_EQ(eval_ternary(GateType::Not, unknown), Ternary::X);
}

TEST(Ternary, EvaluateMatchesConcreteSimulation) {
    // With fully defined inputs the ternary evaluator is an ordinary
    // logic simulator.
    const Circuit circuit = gen::c17();
    const std::size_t n = circuit.input_count();
    for (std::uint32_t assignment = 0; assignment < (1u << n); ++assignment) {
        std::vector<Ternary> in(n);
        for (std::size_t i = 0; i < n; ++i)
            in[i] = analysis::to_ternary(((assignment >> i) & 1) != 0);
        const std::vector<Ternary> values =
            analysis::evaluate_ternary(circuit, in);
        for (NodeId v : circuit.all_nodes()) {
            ASSERT_TRUE(analysis::is_defined(values[v.v]));
            std::vector<std::uint64_t> words(n);
            for (std::size_t i = 0; i < n; ++i)
                words[i] = ((assignment >> i) & 1) ? ~std::uint64_t{0} : 0;
            sim::LogicSimulator simulator(circuit);
            simulator.simulate_block(words);
            EXPECT_EQ(analysis::ternary_bool(values[v.v]),
                      (simulator.value(v) & 1) != 0);
        }
    }
}

TEST(Ternary, ConstantPropagationOnGadgets) {
    const Circuit circuit = lint_gadget_circuit();
    const std::vector<Ternary> value = analysis::propagate_constants(circuit);
    EXPECT_EQ(value[circuit.find("tie").v], Ternary::Zero);
    EXPECT_EQ(value[circuit.find("k").v], Ternary::Zero);
    EXPECT_EQ(value[circuit.find("u1").v], Ternary::X);
    EXPECT_EQ(value[circuit.find("out").v], Ternary::X);
    for (NodeId pi : circuit.inputs()) EXPECT_EQ(value[pi.v], Ternary::X);
}

TEST(Ternary, ProvenConstantsHoldExhaustively) {
    // Soundness: every net the lattice proves constant is constant under
    // all 2^n input assignments (checked by exhaustive simulation).
    const Circuit circuits[] = {lint_gadget_circuit(), gen::c17(),
                                gen::equality_comparator(4)};
    for (const Circuit& circuit : circuits) {
        const std::vector<Ternary> value =
            analysis::propagate_constants(circuit);
        for (NodeId v : circuit.all_nodes()) {
            if (!analysis::is_defined(value[v.v])) continue;
            const std::optional<bool> truth = exhaustive_constant(circuit, v);
            ASSERT_TRUE(truth.has_value())
                << circuit.name() << ": " << circuit.node_name(v);
            EXPECT_EQ(*truth, analysis::ternary_bool(value[v.v]));
        }
    }
}

TEST(Ternary, ObservableMaskOnGadgets) {
    const Circuit circuit = lint_gadget_circuit();
    const std::vector<Ternary> value = analysis::propagate_constants(circuit);
    const std::vector<bool> obs = analysis::observable_mask(circuit, value);
    // u1's only path runs through AND(u1, tie) with tie proven 0.
    EXPECT_FALSE(obs[circuit.find("u1").v]);
    // k is constant but still observable (its OR sibling is free).
    EXPECT_TRUE(obs[circuit.find("k").v]);
    EXPECT_TRUE(obs[circuit.find("live").v]);
    EXPECT_TRUE(obs[circuit.find("out").v]);
    EXPECT_TRUE(obs[circuit.find("a").v]);
}

TEST(Ternary, BlockedNetsHaveExactlyZeroCopObservability) {
    // The structural blocking argument and COP agree: a lint-blocked net
    // has COP observability exactly 0, and a lint-proven constant has
    // COP controllability exactly 0 or 1.
    const Circuit circuits[] = {lint_gadget_circuit(),
                                gen::random_dag({.gates = 200,
                                                 .inputs = 12,
                                                 .window = 24,
                                                 .seed = 7})};
    for (const Circuit& circuit : circuits) {
        const std::vector<Ternary> value =
            analysis::propagate_constants(circuit);
        const std::vector<bool> obs =
            analysis::observable_mask(circuit, value);
        const testability::CopResult cop = testability::compute_cop(circuit);
        for (NodeId v : circuit.all_nodes()) {
            if (!obs[v.v]) {
                EXPECT_EQ(cop.obs[v.v], 0.0);
            }
            if (analysis::is_defined(value[v.v])) {
                EXPECT_EQ(cop.c1[v.v],
                          analysis::ternary_bool(value[v.v]) ? 1.0 : 0.0);
            }
        }
    }
}

// ---- the lint driver and built-in rules --------------------------------

TEST(Lint, GadgetCircuitTriggersEveryBuiltinRule) {
    const Circuit circuit = lint_gadget_circuit();
    const lint::LintReport report = lint::run_lint(circuit);
    EXPECT_EQ(report.count_rule("constant-net"), 1u);       // k (tie skipped)
    EXPECT_EQ(report.count_rule("unobservable-net"), 1u);   // u1
    EXPECT_EQ(report.count_rule("redundant-fault"), 3u);    // u1 both, k sa0
    EXPECT_EQ(report.count_rule("duplicate-gate"), 1u);     // dup2 ~ dup1
    EXPECT_GE(report.count_rule("reconvergent-fanout"), 1u);
    EXPECT_FALSE(report.truncated);
}

TEST(Lint, FindingsAreWellFormed) {
    const Circuit circuits[] = {
        lint_gadget_circuit(), gen::c17(), gen::equality_comparator(8),
        gen::random_dag({.gates = 300, .inputs = 16, .seed = 3})};
    for (const Circuit& circuit : circuits) {
        const lint::LintReport report = lint::run_lint(circuit);
        for (const lint::Finding& finding : report.findings) {
            EXPECT_NE(lint::RuleRegistry::global().find(finding.rule),
                      nullptr);
            EXPECT_FALSE(finding.message.empty());
            ASSERT_EQ(finding.nodes.size(), finding.node_names.size());
            EXPECT_FALSE(finding.nodes.empty());
            for (std::size_t i = 0; i < finding.nodes.size(); ++i) {
                ASSERT_LT(finding.nodes[i].v, circuit.node_count());
                EXPECT_EQ(finding.node_names[i],
                          circuit.node_name(finding.nodes[i]));
            }
        }
        EXPECT_EQ(report.count(lint::Severity::Info) +
                      report.count(lint::Severity::Warning) +
                      report.count(lint::Severity::Error),
                  report.findings.size());
        EXPECT_EQ(report.ternary.size(), circuit.node_count());
        EXPECT_EQ(report.observable.size(), circuit.node_count());
    }
}

TEST(Lint, EveryRedundantFaultIsPodemRedundant) {
    // Cross-check against the complete decision procedure: everything the
    // lint engine condemns, PODEM must prove redundant too.
    const Circuit circuits[] = {
        lint_gadget_circuit(),
        gen::random_dag({.gates = 120, .inputs = 10, .seed = 11}),
        gen::random_dag({.gates = 120, .inputs = 10, .seed = 12})};
    for (const Circuit& circuit : circuits) {
        const lint::LintReport report = lint::run_lint(circuit);
        for (const fault::Fault& fault : report.redundant_faults) {
            const atpg::TestCube cube = atpg::generate_test(circuit, fault);
            EXPECT_EQ(cube.outcome, atpg::Outcome::Redundant)
                << circuit.name() << ": "
                << fault::fault_name(circuit, fault);
        }
    }
}

TEST(Lint, GadgetRedundantFaultsAreExactlyTheDeadCone) {
    const Circuit circuit = lint_gadget_circuit();
    const lint::LintReport report = lint::run_lint(circuit);
    const NodeId u1 = circuit.find("u1");
    const NodeId k = circuit.find("k");
    std::vector<fault::Fault> expected = {
        {u1, false}, {u1, true}, {k, false}};
    auto sorted = report.redundant_faults;
    auto key = [](const fault::Fault& f) {
        return std::pair(f.node.v, f.stuck_at1);
    };
    std::sort(sorted.begin(), sorted.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    std::sort(expected.begin(), expected.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    EXPECT_EQ(sorted, expected);
}

TEST(Lint, ReconvergenceGadget) {
    const Circuit circuit = lint_gadget_circuit();
    const lint::LintReport report = lint::run_lint(circuit);
    const NodeId s = circuit.find("s");
    const NodeId rec = circuit.find("rec");
    const auto it = std::find_if(
        report.reconvergent_stems.begin(), report.reconvergent_stems.end(),
        [&](const lint::ReconvergentStem& stem) { return stem.stem == s; });
    ASSERT_NE(it, report.reconvergent_stems.end());
    EXPECT_EQ(it->reconvergence, rec);
    EXPECT_EQ(it->depth, circuit.level(rec) - circuit.level(s));
    EXPECT_EQ(it->branches, 2);
}

TEST(Lint, FanoutFreeCircuitsHaveNoReconvergence) {
    const Circuit circuits[] = {gen::and_chain(24),
                                gen::random_tree({.gates = 40, .seed = 5})};
    for (const Circuit& circuit : circuits) {
        const lint::LintReport report = lint::run_lint(circuit);
        EXPECT_TRUE(report.reconvergent_stems.empty()) << circuit.name();
        EXPECT_EQ(report.count_rule("reconvergent-fanout"), 0u);
    }
}

TEST(Lint, DuplicateDetectionIsTransitive) {
    // dup2 dedupes onto dup1, so AND(dup2, x) must dedupe onto
    // AND(dup1, x) through the representative remap.
    Circuit c("transitive");
    const NodeId a = c.add_input("a");
    const NodeId b = c.add_input("b");
    const NodeId x = c.add_input("x");
    const NodeId dup1 = c.add_gate(GateType::And, {a, b}, "dup1");
    const NodeId dup2 = c.add_gate(GateType::And, {b, a}, "dup2");
    const NodeId top1 = c.add_gate(GateType::Or, {dup1, x}, "top1");
    const NodeId top2 = c.add_gate(GateType::Or, {x, dup2}, "top2");
    c.mark_output(c.add_gate(GateType::Xor, {top1, top2}, "out"));
    const lint::LintReport report = lint::run_lint(c);
    EXPECT_EQ(report.duplicate_gates, 2u);
    EXPECT_EQ(report.count_rule("duplicate-gate"), 2u);
}

TEST(Lint, RuleSelectionAndUnknownRule) {
    const Circuit circuit = lint_gadget_circuit();
    lint::LintOptions options;
    options.rules = {"constant-net"};
    const lint::LintReport report = lint::run_lint(circuit, options);
    EXPECT_EQ(report.count_rule("constant-net"), report.findings.size());
    // Shared artifacts are computed regardless of rule selection.
    EXPECT_EQ(report.ternary.size(), circuit.node_count());

    lint::LintOptions bad;
    bad.rules = {"no-such-rule"};
    EXPECT_THROW(lint::run_lint(circuit, bad), tpi::Error);
}

TEST(Lint, CustomRuleInLocalRegistry) {
    lint::RuleRegistry registry;
    registry.add({"gate-census", "counts gates", lint::Severity::Info,
                  [](const lint::RuleContext& context,
                     lint::LintReport& report) {
                      lint::Finding finding;
                      finding.rule = "gate-census";
                      finding.severity = lint::Severity::Info;
                      finding.nodes = {context.circuit.outputs().front()};
                      finding.node_names = {std::string(
                          context.circuit.node_name(
                              finding.nodes.front()))};
                      finding.message =
                          std::to_string(context.circuit.gate_count()) +
                          " gates";
                      report.findings.push_back(std::move(finding));
                  }});
    EXPECT_THROW(
        registry.add({"gate-census", "duplicate id", lint::Severity::Info,
                      [](const lint::RuleContext&, lint::LintReport&) {}}),
        tpi::Error);
    const Circuit circuit = gen::c17();
    const lint::LintReport report =
        lint::run_lint(circuit, {}, registry);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "gate-census");
}

TEST(Lint, PerRuleFindingCapSetsTruncated) {
    const Circuit circuit = lint_gadget_circuit();
    lint::LintOptions options;
    options.max_findings_per_rule = 1;
    const lint::LintReport report = lint::run_lint(circuit, options);
    EXPECT_TRUE(report.truncated);
    for (const lint::LintRule& rule :
         lint::RuleRegistry::global().rules())
        EXPECT_LE(report.count_rule(rule.id), 1u) << rule.id;
    // The artifact vectors stay complete even when findings are capped.
    EXPECT_EQ(report.redundant_faults.size(), 3u);
}

TEST(Lint, ExpiredDeadlineReturnsTruncatedReport) {
    const Circuit circuit = lint_gadget_circuit();
    util::Deadline deadline = util::Deadline::steps(1);
    lint::LintOptions options;
    options.deadline = &deadline;
    const lint::LintReport report = lint::run_lint(circuit, options);
    EXPECT_TRUE(report.truncated);
}

// ---- reporters ---------------------------------------------------------

TEST(LintReport, TextAndJsonAreStableAndParseable) {
    const Circuit circuit = lint_gadget_circuit();
    const lint::LintReport report = lint::run_lint(circuit);
    const std::string text = lint::to_text(report, circuit);
    EXPECT_NE(text.find("constant-net"), std::string::npos);
    EXPECT_NE(text.find("per-rule totals:"), std::string::npos);
    const std::string json = lint::to_json(report, circuit);
    EXPECT_NE(json.find("\"findings\""), std::string::npos);
    EXPECT_NE(json.find("\"by_rule\""), std::string::npos);
    // Balanced braces/brackets outside strings — cheap well-formedness.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"') in_string = true;
        if (ch == '{' || ch == '[') ++depth;
        if (ch == '}' || ch == ']') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

// ---- planner pruning ---------------------------------------------------

/// A circuit where the dead cone is worthless to the planner at small
/// budgets: the live half is a random-pattern-resistant 16-input AND
/// tree whose first two test points are worth ~28 coverage points each,
/// the dead half is three gates behind a tie-0 worth ~7. With budget 2
/// the unpruned optimum spends everything in the tree, so pruning must
/// be exactly score-neutral (the DESIGN.md §10 condition holds). From
/// budget 3 on, resurrecting the cone becomes the unpruned planner's
/// best third move and the scores legitimately diverge — that regime is
/// quantified in bench_t11_lint, not asserted here.
Circuit pruned_planning_circuit() {
    Circuit c("pruned");
    std::vector<NodeId> layer;
    for (int i = 0; i < 16; ++i)
        layer.push_back(c.add_input("a" + std::to_string(i)));
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(
                c.add_gate(GateType::And, {layer[i], layer[i + 1]}));
        if (layer.size() % 2 != 0) next.push_back(layer.back());
        layer = std::move(next);
    }
    const NodeId root = layer.front();
    const NodeId da = c.add_input("da");
    const NodeId db = c.add_input("db");
    const NodeId tie = c.add_const(false, "tie");
    const NodeId u = c.add_gate(GateType::Xor, {da, db}, "u");
    const NodeId dead = c.add_gate(GateType::And, {u, tie}, "dead");
    c.mark_output(c.add_gate(GateType::Or, {root, dead}, "out"));
    return c;
}

template <typename PlannerT>
void expect_pruning_is_neutral(int budget) {
    const Circuit circuit = pruned_planning_circuit();
    PlannerT planner;
    PlannerOptions options;
    options.budget = budget;
    options.objective.num_patterns = 1024;
    const Plan unpruned = planner.plan(circuit, options);
    options.prune_via_lint = true;
    const Plan pruned = planner.plan(circuit, options);

    // Identical plans, identical scores, strictly smaller candidate set.
    EXPECT_EQ(pruned.points, unpruned.points);
    EXPECT_DOUBLE_EQ(pruned.predicted_score, unpruned.predicted_score);
    EXPECT_EQ(unpruned.candidates_pruned, 0u);
    EXPECT_GE(pruned.candidates_pruned, 3u);  // tie, u, dead
    EXPECT_LT(pruned.candidates_considered, unpruned.candidates_considered);
    EXPECT_EQ(pruned.candidates_considered + pruned.candidates_pruned,
              unpruned.candidates_considered);
    for (const TestPoint& tp : pruned.points) {
        EXPECT_NE(tp.node, circuit.find("tie"));
        EXPECT_NE(tp.node, circuit.find("u"));
        EXPECT_NE(tp.node, circuit.find("dead"));
    }
}

TEST(LintPruning, DpPlannerScoreIdentical) {
    expect_pruning_is_neutral<DpPlanner>(2);
}

TEST(LintPruning, GreedyPlannerScoreIdentical) {
    expect_pruning_is_neutral<GreedyPlanner>(2);
}

TEST(LintPruning, ComputePruningMatchesReportArtifacts) {
    const Circuit circuit = lint_gadget_circuit();
    const lint::LintReport report = lint::run_lint(circuit);
    const lint::Pruning pruning = lint::compute_pruning(circuit);
    ASSERT_EQ(pruning.drop_candidate.size(), circuit.node_count());
    std::size_t dropped = 0;
    for (NodeId v : circuit.all_nodes()) {
        const bool expect_drop =
            analysis::is_defined(report.ternary[v.v]) ||
            !report.observable[v.v];
        EXPECT_EQ(pruning.drop_candidate[v.v], expect_drop)
            << circuit.node_name(v);
        if (expect_drop) ++dropped;
    }
    EXPECT_EQ(pruning.dropped, dropped);
    EXPECT_EQ(pruning.redundant_faults, report.redundant_faults);
}

}  // namespace
