// The built-in lint rules. Each rule reads the shared RuleContext
// analyses and appends severity-graded findings; the heavier sweeps
// honour the per-rule finding cap, the work cap, and the deadline.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "lint/lint.hpp"
#include "util/error.hpp"

namespace tpi::lint {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

namespace {

/// Append a finding unless the rule's cap is reached (then mark the
/// report truncated instead). Returns false once capped so sweeps can
/// stop building messages early.
bool emit(const RuleContext& context, LintReport& report,
          std::string_view rule, Severity severity,
          std::vector<NodeId> nodes, std::string message,
          std::string fix_hint) {
    if (report.count_rule(rule) >= context.options.max_findings_per_rule) {
        report.truncated = true;
        return false;
    }
    Finding finding;
    finding.rule = std::string(rule);
    finding.severity = severity;
    finding.node_names.reserve(nodes.size());
    for (NodeId v : nodes)
        finding.node_names.emplace_back(context.circuit.node_name(v));
    finding.nodes = std::move(nodes);
    finding.message = std::move(message);
    finding.fix_hint = std::move(fix_hint);
    report.findings.push_back(std::move(finding));
    return true;
}

bool expired(const RuleContext& context, LintReport& report) {
    if (context.options.deadline != nullptr &&
        context.options.deadline->expired_now()) {
        report.truncated = true;
        return true;
    }
    return false;
}

// ---------------------------------------------------------- constant-net

void rule_constant_net(const RuleContext& context, LintReport& report) {
    const Circuit& circuit = context.circuit;
    for (NodeId v : circuit.all_nodes()) {
        const analysis::Ternary value = context.ternary[v.v];
        if (!analysis::is_defined(value)) continue;
        const GateType type = circuit.type(v);
        if (type == GateType::Const0 || type == GateType::Const1)
            continue;  // tie cells are constant by design
        if (!emit(context, report, "constant-net", Severity::Warning, {v},
                  "net '" + std::string(circuit.node_name(v)) + "' is constant " +
                      std::string(analysis::ternary_name(value)) +
                      " under every input assignment",
                  "replace the driver with a tie cell (lenient validation "
                  "then sweeps the dead cone) or fix the tied-off logic"))
            return;
    }
}

// ------------------------------------------------------ unobservable-net

void rule_unobservable_net(const RuleContext& context, LintReport& report) {
    const Circuit& circuit = context.circuit;
    for (NodeId v : circuit.all_nodes()) {
        if (context.observable[v.v]) continue;
        const bool dead_end =
            circuit.fanout_count(v) == 0 && !circuit.is_output(v);
        if (!emit(context, report, "unobservable-net", Severity::Warning,
                  {v},
                  "net '" + std::string(circuit.node_name(v)) + "' has " +
                      (dead_end ? "no consumers and is not an output"
                                : "no sensitisable path to any primary "
                                  "output (every path is blocked by a "
                                  "constant side input)"),
                  "remove the dead logic, or make it reachable; a test "
                  "point here cannot raise functional fault coverage"))
            return;
    }
}

// ------------------------------------------------------- redundant-fault

void rule_redundant_fault(const RuleContext& context, LintReport& report) {
    const Circuit& circuit = context.circuit;
    report.redundant_faults = detail::derive_redundant_faults(
        circuit, context.ternary, context.observable);
    for (const fault::Fault& f : report.redundant_faults) {
        const bool never_excited =
            analysis::is_defined(context.ternary[f.node.v]);
        if (!emit(context, report, "redundant-fault", Severity::Warning,
                  {f.node},
                  "stuck-at-" + std::string(f.stuck_at1 ? "1" : "0") +
                      " on net '" + std::string(circuit.node_name(f.node)) +
                      "' is provably undetectable (" +
                      (never_excited ? "the net always carries the stuck "
                                       "value"
                                     : "no fault effect can reach an "
                                       "output") +
                      ")",
                  "exclude it from the coverage denominator; planners "
                  "drop it under PlannerOptions::prune_via_lint"))
            return;
    }
}

// --------------------------------------------------- reconvergent-fanout

/// Per-stem branch-mask sweep. Each distinct consumer of the stem seeds
/// one bit (capped at 64 branches); masks are OR-propagated through the
/// stem's fanout cone in topological order. The first node where two
/// incoming edges contribute branch sets neither of which contains the
/// other is the stem's reconvergence point.
void rule_reconvergent_fanout(const RuleContext& context,
                              LintReport& report) {
    const Circuit& circuit = context.circuit;
    const std::size_t n = circuit.node_count();
    const auto& topo = circuit.topo_order();
    std::vector<std::uint32_t> topo_pos(n, 0);
    for (std::size_t i = 0; i < topo.size(); ++i)
        topo_pos[topo[i].v] = static_cast<std::uint32_t>(i);

    // Epoch-stamped scratch: one sweep per stem without re-clearing.
    std::vector<std::uint64_t> mask(n, 0);
    std::vector<std::uint32_t> stamp(n, 0);
    std::uint32_t epoch = 0;
    std::size_t work = 0;

    std::vector<NodeId> cone;
    std::vector<NodeId> seeds;
    for (NodeId stem : topo) {
        if (circuit.fanout_count(stem) < 2) continue;
        if (expired(context, report)) return;
        if (work > context.options.max_reconvergence_work) {
            report.truncated = true;
            return;
        }
        ++epoch;

        // Seed one branch bit per distinct consumer.
        seeds.clear();
        for (NodeId g : circuit.fanouts(stem)) {
            if (stamp[g.v] == epoch) continue;  // duplicate fanin slot
            stamp[g.v] = epoch;
            mask[g.v] = std::uint64_t{1}
                        << std::min<std::size_t>(seeds.size(), 63);
            seeds.push_back(g);
        }
        if (seeds.size() < 2) continue;

        // Collect the fanout cone, then visit it in topological order.
        cone = seeds;
        for (std::size_t i = 0; i < cone.size(); ++i) {
            for (NodeId g : circuit.fanouts(cone[i])) {
                if (stamp[g.v] == epoch) continue;
                stamp[g.v] = epoch;
                mask[g.v] = 0;
                cone.push_back(g);
            }
        }
        std::sort(cone.begin(), cone.end(), [&](NodeId a, NodeId b) {
            return topo_pos[a.v] < topo_pos[b.v];
        });
        work += cone.size();

        NodeId reconvergence = netlist::kNullNode;
        int branches = 0;
        for (NodeId v : cone) {
            std::uint64_t merged = mask[v.v];  // seed bit, if any
            bool reconverges = false;
            for (NodeId f : circuit.fanins(v)) {
                if (f == stem || stamp[f.v] != epoch) continue;
                const std::uint64_t incoming = mask[f.v];
                if (incoming == 0) continue;
                // Two contributions, neither containing the other, meet
                // genuinely different branch sets here.
                if (merged != 0 && (incoming & ~merged) != 0 &&
                    (merged & ~incoming) != 0)
                    reconverges = true;
                merged |= incoming;
            }
            mask[v.v] = merged;
            if (reconverges && !reconvergence.valid()) {
                reconvergence = v;
                branches = std::popcount(merged);
            }
        }
        if (!reconvergence.valid()) continue;

        const int depth =
            circuit.level(reconvergence) - circuit.level(stem);
        report.reconvergent_stems.push_back(
            {stem, reconvergence, depth, branches});
        emit(context, report, "reconvergent-fanout", Severity::Info,
             {stem, reconvergence},
             "stem '" + std::string(circuit.node_name(stem)) + "' reconverges at '" +
                 std::string(circuit.node_name(reconvergence)) + "' (depth " +
                 std::to_string(depth) + ", " + std::to_string(branches) +
                 " branches)",
             "COP and the per-region DP treat the branches as "
             "independent here; validate planned gains with fault "
             "simulation");
    }
}

// -------------------------------------------------------- duplicate-gate

void rule_duplicate_gate(const RuleContext& context, LintReport& report) {
    const Circuit& circuit = context.circuit;
    std::vector<NodeId> repr(circuit.node_count(), netlist::kNullNode);
    std::map<std::pair<GateType, std::vector<std::uint32_t>>, NodeId>
        table;
    std::vector<std::uint32_t> key_fanins;
    for (NodeId v : circuit.topo_order()) {
        const GateType type = circuit.type(v);
        if (type == GateType::Input) {
            repr[v.v] = v;  // primary inputs are never duplicates
            continue;
        }
        // Canonical key: gate type plus the sorted class representatives
        // of the fanins (every gate here is commutative; sorting is a
        // no-op for Buf/Not). Remapping through repr makes the match
        // transitive: duplicates of duplicates collapse too.
        key_fanins.clear();
        for (NodeId f : circuit.fanins(v))
            key_fanins.push_back(repr[f.v].v);
        std::sort(key_fanins.begin(), key_fanins.end());
        const auto [it, inserted] =
            table.try_emplace({type, key_fanins}, v);
        if (inserted) {
            repr[v.v] = v;
            continue;
        }
        const NodeId original = it->second;
        repr[v.v] = original;
        ++report.duplicate_gates;
        if (!emit(context, report, "duplicate-gate", Severity::Warning,
                  {v, original},
                  "gate '" + std::string(circuit.node_name(v)) +
                      "' computes the same function as '" +
                      std::string(circuit.node_name(original)) +
                      "' (same type, same fanins)",
                  "merge the gates and re-point the fanout of '" +
                      std::string(circuit.node_name(v)) + "' at '" +
                      std::string(circuit.node_name(original)) + "'"))
            return;
    }
}

// ------------------------------------------------------ untestable-fault

void rule_untestable_fault(const RuleContext& context, LintReport& report) {
    if (context.analysis == nullptr) return;
    const Circuit& circuit = context.circuit;
    for (const fault::Fault& f : context.analysis->untestable) {
        if (!emit(context, report, "untestable-fault", Severity::Warning,
                  {f.node},
                  "stuck-at-" + std::string(f.stuck_at1 ? "1" : "0") +
                      " on net '" + std::string(circuit.node_name(f.node)) +
                      "' is structurally untestable (its mandatory "
                      "assignments conflict under static implications)",
                  "exclude it from the coverage denominator; the "
                  "analysis certificate replays the conflict (tpidp "
                  "analyze --json)"))
            return;
    }
}

// -------------------------------------------------- implication-constant

void rule_implication_constant(const RuleContext& context,
                               LintReport& report) {
    if (context.analysis == nullptr) return;
    const Circuit& circuit = context.circuit;
    for (const analysis::Literal& c : context.analysis->learned_constants) {
        if (!emit(context, report, "implication-constant",
                  Severity::Warning, {c.node},
                  "net '" + std::string(circuit.node_name(c.node)) +
                      "' is provably constant " +
                      std::string(c.value ? "1" : "0") +
                      " (assuming the opposite value propagates to a "
                      "contradiction)",
                  "plain ternary propagation cannot see this constant; "
                  "treat the net as tied and review the driving logic"))
            return;
    }
}

// ----------------------------------------------- dominated-observe-point

void rule_dominated_observe_point(const RuleContext& context,
                                  LintReport& report) {
    if (context.observe_pruning == nullptr) return;
    const Circuit& circuit = context.circuit;
    for (NodeId v : circuit.topo_order()) {
        if (!context.observe_pruning->zero_gain[v.v]) continue;
        if (circuit.is_output(v)) continue;  // observing an output is
                                             // trivially redundant
        if (!emit(context, report, "dominated-observe-point",
                  Severity::Info, {v},
                  "an observe point at net '" + std::string(circuit.node_name(v)) +
                      "' is provably zero-gain (COP observability is "
                      "already exactly 1.0 along a transparent path to "
                      "an output)",
                  "planners never place an observe point here (the "
                  "DP drops it as zero-gain); tpidp analyze --json "
                  "carries its transparent-chain certificate"))
            return;
    }
}

}  // namespace

void register_builtin_rules(RuleRegistry& registry) {
    registry.add({"constant-net",
                  "nets proven stuck at a constant by ternary propagation",
                  Severity::Warning, rule_constant_net});
    registry.add({"unobservable-net",
                  "nets with no sensitisable path to any primary output",
                  Severity::Warning, rule_unobservable_net});
    registry.add({"redundant-fault",
                  "stuck-at faults provably undetectable from the "
                  "constant and observability analyses",
                  Severity::Warning, rule_redundant_fault});
    registry.add({"reconvergent-fanout",
                  "fanout stems whose branches meet again (the structure "
                  "that makes TPI NP-complete)",
                  Severity::Info, rule_reconvergent_fanout});
    registry.add({"duplicate-gate",
                  "structurally duplicate gates found by hashing",
                  Severity::Warning, rule_duplicate_gate});
    registry.add({"untestable-fault",
                  "faults whose mandatory assignments conflict under "
                  "static implications",
                  Severity::Warning, rule_untestable_fault});
    registry.add({"implication-constant",
                  "constants learned by failed-assumption implication "
                  "probing",
                  Severity::Warning, rule_implication_constant});
    registry.add({"dominated-observe-point",
                  "observe-point sites provably zero-gain behind a "
                  "transparent dominator chain",
                  Severity::Info, rule_dominated_observe_point});
}

}  // namespace tpi::lint
