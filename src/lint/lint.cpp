#include "lint/lint.hpp"

#include <algorithm>
#include <optional>

#include "testability/cop.hpp"
#include "util/error.hpp"

namespace tpi::lint {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

std::string_view severity_name(Severity severity) {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

std::size_t LintReport::count(Severity severity) const {
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [severity](const Finding& f) {
                          return f.severity == severity;
                      }));
}

std::size_t LintReport::count_rule(std::string_view rule) const {
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [rule](const Finding& f) { return f.rule == rule; }));
}

RuleRegistry& RuleRegistry::global() {
    static RuleRegistry registry = [] {
        RuleRegistry seeded;
        register_builtin_rules(seeded);
        return seeded;
    }();
    return registry;
}

void RuleRegistry::add(LintRule rule) {
    require(!rule.id.empty(), "RuleRegistry: empty rule id");
    require(static_cast<bool>(rule.run),
            "RuleRegistry: rule '" + rule.id + "' has no run function");
    require(find(rule.id) == nullptr,
            "RuleRegistry: duplicate rule id '" + rule.id + "'");
    rules_.push_back(std::move(rule));
}

const LintRule* RuleRegistry::find(std::string_view id) const {
    for (const LintRule& rule : rules_)
        if (rule.id == id) return &rule;
    return nullptr;
}

void validate_lint_options(const LintOptions& options) {
    if (options.max_findings_per_rule == 0)
        throw ValidationError(
            "lint options: max_findings_per_rule must be positive (a "
            "zero cap would truncate every rule before its first "
            "finding)");
    if (options.max_reconvergence_work == 0)
        throw ValidationError(
            "lint options: max_reconvergence_work must be positive (a "
            "zero budget cannot sweep any stem)");
    if (options.max_implication_steps == 0)
        throw ValidationError(
            "lint options: max_implication_steps must be positive (a "
            "zero budget cannot run any implication query)");
}

LintReport run_lint(const Circuit& circuit, const LintOptions& options,
                    const RuleRegistry& registry) {
    validate_lint_options(options);
    // Select before analysing so unknown rule ids fail fast.
    std::vector<const LintRule*> selected;
    if (options.rules.empty()) {
        for (const LintRule& rule : registry.rules())
            selected.push_back(&rule);
    } else {
        for (const std::string& id : options.rules) {
            const LintRule* rule = registry.find(id);
            require(rule != nullptr, "run_lint: unknown rule '" + id + "'");
            selected.push_back(rule);
        }
    }
    const auto wants = [&](std::string_view id) {
        return std::any_of(selected.begin(), selected.end(),
                           [id](const LintRule* rule) {
                               return rule->id == id;
                           });
    };

    obs::Sink* sink = options.sink;
    obs::Span run_span(sink, "lint/run");

    LintReport report;
    {
        obs::Span analyse_span(sink, "lint/analyse");
        report.ternary = analysis::propagate_constants(circuit);
        report.observable =
            analysis::observable_mask(circuit, report.ternary);
    }
    // The static-analysis facts are computed only when a selected rule
    // consumes them — they cost implication probing over the whole
    // fault universe, which the five structural rules never need.
    std::optional<analysis::AnalysisResult> facts;
    if (wants("untestable-fault") || wants("implication-constant")) {
        analysis::AnalysisOptions aopts;
        aopts.max_implication_nodes = options.max_implication_nodes;
        aopts.max_implication_steps = options.max_implication_steps;
        aopts.max_untestable_faults = options.max_untestable_faults;
        aopts.deadline = options.deadline;
        aopts.sink = sink;
        facts = analysis::run_analysis(circuit, aopts);
        if (facts->truncated) report.truncated = true;
    }
    std::optional<analysis::ObservePruning> observe;
    if (wants("dominated-observe-point")) {
        const testability::CopResult cop = testability::compute_cop(circuit);
        observe = analysis::compute_observe_pruning(
            circuit, cop, options.max_findings_per_rule);
    }
    const netlist::FfrDecomposition ffr = netlist::decompose_ffr(circuit);
    const RuleContext context{circuit,
                              report.ternary,
                              report.observable,
                              ffr,
                              options,
                              facts ? &*facts : nullptr,
                              observe ? &*observe : nullptr};

    for (const LintRule* rule : selected) {
        if (options.deadline != nullptr && options.deadline->expired_now()) {
            report.truncated = true;
            break;
        }
        obs::Span rule_span(sink, "lint/rule/" + rule->id);
        rule->run(context, report);
        obs::add(sink, obs::Counter::LintRulesRun);
    }
    obs::add(sink, obs::Counter::LintFindings, report.findings.size());
    if (report.truncated) obs::add(sink, obs::Counter::DeadlineExpiries);
    return report;
}

LintReport run_lint(const Circuit& circuit, const LintOptions& options) {
    return run_lint(circuit, options, RuleRegistry::global());
}

namespace detail {

std::vector<fault::Fault> derive_redundant_faults(
    const Circuit& circuit, std::span<const analysis::Ternary> value,
    const std::vector<bool>& observable) {
    std::vector<fault::Fault> redundant;
    for (NodeId v : circuit.all_nodes()) {
        const analysis::Ternary t = value[v.v];
        const GateType type = circuit.type(v);
        if (analysis::is_defined(t)) {
            // Stuck at the value the net always carries: never excited.
            // The matching tie-cell faults are already outside the fault
            // universe (all_faults drops them), so skip those.
            const bool trivial =
                (type == GateType::Const0 && t == analysis::Ternary::Zero) ||
                (type == GateType::Const1 && t == analysis::Ternary::One);
            if (!trivial)
                redundant.push_back({v, analysis::ternary_bool(t)});
            // s-a-(¬t) is NOT claimed: forcing a constant net to the
            // opposite value is not an information refinement, so the
            // blocking constants of the observability proof need not
            // survive in the faulty circuit (see DESIGN.md §10).
        } else if (!observable[v.v]) {
            // Unobservable and unconstant: the faulty circuit refines
            // the X at v, every blocking constant persists, and no
            // difference crosses a blocked edge — both polarities are
            // undetectable.
            redundant.push_back({v, false});
            redundant.push_back({v, true});
        }
    }
    return redundant;
}

}  // namespace detail

Pruning compute_pruning(const Circuit& circuit) {
    Pruning pruning;
    const std::vector<analysis::Ternary> value =
        analysis::propagate_constants(circuit);
    const std::vector<bool> observable =
        analysis::observable_mask(circuit, value);
    pruning.drop_candidate.assign(circuit.node_count(), false);
    for (NodeId v : circuit.all_nodes()) {
        if (analysis::is_defined(value[v.v]) || !observable[v.v]) {
            pruning.drop_candidate[v.v] = true;
            ++pruning.dropped;
        }
    }
    pruning.redundant_faults =
        detail::derive_redundant_faults(circuit, value, observable);
    return pruning;
}

}  // namespace tpi::lint
