#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/prune.hpp"
#include "analysis/ternary.hpp"
#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "netlist/ffr.hpp"
#include "obs/obs.hpp"
#include "util/deadline.hpp"

namespace tpi::lint {

/// Grading of a lint finding. Lint severities are advisory (nothing here
/// stops a flow); the netlist *validator* owns the hard structural
/// contract.
enum class Severity : std::uint8_t {
    Info,     ///< structural fact worth knowing (e.g. reconvergence)
    Warning,  ///< wasted logic or wasted test budget
    Error,    ///< provably broken intent (reserved for future rules)
};

std::string_view severity_name(Severity severity);
inline constexpr int kSeverityCount = 3;

/// One finding of one rule: the implicated nodes (ids and names resolve
/// against the linted circuit), a human-readable message, and a fix hint.
struct Finding {
    std::string rule;        ///< stable rule id, e.g. "constant-net"
    Severity severity = Severity::Info;
    std::vector<netlist::NodeId> nodes;
    std::vector<std::string> node_names;  ///< parallel to `nodes`
    std::string message;
    std::string fix_hint;
};

/// A reconvergent fanout stem: two or more of its branches meet again at
/// `reconvergence` — the structure that breaks the fanout-free tree
/// property and makes general TPI NP-complete.
struct ReconvergentStem {
    netlist::NodeId stem = netlist::kNullNode;
    netlist::NodeId reconvergence = netlist::kNullNode;
    int depth = 0;     ///< level(reconvergence) - level(stem)
    int branches = 0;  ///< fanout branches participating
};

/// Everything one lint run produced: the graded findings plus the raw
/// per-node analysis artifacts that downstream consumers (planner
/// pruning, tests, reporters) reuse directly.
struct LintReport {
    std::vector<Finding> findings;

    /// Ternary constant propagation result, one value per node; defined
    /// entries are proven constants.
    std::vector<analysis::Ternary> ternary;

    /// Structural observability under constant blocking; false entries
    /// provably cannot influence any primary output.
    std::vector<bool> observable;

    /// Faults proven undetectable (see DESIGN.md §10 for the soundness
    /// argument); each is PODEM-redundant on the same circuit.
    std::vector<fault::Fault> redundant_faults;

    /// Reconvergent stems in topological order of the stem. The stem of
    /// entry i is the root of its fanout-free region, so `depth` keyed
    /// by stem is the per-FFR reconvergence depth.
    std::vector<ReconvergentStem> reconvergent_stems;

    /// Nodes structurally identical to an earlier node (same gate type,
    /// same canonicalised fanins, transitively).
    std::size_t duplicate_gates = 0;

    /// True when a per-rule finding cap or the deadline cut the run
    /// short; the artifacts above are still complete for the rules that
    /// ran to completion.
    bool truncated = false;

    std::size_t count(Severity severity) const;
    std::size_t count_rule(std::string_view rule) const;
};

struct LintOptions {
    /// Rule ids to run; empty means every registered rule. Unknown ids
    /// throw tpi::Error.
    std::vector<std::string> rules;

    /// Cap on findings emitted per rule (the analysis itself always
    /// completes); hitting it sets LintReport::truncated.
    std::size_t max_findings_per_rule = 64;

    /// Work cap for the per-stem reconvergence sweep, in node visits;
    /// hitting it sets LintReport::truncated.
    std::size_t max_reconvergence_work = 4'000'000;

    /// Caps forwarded to the static-analysis engine when a rule that
    /// consumes its facts (untestable-fault, implication-constant,
    /// dominated-observe-point) is selected — see AnalysisOptions for
    /// the semantics of each.
    std::size_t max_implication_nodes = 2048;
    std::size_t max_implication_steps = 200'000;
    std::size_t max_untestable_faults = 4096;

    /// Optional cooperative resource budget (not owned), checked between
    /// rules and inside the heavier sweeps. On expiry the report is
    /// returned truncated with every completed rule's findings intact.
    util::Deadline* deadline = nullptr;

    /// Optional observability sink (not owned). run_lint opens a
    /// "lint/run" span, a "lint/analyse" span for the shared analyses,
    /// and one "lint/rule/<id>" span per executed rule, and counts
    /// LintRulesRun / LintFindings. Null (the default) disables all
    /// instrumentation.
    obs::Sink* sink = nullptr;
};

/// Read-only context handed to every rule: the circuit plus the shared
/// analyses computed once per run. The two analysis pointers are
/// populated only when a selected rule consumes them (null otherwise);
/// rules that need them must tolerate null for embedders running them
/// through a custom registry.
struct RuleContext {
    const netlist::Circuit& circuit;
    const std::vector<analysis::Ternary>& ternary;
    const std::vector<bool>& observable;
    const netlist::FfrDecomposition& ffr;
    const LintOptions& options;
    const analysis::AnalysisResult* analysis = nullptr;
    const analysis::ObservePruning* observe_pruning = nullptr;
};

/// A registered rule. `run` appends findings (respecting the per-rule
/// cap via RuleSink) and may fill the report's artifact vectors.
struct LintRule {
    std::string id;
    std::string description;
    Severity severity = Severity::Info;
    std::function<void(const RuleContext&, LintReport&)> run;
};

/// Registry of lint rules, seeded with the built-in rules on first use.
/// Additional rules can be added at runtime (ids must be unique).
class RuleRegistry {
public:
    /// The process-wide registry (built-ins pre-registered).
    static RuleRegistry& global();

    /// An empty registry (no built-ins) — for tests and embedders.
    RuleRegistry() = default;

    void add(LintRule rule);
    const LintRule* find(std::string_view id) const;
    const std::vector<LintRule>& rules() const { return rules_; }

private:
    std::vector<LintRule> rules_;
};

/// Register the built-in rules (constant-net, unobservable-net,
/// redundant-fault, reconvergent-fanout, duplicate-gate,
/// untestable-fault, implication-constant, dominated-observe-point)
/// into `registry`.
void register_builtin_rules(RuleRegistry& registry);

/// Validate the option ranges and work caps; throws tpi::ValidationError
/// (CLI exit 4) for unusable values. Called by run_lint, and by the CLI
/// before building a report, so misconfiguration fails loudly instead
/// of being silently clamped.
void validate_lint_options(const LintOptions& options);

/// Run the selected rules of `registry` over `circuit`.
LintReport run_lint(const netlist::Circuit& circuit,
                    const LintOptions& options, const RuleRegistry& registry);

/// Run the selected rules of the global registry.
LintReport run_lint(const netlist::Circuit& circuit,
                    const LintOptions& options = {});

/// The lint facts planners consume, computed without building findings
/// (cheaper than a full run_lint; same analyses).
struct Pruning {
    /// Candidate nets to drop: proven constant or proven unable to
    /// influence any primary output.
    std::vector<bool> drop_candidate;

    /// Faults proven undetectable; planners zero-weight their classes in
    /// the internal optimisation universe.
    std::vector<fault::Fault> redundant_faults;

    /// Number of true entries in drop_candidate.
    std::size_t dropped = 0;
};

Pruning compute_pruning(const netlist::Circuit& circuit);

namespace detail {

/// Shared by the redundant-fault rule and compute_pruning: the faults
/// provably undetectable given the ternary constants and the blocked
/// observability mask. Sound (every returned fault is PODEM-redundant);
/// incomplete by design.
std::vector<fault::Fault> derive_redundant_faults(
    const netlist::Circuit& circuit, std::span<const analysis::Ternary> value,
    const std::vector<bool>& observable);

}  // namespace detail

}  // namespace tpi::lint
