// Table 11 — the lint engine, lint-driven planner pruning and the
// observe DP's zero-gain rule.
//
// Series: run_lint vs circuit size (all rules over random reconvergent
// DAGs; expected near-linear — every analysis is one or two passes over
// the netlist, the reconvergence sweep is work-capped), per-rule cost on
// a fixed 2048-gate DAG, compute_pruning vs size (the planner-facing
// subset without finding construction), and the payoff series: DP and
// greedy planning over circuits with planted tied-off dead logic, with
// pruning off (arg 0) vs on (arg 1). Counters report the candidate-set
// shrinkage (`pruned` / `considered`) and the achieved predicted score,
// so the score impact of pruning sits right next to the wall-time
// saving: near-neutral (within a fraction of a percent — the unpruned
// planner can spend late-budget points resurrecting dead cones, which
// pruning forgoes by design) against a >2x planning speedup on the DP.
//
// The static-analysis series (run_analysis vs size, and the observe-only
// DP over an XOR-heavy circuit, where the zero-gain rule drops most
// members) has a second entry point: invoked as
// `bench_t11_lint <out.json> [repeats]` it skips the google-benchmark
// tables and writes the machine-readable tpidp-bench-t11 report that
// ci/check_perf.py compares with results/BENCH_11.json: the plans and
// bitwise scores must match the recorded rows, and the deterministic
// work counters must not rise above them.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "gen/random_circuits.hpp"
#include "lint/lint.hpp"
#include "netlist/circuit.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "tpi/planners.hpp"

namespace {

using namespace tpi;
using netlist::GateType;
using netlist::NodeId;

netlist::Circuit make_dag(std::size_t gates) {
    gen::RandomDagOptions options;
    options.gates = gates;
    options.inputs = std::max<std::size_t>(16, gates / 16);
    options.window = 64;
    options.seed = 7;
    return gen::random_dag(options);
}

/// A random DAG with `cones` planted dead cones: each cone is an XOR of
/// two existing nets ANDed with a shared tie-0 (so the XOR output is
/// unobservable and the AND output constant), merged into a fresh
/// primary output through an OR that preserves the original function.
/// This is the dead/tied-off logic shape the lint pruning targets.
netlist::Circuit make_planted(std::size_t gates, std::size_t cones) {
    netlist::Circuit circuit = make_dag(gates);
    const std::vector<NodeId> nodes = circuit.all_nodes();
    const NodeId tie = circuit.add_const(false, "tie");
    NodeId merged = circuit.outputs().front();
    for (std::size_t i = 0; i < cones; ++i) {
        const NodeId a = nodes[(i * 37 + 11) % nodes.size()];
        const NodeId b = nodes[(i * 101 + 3) % nodes.size()];
        const NodeId u = circuit.add_gate(GateType::Xor, {a, b},
                                          "dead_u" + std::to_string(i));
        const NodeId d = circuit.add_gate(GateType::And, {u, tie},
                                          "dead_k" + std::to_string(i));
        merged = circuit.add_gate(GateType::Or, {merged, d});
    }
    circuit.mark_output(merged);
    return circuit;
}

void BM_LintVsSize(benchmark::State& state) {
    const netlist::Circuit circuit =
        make_dag(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(lint::run_lint(circuit));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LintVsSize)
    ->RangeMultiplier(2)
    ->Range(128, 8192)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_LintSingleRule(benchmark::State& state) {
    const netlist::Circuit circuit = make_dag(2048);
    const auto& rules = lint::RuleRegistry::global().rules();
    const std::string rule = rules[state.range(0)].id;
    lint::LintOptions options;
    options.rules = {rule};
    for (auto _ : state) {
        benchmark::DoNotOptimize(lint::run_lint(circuit, options));
    }
    state.SetLabel(rule);
}
BENCHMARK(BM_LintSingleRule)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_LintPhases(benchmark::State& state) {
    // Per-phase and per-rule cost read back from the run report's span
    // table ("lint/analyse" is the shared ternary + observability
    // sweep, "lint/rule/<id>" is each rule's own pass) instead of the
    // earlier one-rule-at-a-time timing — one lint run now yields the
    // whole breakdown, measured exactly as `tpidp lint --metrics-json`
    // reports it. Work counters (rules run, findings) sit alongside.
    const netlist::Circuit circuit = make_dag(2048);
    std::map<std::string, double> phase_ms;
    double rules_run = 0.0;
    double findings = 0.0;
    for (auto _ : state) {
        obs::Sink sink;
        lint::LintOptions options;
        options.sink = &sink;
        benchmark::DoNotOptimize(lint::run_lint(circuit, options));
        state.PauseTiming();
        for (const obs::SpanAggregate& row : obs::aggregate_spans(sink))
            phase_ms[row.name] += row.total_ms;
        rules_run +=
            static_cast<double>(sink.value(obs::Counter::LintRulesRun));
        findings +=
            static_cast<double>(sink.value(obs::Counter::LintFindings));
        state.ResumeTiming();
    }
    const double iters = static_cast<double>(state.iterations());
    for (const auto& [name, total] : phase_ms)
        state.counters["ms:" + name] = total / iters;
    state.counters["rules"] = rules_run / iters;
    state.counters["findings"] = findings / iters;
}
BENCHMARK(BM_LintPhases)->Unit(benchmark::kMicrosecond);

void BM_ComputePruningVsSize(benchmark::State& state) {
    const netlist::Circuit circuit =
        make_planted(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(0)) / 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lint::compute_pruning(circuit));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputePruningVsSize)
    ->RangeMultiplier(2)
    ->Range(128, 8192)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_DpPlannerLintPruning(benchmark::State& state) {
    const netlist::Circuit circuit = make_planted(2048, 64);
    DpPlanner planner;
    PlannerOptions options;
    options.budget = 8;
    options.prune_via_lint = state.range(0) != 0;
    Plan plan;
    for (auto _ : state) {
        plan = planner.plan(circuit, options);
        benchmark::DoNotOptimize(plan);
    }
    state.counters["considered"] =
        static_cast<double>(plan.candidates_considered);
    state.counters["pruned"] = static_cast<double>(plan.candidates_pruned);
    state.counters["score"] = plan.predicted_score;
}
BENCHMARK(BM_DpPlannerLintPruning)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyPlannerLintPruning(benchmark::State& state) {
    const netlist::Circuit circuit = make_planted(512, 16);
    GreedyPlanner planner;
    PlannerOptions options;
    options.budget = 4;
    options.prune_via_lint = state.range(0) != 0;
    Plan plan;
    for (auto _ : state) {
        plan = planner.plan(circuit, options);
        benchmark::DoNotOptimize(plan);
    }
    state.counters["considered"] =
        static_cast<double>(plan.candidates_considered);
    state.counters["pruned"] = static_cast<double>(plan.candidates_pruned);
    state.counters["score"] = plan.predicted_score;
}
BENCHMARK(BM_GreedyPlannerLintPruning)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// An XOR-heavy reconvergent DAG: parity chains have COP sensitisation
/// factor exactly 1.0 at every gate entry, so a large share of nets is
/// fully transparent (obs == 1.0 bitwise) — the shape the analysis
/// prune targets. The AND/OR minority keeps enough opaque logic that
/// the planners still place points.
netlist::Circuit make_transparent(std::size_t gates) {
    gen::RandomDagOptions options;
    options.gates = gates;
    options.inputs = std::max<std::size_t>(16, gates / 16);
    options.xor_fraction = 0.8;
    options.unary_fraction = 0.05;
    options.window = 64;
    options.seed = 7;
    return gen::random_dag(options);
}

void BM_RunAnalysisVsSize(benchmark::State& state) {
    const netlist::Circuit circuit =
        make_dag(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::run_analysis(circuit));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RunAnalysisVsSize)
    ->RangeMultiplier(2)
    ->Range(128, 2048)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

/// Observe-only planning settings of the t11 series: 64 patterns
/// keep enough faults random-pattern hard that the planners place
/// points on the XOR-heavy circuit.
PlannerOptions observe_only(int budget) {
    PlannerOptions options;
    options.budget = budget;
    options.objective.num_patterns = 64;
    options.control_kinds.clear();
    return options;
}

void BM_DpPlannerZeroGainRule(benchmark::State& state) {
    const netlist::Circuit circuit = make_transparent(2048);
    DpPlanner planner;
    PlannerOptions options = observe_only(8);
    obs::Sink sink;
    options.sink = &sink;
    Plan plan;
    for (auto _ : state) {
        plan = planner.plan(circuit, options);
        benchmark::DoNotOptimize(plan);
    }
    const double iters = static_cast<double>(state.iterations());
    state.counters["pruned"] = static_cast<double>(sink.value(
                                   obs::Counter::CandidatesPrunedAnalysis)) /
                               iters;
    state.counters["cells"] =
        static_cast<double>(sink.value(obs::Counter::DpCellsFilled)) / iters;
    state.counters["score"] = plan.predicted_score;
}
BENCHMARK(BM_DpPlannerZeroGainRule)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The tpidp-bench-t11 gate report (ci/check_perf.py)
// ---------------------------------------------------------------------

struct GateRow {
    std::string planner;
    int budget = 0;
    std::string points;  ///< "KIND@net ..." in plan order
    double predicted_score = 0.0;
    std::uint64_t dp_cells_filled = 0;
    std::uint64_t dp_regions_built = 0;
    std::uint64_t candidates_pruned_analysis = 0;
    std::uint64_t greedy_evaluations = 0;
    double wall_ms = 0.0;  ///< best of the repeats; information only
};

GateRow run_gate(tpi::Planner& planner, const netlist::Circuit& circuit,
                 int budget, int repeats) {
    GateRow row;
    row.planner = std::string(planner.name());
    row.budget = budget;
    row.wall_ms = 1e300;
    for (int i = 0; i < std::max(1, repeats); ++i) {
        // A fresh sink per run: the counters are deterministic, so the
        // last run's totals are every run's.
        obs::Sink sink;
        PlannerOptions options = observe_only(budget);
        options.sink = &sink;
        const auto t0 = std::chrono::steady_clock::now();
        const Plan plan = planner.plan(circuit, options);
        const auto t1 = std::chrono::steady_clock::now();
        row.wall_ms = std::min(
            row.wall_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        row.points.clear();
        for (const netlist::TestPoint& tp : plan.points) {
            if (!row.points.empty()) row.points += ' ';
            row.points += netlist::tp_kind_name(tp.kind);
            row.points += '@';
            row.points += circuit.node_name(tp.node);
        }
        row.predicted_score = plan.predicted_score;
        row.dp_cells_filled = sink.value(obs::Counter::DpCellsFilled);
        row.dp_regions_built = sink.value(obs::Counter::DpRegionsBuilt);
        row.candidates_pruned_analysis =
            sink.value(obs::Counter::CandidatesPrunedAnalysis);
        row.greedy_evaluations =
            sink.value(obs::Counter::GreedyEvaluations);
    }
    return row;
}

std::string fmt(const char* format, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

int run_gate_report(const std::string& out_path, int repeats) {
    const std::size_t gates = 2048;
    const netlist::Circuit circuit = make_transparent(gates);
    DpPlanner dp;
    GreedyPlanner greedy;
    std::vector<GateRow> rows;
    rows.push_back(run_gate(dp, circuit, 8, repeats));
    rows.push_back(run_gate(greedy, circuit, 4, repeats));
    for (const GateRow& r : rows)
        std::cerr << "bench_t11: " << r.planner << " " << fmt("%.1f", r.wall_ms)
                  << " ms, " << r.dp_cells_filled << " cells, "
                  << r.candidates_pruned_analysis << " zero-gain members, "
                  << r.greedy_evaluations << " evaluations, plan \""
                  << r.points << "\"\n";
    std::ostringstream json;
    json << "{\n  \"schema\": \"tpidp-bench-t11\",\n  \"version\": 2,\n"
         << "  \"circuit\": \"xor-dag\",\n  \"gates\": " << gates
         << ",\n  \"patterns\": 64,\n  \"planners\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const GateRow& r = rows[i];
        json << "    {\"name\": \"" << r.planner << "\", \"budget\": "
             << r.budget << ", \"points\": \"" << r.points
             << "\", \"predicted_score\": \""
             << fmt("%a", r.predicted_score)
             << "\", \"dp_cells_filled\": " << r.dp_cells_filled
             << ", \"dp_regions_built\": " << r.dp_regions_built
             << ", \"candidates_pruned_analysis\": "
             << r.candidates_pruned_analysis
             << ", \"greedy_evaluations\": " << r.greedy_evaluations
             << ", \"wall_ms\": " << fmt("%.4f", r.wall_ms) << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "bench_t11: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str();
    std::cerr << "bench_t11: wrote " << out_path << "\n";
    return 0;
}

}  // namespace

// Dual entry point: `bench_t11_lint <out.json> [repeats]` writes the
// check_perf.py gate report; any other invocation runs the
// google-benchmark tables as before.
int main(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]).ends_with(".json")) {
        const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
        return run_gate_report(argv[1], repeats);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
