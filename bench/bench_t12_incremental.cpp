// Table 12 — the incremental evaluation engine (delta-COP candidate
// scoring) against the from-scratch evaluate_plan oracle.
//
// Per circuit, over a fixed random candidate set, timed over repeated
// runs (best of R, to shed scheduler noise): score_candidate vs
// evaluate_plan, with the engine's touched-node counters alongside —
// the O(touched cone) vs O(circuit) story in numbers. Every engine
// score is compared bitwise against the oracle's.
//
// The planners score only through the engine, so there is no
// engine-off planner run to time; their end-to-end cost is held by the
// absolute dp-default and serve-warm medians of perfbench/.
//
// Unlike the google-benchmark tables, this harness has a custom main:
// it writes the machine-readable BENCH_5.json consumed by
// ci/check_perf.py (the perf-smoke CI gate: per-candidate speedup
// >= 3x on the largest circuit, scores bitwise identical everywhere).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gen/benchmarks.hpp"
#include "obs/obs.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/evaluate.hpp"
#include "util/rng.hpp"

namespace {

using namespace tpi;
using netlist::Circuit;
using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Best-of-R wall time of `fn` in milliseconds.
template <typename Fn>
double best_of(int repeats, Fn&& fn) {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = now_ms();
        fn();
        best = std::min(best, now_ms() - t0);
    }
    return best;
}

struct CandidateRow {
    bool scores_identical = false;
    double oracle_us = 0.0;
    double engine_us = 0.0;
    double speedup = 0.0;
    double avg_nodes_touched = 0.0;
    double touched_fraction = 0.0;
};

struct CircuitRow {
    std::string name;
    std::size_t nodes = 0;
    CandidateRow candidate;
};

CandidateRow run_candidates(const Circuit& circuit, int repeats) {
    CandidateRow row;
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);
    Objective objective;
    objective.num_patterns = 4096;

    constexpr TpKind kKinds[] = {TpKind::Observe, TpKind::ControlAnd,
                                TpKind::ControlOr, TpKind::ControlXor};
    std::vector<TestPoint> candidates;
    util::Rng rng(99);
    for (int i = 0; i < 64; ++i) {
        const NodeId node{
            static_cast<std::uint32_t>(rng.below(circuit.node_count()))};
        candidates.push_back({node, kKinds[rng.below(4)]});
    }

    std::vector<double> oracle(candidates.size());
    const double oracle_ms = best_of(repeats, [&] {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            oracle[i] =
                evaluate_plan(circuit, faults, {{candidates[i]}}, objective)
                    .score;
    });

    obs::Sink sink;
    EvalEngine engine(circuit, faults, objective, &sink);
    std::vector<double> scores(candidates.size());
    const double engine_ms = best_of(repeats, [&] {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            scores[i] = engine.score_candidate(candidates[i]);
    });
    row.scores_identical = scores == oracle;

    const double evals = static_cast<double>(
        sink.value(obs::Counter::EngineEvaluations));
    row.oracle_us = oracle_ms * 1000.0 / candidates.size();
    row.engine_us = engine_ms * 1000.0 / candidates.size();
    row.speedup = row.oracle_us / row.engine_us;
    row.avg_nodes_touched =
        evals > 0.0
            ? static_cast<double>(
                  sink.value(obs::Counter::EngineNodesTouched)) /
                  evals
            : 0.0;
    row.touched_fraction =
        row.avg_nodes_touched / static_cast<double>(circuit.node_count());
    return row;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : "results/BENCH_5.json";
    const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;

    // dag2000 is the largest suite circuit — the acceptance gate.
    const std::vector<std::string> names = {"cmp32", "dag500", "dag2000"};
    std::vector<CircuitRow> rows;
    bool all_identical = true;
    for (const std::string& name : names) {
        const Circuit circuit = gen::suite_entry(name).build();
        CircuitRow row;
        row.name = name;
        row.nodes = circuit.node_count();
        std::cerr << "bench_t12: " << name << " (" << row.nodes
                  << " nodes)\n";
        row.candidate = run_candidates(circuit, repeats);
        std::cerr << "  cand   " << fmt(row.candidate.oracle_us)
                  << " us -> " << fmt(row.candidate.engine_us) << " us ("
                  << fmt(row.candidate.speedup) << "x), avg touched "
                  << fmt(row.candidate.avg_nodes_touched) << " nodes ("
                  << fmt(100.0 * row.candidate.touched_fraction)
                  << "% of circuit), scores "
                  << (row.candidate.scores_identical ? "identical"
                                                     : "DIVERGED")
                  << "\n";
        all_identical = all_identical && row.candidate.scores_identical;
        rows.push_back(row);
    }

    std::ostringstream json;
    json << "{\n  \"schema\": \"tpidp-bench-t12\",\n  \"version\": 2,\n"
         << "  \"largest\": \"" << names.back() << "\",\n"
         << "  \"circuits\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CircuitRow& r = rows[i];
        json << "    {\n      \"name\": \"" << r.name << "\",\n"
             << "      \"nodes\": " << r.nodes << ",\n"
             << "      \"candidate\": {\"scores_identical\": "
             << json_bool(r.candidate.scores_identical)
             << ", \"oracle_us\": " << fmt(r.candidate.oracle_us)
             << ", \"engine_us\": " << fmt(r.candidate.engine_us)
             << ", \"speedup\": " << fmt(r.candidate.speedup)
             << ", \"avg_nodes_touched\": "
             << fmt(r.candidate.avg_nodes_touched)
             << ", \"touched_fraction\": "
             << fmt(r.candidate.touched_fraction) << "}\n    }"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "bench_t12: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str();
    std::cerr << "bench_t12: wrote " << out_path << "\n";

    if (!all_identical) {
        std::cerr << "bench_t12: FAIL — engine scores diverged from the "
                     "evaluate_plan oracle\n";
        return 1;
    }
    return 0;
}
