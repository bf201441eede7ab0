// tpidp — command-line driver for the library.
//
//   tpidp suite                         list the built-in circuits
//   tpidp stats   <circuit>             structural + testability summary
//   tpidp lint    <circuit> [options]   lint rules over the netlist
//                                       (--json for machine output)
//   tpidp analyze <circuit> [options]   dominator / implication fact
//                                       database with certificates
//   tpidp faultsim <circuit> [options]  pseudo-random fault simulation
//                                       (alias: sim)
//   tpidp tpi     <circuit> [options]   plan + insert test points
//                                       (alias: plan)
//   tpidp atpg    <circuit> [options]   PODEM over the fault universe
//   tpidp bist    <circuit> [options]   signature-based BIST session
//                                       (--width sets the MISR width)
//
// <circuit> is a .bench or .v file path (anything containing '.' or '/') or
// the name of a built-in suite circuit. Run `tpidp --help` for the full
// option list, the strict/lenient validation modes, the deadline budget,
// the observability outputs (--trace, --metrics-json), and the documented
// exit codes.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/prune.hpp"
#include "analysis/report.hpp"
#include "atpg/podem.hpp"
#include "bist/session.hpp"
#include "fault/fault_sim.hpp"
#include "gen/benchmarks.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "netlist/analysis.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/tpb_io.hpp"
#include "netlist/ffr.hpp"
#include "netlist/transform.hpp"
#include "netlist/validate.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "serve/fault_plan.hpp"
#include "serve/listener.hpp"
#include "serve/server.hpp"
#include "testability/cop.hpp"
#include "testability/detect.hpp"
#include "tpi/planners.hpp"
#include "util/deadline.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace tpi;

// Exit codes, documented in --help and stable for scripting:
//   0 success · 1 internal error · 2 usage · 3 parse · 4 validation
//   5 limit/deadline (including truncated best-so-far results)
constexpr int kExitUsage = 2;
constexpr int kExitTruncated = 5;

// ---- SIGINT/SIGTERM -> graceful truncation --------------------------
//
// The handler does two async-signal-safe things: set the sticky flag,
// and cancel() the active run's deadline (one relaxed atomic store).
// Every engine polling that deadline then winds down through its normal
// truncated best-so-far path, the command prints its partial result,
// --metrics-json is still emitted (truncated=true), and the process
// exits 5 — an interrupted run is indistinguishable from a
// deadline-expired one, which is exactly the contract scripts already
// handle. A second interrupt hard-exits for runs stuck outside any
// deadline poll.
std::atomic<util::Deadline*> g_active_deadline{nullptr};
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_interrupt(int /*signum*/) {
    if (g_interrupted != 0) std::_Exit(128 + SIGINT);
    g_interrupted = 1;
    util::Deadline* deadline =
        g_active_deadline.load(std::memory_order_relaxed);
    if (deadline != nullptr) deadline->cancel();
}

void install_interrupt_handlers() {
    std::signal(SIGINT, handle_interrupt);
    std::signal(SIGTERM, handle_interrupt);
}

/// Scoped registration of the run's deadline as the interrupt target.
struct DeadlineRegistration {
    explicit DeadlineRegistration(util::Deadline* deadline) {
        g_active_deadline.store(deadline, std::memory_order_relaxed);
        // A signal that raced ahead of registration must still win.
        if (g_interrupted != 0) deadline->cancel();
    }
    ~DeadlineRegistration() {
        g_active_deadline.store(nullptr, std::memory_order_relaxed);
    }
};

struct Args {
    std::string circuit;
    std::size_t patterns = 32768;
    int budget = 8;
    std::string planner = "dp";
    std::uint64_t seed = 1;
    std::size_t limit = 20000;
    unsigned width = 16;
    unsigned threads = 0;  // 0 = hardware concurrency
    unsigned sim_width = 64;      // faultsim/tpi pattern width (0 = auto)
    std::uint64_t drop_after = 0; // faultsim n-detect drop target (0 = off)
    std::string out;
    netlist::ValidateMode mode = netlist::ValidateMode::Lenient;
    double deadline_ms = 0.0;   // unset = unlimited
    bool deadline_set = false;  // --deadline-ms given (must be > 0)
    bool json = false;         // lint/analyze: machine-readable output
    bool prune_lint = false;   // tpi: lint-based candidate pruning
    bool flow_proxy = false;   // tpi: O(n+e) greedy observe ranking
    std::size_t max_findings = 64;  // lint: per-rule finding cap
    // analyze work caps (validated, not clamped — see AnalysisOptions).
    std::size_t max_implication_nodes = 2048;
    std::size_t max_implication_steps = 200'000;
    std::size_t max_untestable = 4096;
    std::string trace;         // Chrome trace_event JSON output path
    std::string metrics_json;  // run-report JSON output path
};

/// Per-run observability state: one sink shared by every engine the
/// command drives, plus the report skeleton. The sink is only handed out
/// when --trace or --metrics-json asked for it, so a plain run keeps the
/// engines on their null-sink (uninstrumented) path.
struct RunContext {
    obs::Sink sink;
    obs::RunReport report;
    util::Timer timer;
    bool enabled = false;

    obs::Sink* sink_ptr() { return enabled ? &sink : nullptr; }
};

void print_usage(std::ostream& os) {
    os << "usage: tpidp "
          "<suite|stats|convert|lint|analyze|faultsim|tpi|atpg|bist> "
          "[circuit] [options]\n"
          "       tpidp --help\n"
          "       (aliases: plan = tpi, sim = faultsim)\n";
}

void print_help() {
    print_usage(std::cout);
    std::cout <<
        "\n<circuit> is a .bench, .v or .tpb file path (anything"
        " containing '.'\nor '/') or the name of a built-in suite circuit"
        " (see `tpidp suite`).\n"
        "\noptions:\n"
        "  --patterns N      test length                  (default 32768)\n"
        "  --budget K        test point budget            (default 8)\n"
        "  --planner P       dp | greedy | random         (default dp)\n"
        "  --seed S          stimulus seed                (default 1)\n"
        "  --limit B         ATPG backtrack limit         (default 20000)\n"
        "  --width W         MISR width for bist          (default 16)\n"
        "  --threads N       worker threads for faultsim/tpi; results are\n"
        "                    bit-identical for every N; 1 = the serial\n"
        "                    code path    (default: hardware concurrency)\n"
        "  --sim-width W     faultsim/tpi pattern block width in bits:\n"
        "                    64, 128, 256, 512 or 0 = widest this host\n"
        "                    supports; detection results are identical\n"
        "                    at every width               (default 64)\n"
        "  --drop-after N    faultsim: drop a fault once N patterns have\n"
        "                    detected it (n-detect dropping); 0 keeps\n"
        "                    the default drop-at-first-detection\n"
        "  --out FILE        write the DFT netlist; the suffix picks\n"
        "                    the format: .v Verilog, .tpb binary,\n"
        "                    anything else .bench. `tpidp convert` uses\n"
        "                    the same rule for format conversion\n"
        "  --json            lint/analyze: emit the report as JSON\n"
        "  --max-findings N  lint: per-rule finding cap  (default 64)\n"
        "  --max-implication-nodes N\n"
        "                    lint/analyze: nets probed for learned\n"
        "                    constants              (default 2048)\n"
        "  --max-implication-steps N\n"
        "                    lint/analyze: gate examinations per\n"
        "                    implication query      (default 200000)\n"
        "  --max-untestable N\n"
        "                    lint/analyze: faults probed for\n"
        "                    untestability          (default 4096)\n"
        "  --prune-lint      tpi: drop candidates on constant or\n"
        "                    unobservable nets before planning\n"
        "  --flow-proxy      tpi: rank the greedy planner's observe\n"
        "                    candidates with the O(nodes + edges)\n"
        "                    deficit-flow sweep instead of the per-fault\n"
        "                    covering profile (for 100k+-gate circuits;\n"
        "                    survivors are still scored exactly)\n"
        "  --strict          reject structurally broken netlists\n"
        "  --lenient         repair what is safe (tie off dangling nets,\n"
        "                    drop dead logic) and report it   (default)\n"
        "  --deadline-ms T   wall-clock budget, T > 0; engines stop at T\n"
        "                    ms and return their best-so-far result,\n"
        "                    marked \"truncated\"           (default: none)\n"
        "  --trace FILE      write a Chrome trace_event JSON of the run's\n"
        "                    phase spans (chrome://tracing, Perfetto)\n"
        "  --metrics-json FILE\n"
        "                    write the machine-readable run report\n"
        "                    (schema \"tpidp-run-report\" v1: outcome,\n"
        "                    counters, span table); '-' = stdout\n"
        "\nexit codes:\n"
        "  0  success\n"
        "  1  internal error\n"
        "  2  usage error (unknown flag, malformed numeric value)\n"
        "  3  parse error (malformed .bench / .v / .tpb input)\n"
        "  4  validation error (structurally broken netlist, or a\n"
        "     non-positive --deadline-ms)\n"
        "  5  limit or deadline exceeded, or interrupted (SIGINT/\n"
        "     SIGTERM); any partial (truncated) result is still\n"
        "     printed before exiting\n"
        "\nserving:\n"
        "  tpidp serve (--socket PATH | --port N) [serve options]\n"
        "  long-lived planning daemon speaking line-delimited JSON;\n"
        "  see README \"Serving\" for the protocol and `tpidp serve\n"
        "  --help` for its options.\n";
}

[[noreturn]] void usage() {
    print_usage(std::cerr);
    std::exit(kExitUsage);
}

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "tpidp: " << message << "\n";
    usage();
}

/// Checked numeric flag parsing: the whole value must be a number in
/// range (std::stoi-style aborts on `--budget abc` are exit code 2, not
/// an uncaught std::invalid_argument).
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
    T value{};
    const char* begin = text.c_str();
    const char* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end || text.empty())
        usage_error("invalid value '" + text + "' for " + flag);
    return value;
}

Args parse_args(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--patterns")
            args.patterns = parse_number<std::size_t>(arg, next());
        else if (arg == "--budget") {
            args.budget = parse_number<int>(arg, next());
            if (args.budget < 0)
                usage_error("--budget must be non-negative");
        } else if (arg == "--planner")
            args.planner = next();
        else if (arg == "--seed")
            args.seed = parse_number<std::uint64_t>(arg, next());
        else if (arg == "--limit")
            args.limit = parse_number<std::size_t>(arg, next());
        else if (arg == "--width") {
            args.width = parse_number<unsigned>(arg, next());
            if (args.width == 0) usage_error("--width must be positive");
        } else if (arg == "--threads")
            args.threads = parse_number<unsigned>(arg, next());
        else if (arg == "--sim-width") {
            args.sim_width = parse_number<unsigned>(arg, next());
            if (!(args.sim_width == 0 || args.sim_width == 64 ||
                  args.sim_width == 128 || args.sim_width == 256 ||
                  args.sim_width == 512))
                usage_error(
                    "--sim-width must be 0 (auto), 64, 128, 256 or 512");
        } else if (arg == "--drop-after")
            args.drop_after = parse_number<std::uint64_t>(arg, next());
        else if (arg == "--out")
            args.out = next();
        else if (arg == "--json")
            args.json = true;
        else if (arg == "--prune-lint")
            args.prune_lint = true;
        else if (arg == "--flow-proxy")
            args.flow_proxy = true;
        else if (arg == "--max-findings")
            args.max_findings = parse_number<std::size_t>(arg, next());
        else if (arg == "--max-implication-nodes")
            args.max_implication_nodes =
                parse_number<std::size_t>(arg, next());
        else if (arg == "--max-implication-steps")
            args.max_implication_steps =
                parse_number<std::size_t>(arg, next());
        else if (arg == "--max-untestable")
            args.max_untestable = parse_number<std::size_t>(arg, next());
        else if (arg == "--trace")
            args.trace = next();
        else if (arg == "--metrics-json")
            args.metrics_json = next();
        else if (arg == "--strict")
            args.mode = netlist::ValidateMode::Strict;
        else if (arg == "--lenient")
            args.mode = netlist::ValidateMode::Lenient;
        else if (arg == "--deadline-ms") {
            args.deadline_ms = parse_number<double>(arg, next());
            args.deadline_set = true;
        } else if (!arg.empty() && arg[0] == '-')
            usage_error("unknown option '" + arg + "'");
        else if (args.circuit.empty())
            args.circuit = arg;
        else
            usage_error("unexpected argument '" + arg + "'");
    }
    if (args.circuit.empty()) usage_error("missing circuit");
    // A zero or negative budget used to mean "unlimited" here while the
    // serve protocol rejected it — one meaning now, everywhere: a given
    // deadline must be positive (exit 4), absence means unlimited.
    if (args.deadline_set &&
        !(args.deadline_ms > 0.0 && std::isfinite(args.deadline_ms)))
        throw tpi::ValidationError(
            "--deadline-ms must be a positive number of milliseconds "
            "(omit the flag for an unlimited run)");
    return args;
}

/// Build the per-run deadline. Always a real object — an unlimited
/// Deadline when no budget was given — so the SIGINT/SIGTERM handler
/// has something to cancel() on every run.
util::Deadline make_deadline(const Args& args) {
    return args.deadline_set ? util::Deadline(args.deadline_ms)
                             : util::Deadline();
}

void report_diagnostics(const netlist::Diagnostics& diags) {
    if (diags.entries.empty()) return;
    std::cerr << "netlist diagnostics (" << diags.summary() << "):\n";
    for (const auto& d : diags.entries)
        std::cerr << "  [" << netlist::diag_severity_name(d.severity)
                  << "] " << d.check << ": " << d.message << "\n";
}

bool has_suffix(const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

netlist::Circuit load_circuit(const Args& args) {
    const std::string& spec = args.circuit;
    const bool is_file = spec.find('.') != std::string::npos ||
                         spec.find('/') != std::string::npos;
    if (!is_file) return gen::suite_entry(spec).build();

    // Binary netlists skip the repair pipeline: the format re-validates
    // structure on load and was produced from an already-valid circuit.
    if (has_suffix(spec, ".tpb")) return netlist::read_tpb_file(spec);

    netlist::Diagnostics diags;
    netlist::Circuit circuit =
        has_suffix(spec, ".v")
            ? netlist::read_verilog_file(spec, args.mode, &diags)
            : netlist::read_bench_file(spec, args.mode, &diags);
    report_diagnostics(diags);
    return circuit;
}

/// Write `circuit` to `path` in the format the suffix selects
/// (.v -> Verilog, .tpb -> binary, anything else -> .bench).
bool write_circuit_file(const std::string& path,
                        const netlist::Circuit& circuit) {
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    if (has_suffix(path, ".v"))
        netlist::write_verilog(out, circuit);
    else if (has_suffix(path, ".tpb"))
        netlist::write_tpb(out, circuit);
    else
        netlist::write_bench(out, circuit);
    return out.good();
}

/// Report truncation and pick the exit code: a truncated run prints its
/// best-so-far result but exits kExitTruncated so scripts can tell a
/// complete answer from a degraded one.
int note_truncation(bool truncated, const Args& args) {
    if (!truncated) return 0;
    if (g_interrupted != 0)
        std::cout << "note: result truncated (interrupted); "
                     "best-so-far shown\n";
    else
        std::cout << "note: result truncated (deadline "
                  << args.deadline_ms
                  << " ms expired); best-so-far shown\n";
    return kExitTruncated;
}

int cmd_suite() {
    util::TextTable table({"name", "description", "gates", "PIs", "POs"});
    for (const auto& entry : gen::benchmark_suite()) {
        const netlist::Circuit c = entry.build();
        table.add_row({entry.name, entry.description,
                       std::to_string(c.gate_count()),
                       std::to_string(c.input_count()),
                       std::to_string(c.output_count())});
    }
    table.print(std::cout, "built-in circuits");
    // Scale-suite entries are listed by name only: building them here
    // would materialize up to a million gates just to print a row.
    util::TextTable scale({"name", "description"});
    for (const auto& entry : gen::scale_suite())
        scale.add_row({entry.name, entry.description});
    scale.print(std::cout, "scale circuits (built on demand)");
    return 0;
}

int cmd_stats(const Args& args) {
    const netlist::Circuit c = load_circuit(args);
    const netlist::CircuitStats stats = netlist::compute_stats(c);
    const netlist::FfrDecomposition ffr = netlist::decompose_ffr(c);
    const auto faults = fault::collapse_faults(c);
    const auto cop = testability::compute_cop(c);
    const auto p = testability::detection_probabilities(c, faults, cop);

    std::cout << "circuit " << c.name() << "\n"
              << "  nodes " << stats.nodes << "  gates " << stats.gates
              << "  PIs " << stats.inputs << "  POs " << stats.outputs
              << "\n  depth " << stats.depth << "  max fanout "
              << stats.max_fanout << "  stems " << stats.fanout_stems
              << "  FFRs " << ffr.regions.size() << "\n  faults "
              << faults.total_faults << " (" << faults.size()
              << " collapsed)\n"
              << "  estimated coverage @" << args.patterns << ": "
              << util::fmt_percent(testability::estimated_coverage(
                     p, faults.class_size, args.patterns))
              << "%\n  hardest fault detection probability: "
              << testability::min_detection_probability(p) << "\n";
    return 0;
}

int cmd_lint(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    util::Deadline deadline = make_deadline(args);
    const DeadlineRegistration interrupt_target(&deadline);
    lint::LintOptions options;
    options.max_findings_per_rule = args.max_findings;
    options.max_implication_nodes = args.max_implication_nodes;
    options.max_implication_steps = args.max_implication_steps;
    options.max_untestable_faults = args.max_untestable;
    options.deadline = &deadline;
    options.sink = ctx.sink_ptr();
    const lint::LintReport report = lint::run_lint(c, options);
    if (args.json)
        lint::write_json(std::cout, report, c);
    else
        lint::write_text(std::cout, report, c);
    ctx.report.add_num("findings",
                       static_cast<std::uint64_t>(report.findings.size()));
    ctx.report.add_num("errors",
                       static_cast<std::uint64_t>(
                           report.count(lint::Severity::Error)));
    ctx.report.add_num("warnings",
                       static_cast<std::uint64_t>(
                           report.count(lint::Severity::Warning)));
    const bool deadline_hit = deadline.already_expired();
    return note_truncation(report.truncated && deadline_hit, args);
}

int cmd_analyze(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    util::Deadline deadline = make_deadline(args);
    const DeadlineRegistration interrupt_target(&deadline);
    analysis::AnalysisOptions options;
    options.max_implication_nodes = args.max_implication_nodes;
    options.max_implication_steps = args.max_implication_steps;
    options.max_untestable_faults = args.max_untestable;
    options.deadline = &deadline;
    options.sink = ctx.sink_ptr();
    const analysis::AnalysisResult result = analysis::run_analysis(c, options);
    const analysis::ObservePruning pruning = analysis::compute_observe_pruning(
        c, testability::compute_cop(c), args.max_findings);
    if (args.json)
        analysis::write_json(std::cout, result, pruning, c);
    else
        analysis::write_text(std::cout, result, pruning, c);
    ctx.report.add_num(
        "implications_learned",
        static_cast<std::uint64_t>(result.implications_learned));
    ctx.report.add_num(
        "learned_constants",
        static_cast<std::uint64_t>(result.learned_constants.size()));
    ctx.report.add_num(
        "untestable_faults",
        static_cast<std::uint64_t>(result.untestable.size()));
    ctx.report.add_num("zero_gain_observe_sites",
                       static_cast<std::uint64_t>(pruning.count));
    ctx.report.add_num(
        "certificates",
        static_cast<std::uint64_t>(result.certificates.size()));
    // Cap-driven truncation is an ordinary (exit 0) outcome — the caps
    // are defaults, not promises; only a deadline cut is exit 5.
    const bool deadline_hit = deadline.already_expired();
    return note_truncation(result.truncated && deadline_hit, args);
}

int cmd_faultsim(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    util::Deadline deadline = make_deadline(args);
    const DeadlineRegistration interrupt_target(&deadline);
    util::Timer timer;
    const auto faults = fault::collapse_faults(c);
    sim::RandomPatternSource source(args.seed);
    fault::FaultSimOptions options;
    options.max_patterns = args.patterns;
    options.deadline = &deadline;
    options.threads = args.threads;
    options.sink = ctx.sink_ptr();
    options.sim_width = args.sim_width;
    options.drop_after = args.drop_after;
    const auto result =
        fault::run_fault_simulation(c, faults, source, options);
    std::cout << "coverage @" << result.patterns_applied << " patterns: "
              << util::fmt_percent(result.coverage) << "% ("
              << result.undetected << " undetected, "
              << util::fmt_fixed(timer.seconds(), 2) << " s)\n";
    if (args.drop_after > 0)
        std::cout << "  dropped after " << args.drop_after
                  << " detections: " << result.dropped << " of "
                  << faults.size() << " faults\n";
    ctx.report.add_num("coverage", result.coverage);
    ctx.report.add_num(
        "patterns_applied",
        static_cast<std::uint64_t>(result.patterns_applied));
    ctx.report.add_num("undetected",
                       static_cast<std::uint64_t>(result.undetected));
    const int exit_code = note_truncation(result.truncated, args);
    for (double target : {0.9, 0.99, 0.999}) {
        const auto n = result.patterns_to_coverage(target, faults);
        std::cout << "  patterns to " << util::fmt_percent(target, 1)
                  << "%: " << (n < 0 ? "not reached" : std::to_string(n))
                  << "\n";
    }
    return exit_code;
}

int cmd_tpi(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    DpPlanner dp;
    GreedyPlanner greedy;
    RandomPlanner random;
    Planner* planner = nullptr;
    if (args.planner == "dp") planner = &dp;
    if (args.planner == "greedy") planner = &greedy;
    if (args.planner == "random") planner = &random;
    if (planner == nullptr)
        usage_error("unknown planner '" + args.planner + "'");

    util::Deadline deadline = make_deadline(args);
    const DeadlineRegistration interrupt_target(&deadline);
    PlannerOptions options;
    options.budget = args.budget;
    options.objective.num_patterns = args.patterns;
    options.seed = args.seed;
    options.deadline = &deadline;
    options.threads = args.threads;
    options.prune_via_lint = args.prune_lint;
    options.greedy_flow_proxy = args.flow_proxy;
    options.sink = ctx.sink_ptr();

    util::Timer timer;
    const Plan plan = planner->plan(c, options);
    if (args.prune_lint)
        std::cout << "lint pruning: " << plan.candidates_pruned
                  << " candidate nets dropped, "
                  << plan.candidates_considered << " admitted\n";
    std::cout << plan.points.size() << " test points ("
              << util::fmt_fixed(timer.seconds(), 2) << " s):\n";
    for (const auto& tp : plan.points)
        std::cout << "  " << netlist::tp_kind_name(tp.kind) << " @ "
                  << c.node_name(tp.node) << "\n";
    int exit_code = note_truncation(plan.truncated, args);

    // Validation runs under the same deadline (and SIGINT) as planning;
    // a cut-short simulation reports the patterns it got through.
    const auto dft = netlist::apply_test_points(c, plan.points);
    const auto before = fault::random_pattern_coverage(
        c, args.patterns, args.seed, false, &deadline, args.threads,
        ctx.sink_ptr(), args.sim_width);
    const auto after = fault::random_pattern_coverage(
        dft.circuit, args.patterns, args.seed, false, &deadline,
        args.threads, ctx.sink_ptr(), args.sim_width);
    const bool partial = before.truncated || after.truncated;
    std::cout << "coverage: " << util::fmt_percent(before.coverage)
              << "% -> " << util::fmt_percent(after.coverage) << "%"
              << (partial ? " (partial: validation stopped early)" : "")
              << "\n";
    if (exit_code == 0) exit_code = note_truncation(partial, args);
    ctx.report.add_str("planner", args.planner);
    ctx.report.add_num("points",
                       static_cast<std::uint64_t>(plan.points.size()));
    ctx.report.add_num("predicted_score", plan.predicted_score);
    ctx.report.add_num("coverage_before", before.coverage);
    ctx.report.add_num("coverage_after", after.coverage);

    if (!args.out.empty()) {
        if (!write_circuit_file(args.out, dft.circuit)) return 1;
        std::cout << "wrote " << args.out << "\n";
    }
    return exit_code;
}

int cmd_atpg(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    const auto faults = fault::collapse_faults(c);
    util::Deadline deadline = make_deadline(args);
    const DeadlineRegistration interrupt_target(&deadline);
    atpg::AtpgOptions options;
    options.backtrack_limit = args.limit;
    options.deadline = &deadline;
    options.sink = ctx.sink_ptr();
    util::Timer timer;
    const auto summary = atpg::run_atpg(c, faults, options);
    std::cout << faults.size() << " collapsed faults: "
              << summary.detected << " detected, " << summary.redundant
              << " redundant, " << summary.aborted << " aborted";
    if (summary.skipped > 0)
        std::cout << ", " << summary.skipped << " skipped";
    std::cout << " (" << util::fmt_fixed(timer.seconds(), 2) << " s)\n";
    ctx.report.add_num("detected",
                       static_cast<std::uint64_t>(summary.detected));
    ctx.report.add_num("redundant",
                       static_cast<std::uint64_t>(summary.redundant));
    ctx.report.add_num("aborted",
                       static_cast<std::uint64_t>(summary.aborted));
    ctx.report.add_num("skipped",
                       static_cast<std::uint64_t>(summary.skipped));
    const int exit_code = note_truncation(summary.truncated, args);
    // Cube statistics.
    std::size_t specified = 0;
    std::size_t bits = 0;
    for (const auto& cube : summary.cubes) {
        bits += cube.inputs.size();
        for (auto v : cube.inputs) specified += v >= 0 ? 1 : 0;
    }
    if (bits > 0)
        std::cout << "average cube density: "
                  << util::fmt_percent(static_cast<double>(specified) /
                                       static_cast<double>(bits))
                  << "% specified bits\n";
    return exit_code;
}

int cmd_bist(const Args& args, RunContext& ctx) {
    const netlist::Circuit c = load_circuit(args);
    const auto faults = fault::collapse_faults(c);
    sim::RandomPatternSource source(args.seed);
    bist::SessionOptions options;
    options.patterns = args.patterns;
    options.misr_width = args.width;
    util::Timer timer;
    const auto result = bist::run_session(c, faults, source, options);
    std::cout << "golden signature 0x" << std::hex
              << result.golden_signature << std::dec << " (MISR width "
              << args.width << ", " << args.patterns << " patterns, "
              << util::fmt_fixed(timer.seconds(), 2) << " s)\n"
              << "strobe-detected faults: " << result.strobe_detected
              << "\naliased in signature:   " << result.aliased << " ("
              << util::fmt_percent(result.aliasing_rate())
              << "%)\nsignature coverage:     "
              << util::fmt_percent(result.signature_coverage(faults))
              << "%\n";
    ctx.report.add_num(
        "strobe_detected",
        static_cast<std::uint64_t>(result.strobe_detected));
    ctx.report.add_num("aliased",
                       static_cast<std::uint64_t>(result.aliased));
    ctx.report.add_num("signature_coverage",
                       result.signature_coverage(faults));
    return 0;
}

/// Copy the shared thread pool's scheduling diagnostics into the sink.
/// These are process-lifetime totals and inherently thread-dependent, so
/// they live in the report's "diag" section.
void snapshot_pool_stats(obs::Sink& sink) {
    const util::ThreadPool::Stats stats =
        util::ThreadPool::shared().stats();
    sink.add(obs::Counter::PoolBatches, stats.batches);
    sink.add(obs::Counter::PoolTasks, stats.tasks);
    sink.add(obs::Counter::PoolSteals, stats.steals);
}

/// Emit --trace / --metrics-json after the command has run (including
/// truncated and error paths, so a metrics consumer always gets a
/// parseable document whose exit_code/truncated fields tell the story).
void emit_observability(const Args& args, const std::string& command,
                        RunContext& ctx, int exit_code) {
    if (!ctx.enabled) return;
    // A one-thread run never starts the shared pool, and reading its
    // stats would: after a std::bad_alloc there may be no address space
    // left for the helper threads' stacks.
    if (util::ThreadPool::resolve(args.threads) > 1)
        snapshot_pool_stats(ctx.sink);
    ctx.report.command = command;
    // Basename only: the report must not vary with where the checkout
    // lives (the golden-file tests diff it byte-for-byte).
    const std::size_t slash = args.circuit.find_last_of('/');
    ctx.report.circuit = slash == std::string::npos
                             ? args.circuit
                             : args.circuit.substr(slash + 1);
    ctx.report.threads = util::ThreadPool::resolve(args.threads);
    ctx.report.exit_code = exit_code;
    ctx.report.truncated = exit_code == kExitTruncated;
    ctx.report.wall_ms = ctx.timer.seconds() * 1000.0;

    const auto write_to = [](const std::string& path, auto&& writer) {
        if (path.empty()) return;
        if (path == "-") {
            writer(std::cout);
            return;
        }
        std::ofstream out(path);
        if (!out.good()) {
            std::cerr << "cannot write " << path << "\n";
            return;
        }
        writer(out);
    };
    write_to(args.metrics_json, [&](std::ostream& os) {
        obs::write_metrics_json(os, ctx.report, &ctx.sink);
    });
    write_to(args.trace, [&](std::ostream& os) {
        obs::write_trace_json(os, ctx.sink);
    });
}

// ---- tpidp serve ----------------------------------------------------

struct ServeArgs {
    std::string socket;
    int port = -1;  // -1 = unset; 0 = let the kernel pick (printed)
    unsigned workers = 0;
    std::size_t max_queue = 64;
    std::size_t max_sessions = 8;
    std::size_t max_resident_nodes = 1u << 20;
    std::size_t max_line_bytes = 1u << 20;
    double default_deadline_ms = 0.0;
    double max_deadline_ms = 10'000.0;
    double idle_timeout_ms = 30'000.0;
    std::vector<std::string> faults;
    std::string metrics_json;
};

void print_serve_help() {
    std::cout <<
        "usage: tpidp serve (--socket PATH | --port N) [options]\n"
        "\nLong-lived planning daemon: line-delimited JSON requests, one\n"
        "response line per request line. Methods: ping, info, open,\n"
        "close, stats, plan, sim, lint, score. SIGINT/SIGTERM drains\n"
        "gracefully: admitted requests finish, new ones are refused\n"
        "with code \"draining\".\n"
        "\noptions:\n"
        "  --socket PATH     listen on a Unix-domain socket\n"
        "  --port N          listen on 127.0.0.1:N (0 = kernel-picked,\n"
        "                    printed on startup)\n"
        "  --workers N       worker lanes per dispatch batch\n"
        "                    (default: hardware concurrency)\n"
        "  --max-queue N     admission queue bound; beyond it requests\n"
        "                    are shed with code \"overloaded\" and a\n"
        "                    retry_after_ms hint        (default 64)\n"
        "  --max-sessions N  session cache LRU bound    (default 8)\n"
        "  --max-resident-nodes N\n"
        "                    total cached circuit nodes (default 2^20)\n"
        "  --max-line-bytes N\n"
        "                    request line cap; longer lines get one\n"
        "                    protocol error, then the connection is\n"
        "                    closed                     (default 2^20)\n"
        "  --default-deadline-ms T\n"
        "                    per-request budget when the request sets\n"
        "                    none; 0 = unlimited        (default 0)\n"
        "  --max-deadline-ms T\n"
        "                    hard cap on any request's budget; 0 = no\n"
        "                    cap                        (default 10000)\n"
        "  --idle-timeout-ms T\n"
        "                    close connections with no complete request\n"
        "                    line for T ms (slow-loris guard); 0 = never\n"
        "                    (default 30000)\n"
        "  --fault SPEC      deterministic fault injection for chaos\n"
        "                    tests: <site>:<kind>[:<param>][:every=<N>],\n"
        "                    sites open|plan|sim|lint|score|stats|write,\n"
        "                    kinds delay|alloc|deadline|torn; repeatable\n"
        "  --metrics-json FILE\n"
        "                    write a run report summarising the daemon\n"
        "                    on shutdown; '-' = stdout\n";
}

ServeArgs parse_serve_args(int argc, char** argv, int first) {
    ServeArgs args;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            print_serve_help();
            std::exit(0);
        } else if (arg == "--socket")
            args.socket = next();
        else if (arg == "--port")
            args.port = parse_number<std::uint16_t>(arg, next());
        else if (arg == "--workers")
            args.workers = parse_number<unsigned>(arg, next());
        else if (arg == "--max-queue") {
            args.max_queue = parse_number<std::size_t>(arg, next());
            if (args.max_queue == 0)
                usage_error("--max-queue must be positive");
        } else if (arg == "--max-sessions") {
            args.max_sessions = parse_number<std::size_t>(arg, next());
            if (args.max_sessions == 0)
                usage_error("--max-sessions must be positive");
        } else if (arg == "--max-resident-nodes") {
            args.max_resident_nodes =
                parse_number<std::size_t>(arg, next());
            if (args.max_resident_nodes == 0)
                usage_error("--max-resident-nodes must be positive");
        } else if (arg == "--max-line-bytes") {
            args.max_line_bytes = parse_number<std::size_t>(arg, next());
            if (args.max_line_bytes < 2)
                usage_error("--max-line-bytes must be at least 2");
        } else if (arg == "--default-deadline-ms")
            args.default_deadline_ms = parse_number<double>(arg, next());
        else if (arg == "--max-deadline-ms")
            args.max_deadline_ms = parse_number<double>(arg, next());
        else if (arg == "--idle-timeout-ms")
            args.idle_timeout_ms = parse_number<double>(arg, next());
        else if (arg == "--fault")
            args.faults.push_back(next());
        else if (arg == "--metrics-json")
            args.metrics_json = next();
        else
            usage_error("unknown serve option '" + arg + "'");
    }
    if (args.socket.empty() == (args.port < 0))
        usage_error(
            "serve requires exactly one of --socket PATH or --port N");
    if (args.default_deadline_ms < 0 || args.max_deadline_ms < 0 ||
        args.idle_timeout_ms < 0)
        throw tpi::ValidationError(
            "serve time budgets must be non-negative milliseconds");
    return args;
}

int cmd_serve(int argc, char** argv) {
    const ServeArgs args = parse_serve_args(argc, argv, 2);

    serve::FaultPlan faults;
    for (const std::string& spec : args.faults) faults.add_rule(spec);

    serve::ServerOptions options;
    options.session_limits.max_sessions = args.max_sessions;
    options.session_limits.max_resident_nodes = args.max_resident_nodes;
    options.max_queue = args.max_queue;
    options.workers = args.workers;
    options.default_deadline_ms = args.default_deadline_ms;
    options.max_deadline_ms = args.max_deadline_ms;
    options.faults = faults.empty() ? nullptr : &faults;
    serve::Server server(options);

    serve::ListenerOptions listener_options;
    listener_options.endpoint.unix_path = args.socket;
    listener_options.endpoint.tcp = args.socket.empty();
    listener_options.endpoint.tcp_port =
        args.port > 0 ? static_cast<std::uint16_t>(args.port) : 0;
    listener_options.max_line_bytes = args.max_line_bytes;
    listener_options.idle_timeout_ms = args.idle_timeout_ms;
    serve::Listener listener(server, listener_options);
    listener.start();

    // Readiness line (tests and wrappers watch for it), then park the
    // main thread until SIGINT/SIGTERM asks for a graceful drain.
    if (!args.socket.empty())
        std::cout << "serving on unix:" << args.socket << "\n";
    else
        std::cout << "serving on tcp:127.0.0.1:" << listener.port()
                  << "\n";
    std::cout.flush();
    util::Timer uptime;
    while (g_interrupted == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    listener.shutdown();
    const serve::ServerStats stats = server.stats();
    const serve::SessionCache::Stats cache = server.sessions().stats();
    std::cout << "drained: " << stats.completed << " completed, "
              << stats.shed_overload << " shed (overload), "
              << stats.shed_draining << " shed (draining), "
              << stats.request_errors << " errors, " << cache.evictions
              << " evictions\n";

    if (!args.metrics_json.empty()) {
        obs::RunReport report;
        report.command = "serve";
        report.threads = util::ThreadPool::resolve(args.workers);
        report.exit_code = 0;
        report.wall_ms = uptime.seconds() * 1000.0;
        report.add_num("accepted", stats.accepted);
        report.add_num("completed", stats.completed);
        report.add_num("shed_overload", stats.shed_overload);
        report.add_num("shed_draining", stats.shed_draining);
        report.add_num("request_errors", stats.request_errors);
        report.add_num("connections", listener.connections_accepted());
        report.add_num("sessions", cache.sessions);
        report.add_num("evictions", cache.evictions);
        report.add_num("faults_fired",
                       static_cast<std::uint64_t>(faults.fired()));
        if (args.metrics_json == "-") {
            obs::write_metrics_json(std::cout, report, nullptr);
        } else {
            std::ofstream out(args.metrics_json);
            if (!out.good()) {
                std::cerr << "cannot write " << args.metrics_json << "\n";
                return 1;
            }
            obs::write_metrics_json(out, report, nullptr);
        }
    }
    return 0;
}

int cmd_convert(const Args& args) {
    if (args.out.empty())
        usage_error("convert requires --out FILE");
    const netlist::Circuit c = load_circuit(args);
    if (!write_circuit_file(args.out, c)) return 1;
    std::cout << "wrote " << args.out << " (" << c.node_count()
              << " nodes, " << c.gate_count() << " gates)\n";
    return 0;
}

/// Dispatch one subcommand. `command` is already canonicalised
/// (plan -> tpi, sim -> faultsim).
int run_command(const std::string& command, const Args& args,
                RunContext& ctx) {
    if (command == "stats") return cmd_stats(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "lint") return cmd_lint(args, ctx);
    if (command == "analyze") return cmd_analyze(args, ctx);
    if (command == "faultsim") return cmd_faultsim(args, ctx);
    if (command == "tpi") return cmd_tpi(args, ctx);
    if (command == "atpg") return cmd_atpg(args, ctx);
    if (command == "bist") return cmd_bist(args, ctx);
    usage_error("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        print_help();
        return 0;
    }
    if (command == "plan") command = "tpi";
    if (command == "sim") command = "faultsim";
    install_interrupt_handlers();
    try {
        if (command == "suite") return cmd_suite();
        if (command == "serve") return cmd_serve(argc, argv);
        const Args args = parse_args(argc, argv, 2);
        RunContext ctx;
        ctx.enabled = !args.trace.empty() || !args.metrics_json.empty();
        int exit_code;
        try {
            exit_code = run_command(command, args, ctx);
        } catch (const tpi::Error& e) {
            std::cerr << "error: " << e.what() << "\n";
            exit_code = static_cast<int>(e.code());
        } catch (const std::exception& e) {
            // std::bad_alloc included: the engines' allocations are
            // released by the unwind, so the run report still goes out.
            std::cerr << "internal error: " << e.what() << "\n";
            exit_code = 1;
        }
        // An interrupted run exits 5 even when the engine finished its
        // wind-down cleanly; the metrics report then carries
        // truncated=true like any other cut-short run.
        if (g_interrupted != 0 && exit_code == 0)
            exit_code = kExitTruncated;
        emit_observability(args, command, ctx, exit_code);
        return exit_code;
    } catch (const tpi::Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return static_cast<int>(e.code());
    } catch (const std::exception& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 1;
    }
}
