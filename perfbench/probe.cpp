// perfbench_probe: the benchmark's in-process helper. It links the
// repository's libraries and does what the CLI and the daemon cannot show
// from outside: recompute results from scratch for the correctness checks,
// confirm fault detections with an evaluator of its own, and time calls
// into each module for the traced (per-layer) run.
//
//   probe nodes  <suite-circuit>
//       gate node names, one per line (the nets score requests draw from)
//   probe oracle <circuit.tpb> --points P --patterns N --seed S
//                --sample K --claims-out FILE
//       from-scratch score of plan P (evaluate_plan), the validation fault
//       simulation of the circuit with P applied, and a seeded sample of
//       K detected and K undetected faults written as claims
//   probe verify <circuit.tpb> [--points P] --seed S --patterns N
//                --blocks B --claims FILE
//       checks every claim with the probe's own good/faulty evaluator;
//       exit 1 on the first claim that does not hold
//   probe plan   <suite-circuit> --planner P --budget B --patterns N
//       the in-process plan for those options and the empty-plan score
//   probe dp-rss <circuit.tpb>
//       peak resident set (VmHWM) of loading the circuit and running the
//       default DP planner
//   probe layers --home <dp|serve> --dir D --seconds T --seed S
//                --dp-circuits C --read-circuits C --facts-circuits C
//                --requests FILE
//       every per-layer timing and counter, as one JSON object. The home
//       group of layers repeats for T seconds, the other runs once.
//       dp: FFR, collapse, COP, region DP, knapsack and validation on
//       --dp-circuits; serve: testability engines, planners and the serve
//       pipeline on sessions dag2000 and cmp32 with the requests in FILE.
//       Then, once: .tpb read on --read-circuits, analysis and lint on
//       --facts-circuits (circuits are D/<name>.tpb)
//
// A plan P is written "KIND@net,KIND@net,..." with KIND one of OP,
// CP-AND, CP-OR, CP-XOR. A claim line is "<net> <0|1> <pattern>": the
// stuck-at fault on <net> is first detected by <pattern>, or, for
// pattern -1, by none of the sampled pattern blocks.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/benchmarks.hpp"
#include "lint/lint.hpp"
#include "netlist/ffr.hpp"
#include "netlist/tpb_io.hpp"
#include "netlist/transform.hpp"
#include "obs/obs.hpp"
#include "serve/listener.hpp"
#include "serve/server.hpp"
#include "sim/pattern.hpp"
#include "sim/simd.hpp"
#include "testability/cop.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace tpi;
using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

[[noreturn]] void fail(const std::string& message) {
    throw std::runtime_error(message);
}

// ---- small utilities --------------------------------------------------

struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    Args(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                if (i + 1 >= argc) fail("missing value for " + arg);
                flags[arg.substr(2)] = argv[++i];
            } else {
                positional.push_back(arg);
            }
        }
    }
    std::string str(const std::string& key, const std::string& def) const {
        const auto it = flags.find(key);
        return it == flags.end() ? def : it->second;
    }
    std::string need(const std::string& key) const {
        const auto it = flags.find(key);
        if (it == flags.end()) fail("missing --" + key);
        return it->second;
    }
    std::uint64_t num(const std::string& key) const {
        const std::string text = need(key);
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(text.data(), text.data() + text.size(), value);
        if (ec != std::errc{} || ptr != text.data() + text.size())
            fail("--" + key + " needs a whole number, got '" + text + "'");
        return value;
    }
    const std::string& arg(std::size_t i) const {
        if (i >= positional.size()) fail("missing argument");
        return positional[i];
    }
};

std::string fmt(double value) {
    char buffer[64];
    const auto [ptr, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return ec == std::errc{} ? std::string(buffer, ptr) : "0";
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set of this process so far.
double vm_hwm_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    fail("no VmHWM in /proc/self/status");
}

/// Sum of the closed, non-detail spans called `name`, in milliseconds.
double span_ms(const obs::Sink& sink, std::string_view name) {
    double us = 0.0;
    for (const obs::SpanRecord& span : sink.spans())
        if (!span.detail && span.name == name) us += span.dur_us;
    return us / 1000.0;
}

TpKind kind_from_name(const std::string& name) {
    for (int k = 0; k < netlist::kTpKindCount; ++k)
        if (netlist::tp_kind_name(static_cast<TpKind>(k)) == name)
            return static_cast<TpKind>(k);
    fail("unknown test point kind '" + name + "'");
}

NodeId node_named(const Circuit& c, const std::string& name) {
    const NodeId v = c.find(name);
    if (!v.valid()) fail("no net named '" + name + "'");
    return v;
}

std::vector<TestPoint> parse_points(const Circuit& c,
                                    const std::string& spec) {
    std::vector<TestPoint> points;
    std::stringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty()) continue;
        const std::size_t at = item.find('@');
        if (at == std::string::npos) fail("bad test point '" + item + "'");
        points.push_back({node_named(c, item.substr(at + 1)),
                          kind_from_name(item.substr(0, at))});
    }
    return points;
}

/// "a,b,c" as {"a", "b", "c"}.
std::vector<std::string> split_list(const std::string& spec) {
    std::vector<std::string> items;
    std::stringstream in(spec);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty()) items.push_back(item);
    return items;
}

std::vector<NodeId> gate_nodes(const Circuit& c) {
    std::vector<NodeId> gates;
    for (NodeId v : c.all_nodes())
        if (!netlist::is_source(c.type(v))) gates.push_back(v);
    return gates;
}

/// `count` seeded test points on distinct gate nets, the shape of a
/// serve `score` request.
std::vector<TestPoint> seeded_points(const std::vector<NodeId>& gates,
                                     std::size_t count, util::Rng& rng) {
    std::set<std::uint32_t> used;
    std::vector<TestPoint> points;
    while (points.size() < count) {
        const NodeId v = gates[rng.next() % gates.size()];
        if (!used.insert(v.v).second) continue;
        points.push_back(
            {v, static_cast<TpKind>(rng.next() % netlist::kTpKindCount)});
    }
    return points;
}

// ---- the probe's own good/faulty evaluator ----------------------------

/// Evaluates a circuit on 64 patterns at once, with at most one net
/// forced to a constant (a stuck-at fault). Written from the gate
/// definitions alone; it shares no code with the fault simulator it
/// checks.
class Evaluator {
public:
    explicit Evaluator(const Circuit& c) : c_(c), input_slot_(c.node_count()) {
        for (std::size_t i = 0; i < c.inputs().size(); ++i)
            input_slot_[c.inputs()[i].v] = i;
        good_.resize(c.node_count());
        bad_.resize(c.node_count());
    }

    /// Bit j set: pattern j of the block tells the faulty circuit apart
    /// from the good one at some primary output.
    std::uint64_t detect(const std::vector<std::uint64_t>& pi, NodeId site,
                         bool stuck_at1) {
        run(pi, good_, netlist::kNullNode, false);
        run(pi, bad_, site, stuck_at1);
        std::uint64_t diff = 0;
        for (NodeId o : c_.outputs()) diff |= good_[o.v] ^ bad_[o.v];
        return diff;
    }

private:
    void run(const std::vector<std::uint64_t>& pi,
             std::vector<std::uint64_t>& value, NodeId site,
             bool stuck_at1) {
        for (NodeId v : c_.topo_order()) {
            std::uint64_t out = 0;
            const auto in = c_.fanins(v);
            switch (c_.type(v)) {
                case GateType::Input: out = pi[input_slot_[v.v]]; break;
                case GateType::Const0: out = 0; break;
                case GateType::Const1: out = ~0ULL; break;
                case GateType::Buf: out = value[in[0].v]; break;
                case GateType::Not: out = ~value[in[0].v]; break;
                case GateType::And:
                case GateType::Nand:
                    out = ~0ULL;
                    for (NodeId u : in) out &= value[u.v];
                    if (c_.type(v) == GateType::Nand) out = ~out;
                    break;
                case GateType::Or:
                case GateType::Nor:
                    out = 0;
                    for (NodeId u : in) out |= value[u.v];
                    if (c_.type(v) == GateType::Nor) out = ~out;
                    break;
                case GateType::Xor:
                case GateType::Xnor:
                    out = 0;
                    for (NodeId u : in) out ^= value[u.v];
                    if (c_.type(v) == GateType::Xnor) out = ~out;
                    break;
            }
            if (v == site) out = stuck_at1 ? ~0ULL : 0;
            value[v.v] = out;
        }
    }

    const Circuit& c_;
    std::vector<std::size_t> input_slot_;
    std::vector<std::uint64_t> good_;
    std::vector<std::uint64_t> bad_;
};

/// Primary-input words of the requested 64-pattern blocks of the seeded
/// random stimulus, the sequence the CLI's validation simulation applies.
std::map<std::size_t, std::vector<std::uint64_t>> pattern_blocks(
    const Circuit& c, std::uint64_t seed, const std::set<std::size_t>& want) {
    std::map<std::size_t, std::vector<std::uint64_t>> blocks;
    if (want.empty()) return blocks;
    sim::RandomPatternSource source(seed);
    std::vector<std::uint64_t> words(c.input_count());
    for (std::size_t b = 0; b <= *want.rbegin(); ++b) {
        source.next_block(words);
        if (want.count(b) != 0) blocks[b] = words;
    }
    return blocks;
}

struct Claim {
    std::string net;
    bool stuck_at1 = false;
    std::int64_t pattern = -1;
};

std::vector<Claim> read_claims(const std::string& path) {
    std::ifstream in(path);
    if (!in.good()) fail("cannot read " + path);
    std::vector<Claim> claims;
    Claim claim;
    int sa = 0;
    while (in >> claim.net >> sa >> claim.pattern) {
        claim.stuck_at1 = sa != 0;
        claims.push_back(claim);
    }
    return claims;
}

// ---- subcommands ------------------------------------------------------

int cmd_nodes(const Args& args) {
    const Circuit c = gen::suite_entry(args.arg(0)).build();
    for (NodeId v : gate_nodes(c)) std::cout << c.node_name(v) << "\n";
    return 0;
}

int cmd_oracle(const Args& args) {
    const Circuit c = netlist::read_tpb_file(args.arg(0));
    const std::vector<TestPoint> points = parse_points(c, args.str("points", ""));
    const std::size_t patterns = args.num("patterns");
    const std::uint64_t seed = args.num("seed");
    const std::size_t sample = args.num("sample");

    Objective objective;
    objective.num_patterns = patterns;
    const double score = evaluate_plan(c, fault::singleton_faults(c),
                                       points, objective)
                             .score;

    const netlist::TransformResult dft = netlist::apply_test_points(c, points);
    const fault::FaultSimResult sim =
        fault::random_pattern_coverage(dft.circuit, patterns, seed);
    const fault::CollapsedFaults faults = fault::collapse_faults(dft.circuit);
    std::uint64_t detected = 0;
    std::vector<std::size_t> hit, miss;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (sim.detect_pattern[i] >= 0) {
            detected += faults.class_size[i];
            hit.push_back(i);
        } else {
            miss.push_back(i);
        }
    }

    util::Rng rng(seed ^ 0x5eedc1a1ULL);
    std::ofstream out(args.need("claims-out"));
    for (std::vector<std::size_t>* pool : {&hit, &miss}) {
        for (std::size_t k = 0; k < sample && !pool->empty(); ++k) {
            const std::size_t pick = rng.next() % pool->size();
            const std::size_t i = (*pool)[pick];
            pool->erase(pool->begin() + static_cast<std::ptrdiff_t>(pick));
            const fault::Fault& f = faults.representatives[i];
            out << dft.circuit.node_name(f.node) << ' '
                << (f.stuck_at1 ? 1 : 0) << ' ' << sim.detect_pattern[i]
                << '\n';
        }
    }
    if (!out.good()) fail("cannot write claims");

    std::cout << "{\"score\": " << fmt(score)
              << ", \"coverage\": " << fmt(sim.coverage)
              << ", \"faults_detected\": " << detected
              << ", \"faults_total\": " << faults.total_faults
              << ", \"patterns_applied\": " << sim.patterns_applied << "}\n";
    return 0;
}

int cmd_verify(const Args& args) {
    const Circuit original = netlist::read_tpb_file(args.arg(0));
    const std::vector<TestPoint> points =
        parse_points(original, args.str("points", ""));
    const netlist::TransformResult dft =
        netlist::apply_test_points(original, points);
    const Circuit& c = dft.circuit;
    const std::uint64_t seed = args.num("seed");
    const std::size_t total_blocks = (args.num("patterns") + 63) / 64;
    const std::size_t sample_blocks =
        std::min<std::size_t>(args.num("blocks"), total_blocks);
    const std::vector<Claim> claims = read_claims(args.need("claims"));
    if (total_blocks == 0) fail("no patterns to verify against");

    // The undetected claims are checked on one seeded sample of blocks.
    util::Rng rng(seed ^ 0xb10cULL);
    std::set<std::size_t> sampled;
    while (sampled.size() < sample_blocks)
        sampled.insert(rng.next() % total_blocks);
    std::set<std::size_t> want = sampled;
    for (const Claim& claim : claims) {
        if (claim.pattern < -1) fail("bad pattern index in claim");
        if (claim.pattern >= 0)
            want.insert(static_cast<std::size_t>(claim.pattern) / 64);
    }
    const auto blocks = pattern_blocks(c, seed, want);

    Evaluator eval(c);
    for (const Claim& claim : claims) {
        const NodeId site = node_named(c, claim.net);
        const std::string name =
            claim.net + (claim.stuck_at1 ? "/sa1" : "/sa0");
        if (claim.pattern >= 0) {
            const auto p = static_cast<std::size_t>(claim.pattern);
            const std::uint64_t diff =
                eval.detect(blocks.at(p / 64), site, claim.stuck_at1);
            const std::uint64_t bit = 1ULL << (p % 64);
            if ((diff & bit) == 0) {
                std::cerr << "claim failed: pattern " << p
                          << " does not detect " << name << "\n";
                return 1;
            }
            if ((diff & (bit - 1)) != 0) {
                std::cerr << "claim failed: " << name
                          << " is detected before pattern " << p << "\n";
                return 1;
            }
        } else {
            for (const std::size_t b : sampled) {
                if (eval.detect(blocks.at(b), site, claim.stuck_at1) != 0) {
                    std::cerr << "claim failed: " << name
                              << " is detected in pattern block " << b
                              << "\n";
                    return 1;
                }
            }
        }
    }
    std::cout << "verified " << claims.size() << " claims\n";
    return 0;
}

Plan run_planner(const std::string& planner, const Circuit& c,
                 PlannerOptions options) {
    DpPlanner dp;
    GreedyPlanner greedy;
    if (planner == "dp") return dp.plan(c, options);
    if (planner == "greedy") return greedy.plan(c, options);
    fail("unknown planner '" + planner + "'");
}

int cmd_plan(const Args& args) {
    const Circuit c = gen::suite_entry(args.arg(0)).build();
    PlannerOptions options;
    options.budget = static_cast<int>(args.num("budget"));
    options.objective.num_patterns = args.num("patterns");
    options.threads = 1;
    const Plan plan = run_planner(args.need("planner"), c, options);
    const double empty =
        evaluate_plan(c, fault::singleton_faults(c), {}, options.objective)
            .score;
    std::cout << "{\"points\": [";
    for (std::size_t i = 0; i < plan.points.size(); ++i)
        std::cout << (i ? ", " : "") << "\""
                  << netlist::tp_kind_name(plan.points[i].kind) << "@"
                  << c.node_name(plan.points[i].node) << "\"";
    std::cout << "], \"predicted_score\": " << fmt(plan.predicted_score)
              << ", \"empty_score\": " << fmt(empty) << "}\n";
    return 0;
}

int cmd_dp_rss(const Args& args) {
    const Circuit c = netlist::read_tpb_file(args.arg(0));
    PlannerOptions options;
    options.threads = 1;
    DpPlanner dp;
    (void)dp.plan(c, options);
    std::cout << "{\"vmhwm_mb\": " << fmt(vm_hwm_mb()) << "}\n";
    return 0;
}

// ---- per-layer measurements -------------------------------------------

/// Metrics of one traced run, printed as {"name": value, ...}.
using Metrics = std::map<std::string, double>;

void print_metrics(const Metrics& m) {
    std::cout << "{";
    for (auto it = m.begin(); it != m.end(); ++it)
        std::cout << (it == m.begin() ? "" : ", ") << "\"" << it->first
                  << "\": " << fmt(it->second);
    std::cout << "}\n";
}

/// Time `fn` in milliseconds.
double time_ms(const std::function<void()>& fn) {
    util::Timer timer;
    fn();
    return timer.millis();
}

/// Repeat `rep` until `seconds` have passed (at least once).
void repeat_for(double seconds, const std::function<void()>& rep) {
    util::Timer timer;
    do rep();
    while (timer.seconds() < seconds);
}

std::vector<Circuit> load_all(const std::string& dir,
                              const std::vector<std::string>& names) {
    std::vector<Circuit> circuits;
    for (const std::string& name : names) {
        circuits.push_back(netlist::read_tpb_file(dir + "/" + name + ".tpb"));
        circuits.back().freeze();
    }
    return circuits;
}

void layers_dp(const Args& args, double seconds, Metrics& m) {
    const std::vector<Circuit> circuits =
        load_all(args.need("dir"), split_list(args.need("dp-circuits")));
    const std::uint64_t seed = args.num("seed");
    std::vector<double> ffr, collapse, cop, region_dp, knapsack, validate;
    std::uint64_t cells = 0, regions = 0, simulated = 0;
    repeat_for(seconds, [&] {
        double t_ffr = 0, t_collapse = 0, t_cop = 0, t_region = 0,
               t_knap = 0, t_validate = 0;
        cells = regions = simulated = 0;
        for (const Circuit& c : circuits) {
            t_ffr += time_ms([&] { (void)netlist::decompose_ffr(c); });
            t_collapse += time_ms([&] { (void)fault::collapse_faults(c); });
            t_cop += time_ms([&] { (void)testability::compute_cop(c); });

            obs::Sink plan_sink;
            PlannerOptions options;
            options.threads = 1;
            options.seed = seed;
            options.sink = &plan_sink;
            DpPlanner dp;
            const Plan plan = dp.plan(c, options);
            t_region += span_ms(plan_sink, "plan/region-dp");
            t_knap += span_ms(plan_sink, "plan/knapsack");
            cells += plan_sink.value(obs::Counter::DpCellsFilled);
            regions += plan_sink.value(obs::Counter::DpRegionsBuilt);

            // The two validation simulations of `tpidp tpi`.
            obs::Sink sim_sink;
            t_validate += time_ms([&] {
                const auto dft = netlist::apply_test_points(c, plan.points);
                (void)fault::random_pattern_coverage(
                    c, options.objective.num_patterns, seed, false, nullptr,
                    1, &sim_sink);
                (void)fault::random_pattern_coverage(
                    dft.circuit, options.objective.num_patterns, seed, false,
                    nullptr, 1, &sim_sink);
            });
            simulated += sim_sink.value(obs::Counter::FaultsSimulated);
        }
        ffr.push_back(t_ffr);
        collapse.push_back(t_collapse);
        cop.push_back(t_cop);
        region_dp.push_back(t_region);
        knapsack.push_back(t_knap);
        validate.push_back(t_validate);
    });
    m.insert_or_assign("netlist.ffr_ms", median(ffr));
    m.insert_or_assign("fault.collapse_ms", median(collapse));
    m.insert_or_assign("fault.validate_ms", median(validate));
    m.insert_or_assign("fault.faults_simulated", static_cast<double>(simulated));
    m.insert_or_assign("fault.faults_per_s",
          static_cast<double>(simulated) / (median(validate) / 1000.0));
    m.insert_or_assign("testability.cop_ms", median(cop));
    m.insert_or_assign("tpi.region_dp_ms", median(region_dp));
    m.insert_or_assign("tpi.knapsack_ms", median(knapsack));
    m.insert_or_assign("tpi.dp_cells_filled", static_cast<double>(cells));
    m.insert_or_assign("tpi.dp_regions_built", static_cast<double>(regions));
}

/// One repetition: the circuits are read one at a time, and only those
/// in --facts-circuits are kept for analysis and lint.
void layers_facts(const Args& args, Metrics& m) {
    const std::string dir = args.need("dir");
    const std::vector<std::string> analyzed =
        split_list(args.need("facts-circuits"));
    double read = 0, bytes = 0, nodes = 0;
    std::vector<Circuit> circuits;
    for (const std::string& name : split_list(args.need("read-circuits"))) {
        Circuit c;
        read += time_ms([&] {
            c = netlist::read_tpb_file(dir + "/" + name + ".tpb");
            c.freeze();
        });
        bytes += static_cast<double>(c.memory_bytes());
        nodes += static_cast<double>(c.node_count());
        if (std::find(analyzed.begin(), analyzed.end(), name) != analyzed.end())
            circuits.push_back(std::move(c));
    }

    obs::Sink analysis_sink, lint_sink;
    for (const Circuit& c : circuits) {
        analysis::AnalysisOptions aopts;
        aopts.sink = &analysis_sink;
        (void)analysis::run_analysis(c, aopts);
        lint::LintOptions lopts;
        lopts.sink = &lint_sink;
        (void)lint::run_lint(c, lopts);
    }
    m.insert_or_assign("netlist.tpb_read_ms", read);
    m.insert_or_assign("netlist.bytes_per_node", bytes / nodes);
    m.insert_or_assign("analysis.faults_ms", span_ms(analysis_sink, "analysis/faults"));
    m.insert_or_assign("analysis.implications_ms",
          span_ms(analysis_sink, "analysis/implications"));
    m.insert_or_assign("analysis.dominators_ms",
          span_ms(analysis_sink, "analysis/dominators"));
    m.insert_or_assign("analysis.bounds_ms", span_ms(analysis_sink, "analysis/bounds"));
    m.insert_or_assign("analysis.implications_learned",
          static_cast<double>(
              analysis_sink.value(obs::Counter::ImplicationsLearned)));
    m.insert_or_assign("lint.rules_ms", span_ms(lint_sink, "lint/run") -
                               span_ms(lint_sink, "analysis/run"));
    m.insert_or_assign("lint.reconvergent_ms",
          span_ms(lint_sink, "lint/rule/reconvergent-fanout"));
}

/// Minimal blocking line client for the in-process listener.
class LineClient {
public:
    explicit LineClient(const std::string& path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) != 0)
            fail("cannot connect to " + path);
    }
    ~LineClient() { ::close(fd_); }
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;

    std::string round_trip(const std::string& line) {
        const std::string out = line + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n =
                ::send(fd_, out.data() + sent, out.size() - sent, 0);
            if (n <= 0) fail("send failed");
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                std::string response = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                return response;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) fail("connection closed");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

void require_ok(const std::string& response) {
    if (response.find("\"ok\": true") == std::string::npos)
        fail("request failed: " + response.substr(0, 200));
}

std::string method_of(const std::string& line) {
    const std::string key = "\"method\": \"";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return {};
    const std::size_t start = at + key.size();
    return line.substr(start, line.find('"', start) - start);
}

/// With `seconds` 0, every loop runs once.
void layers_serve(const Args& args, double seconds, Metrics& m) {
    const std::uint64_t seed = args.num("seed");
    std::vector<std::string> requests;
    {
        std::ifstream in(args.need("requests"));
        std::string line;
        while (std::getline(in, line))
            if (!line.empty()) requests.push_back(line);
    }
    const std::vector<std::string> sessions = {"dag2000", "cmp32"};
    std::vector<Circuit> circuits;
    for (const std::string& name : sessions)
        circuits.push_back(gen::suite_entry(name).build());

    // testability: the warm engine of `score` (32768 patterns) and the
    // engines `plan` builds (1024 patterns).
    Objective score_objective;
    Objective plan_objective;
    plan_objective.num_patterns = 1024;
    std::vector<double> build_ms, push_pop_us, block_us, greedy_ms;
    std::vector<double> with_sink, without_sink;
    double occupancy = 0.0;
    util::Rng rng(seed);
    int rep = 0;
    repeat_for(seconds / 2.0, [&] {
        double t_build = 0, t_block = 0, t_greedy = 0, t_with = 0,
               t_without = 0;
        std::size_t candidates = 0;
        std::uint64_t lanes_active = 0, lanes_offered = 0;
        for (const Circuit& c : circuits) {
            const fault::CollapsedFaults faults = fault::singleton_faults(c);
            const std::vector<NodeId> gates = gate_nodes(c);
            t_build += time_ms([&] {
                EvalEngine engine(c, faults, plan_objective);
            });

            EvalEngine warm(c, faults, score_objective);
            for (int k = 0; k < 16; ++k) {
                const auto points =
                    seeded_points(gates, 1 + rng.next() % 8, rng);
                push_pop_us.push_back(1000.0 * time_ms([&] {
                    for (const TestPoint& tp : points) warm.push(tp);
                    (void)warm.evaluation();
                    for (std::size_t i = 0; i < points.size(); ++i)
                        warm.pop();
                }));
            }

            obs::Sink block_sink;
            EvalEngine engine(c, faults, plan_objective, &block_sink);
            const auto batch = seeded_points(
                gates, std::min<std::size_t>(64, gates.size()), rng);
            t_block += time_ms([&] { (void)engine.score_block(batch, 1); });
            candidates += batch.size();
            lanes_active += block_sink.value(obs::Counter::LanesActive);
            const unsigned k = engine.eval_lanes() != 0
                                   ? engine.eval_lanes()
                                   : sim::preferred_eval_lanes();
            lanes_offered += block_sink.value(obs::Counter::ScoreBlocks) * k;

            PlannerOptions options;
            options.budget = 4;
            options.objective = plan_objective;
            options.threads = 1;
            t_greedy += time_ms([&] { (void)GreedyPlanner().plan(c, options); });
            for (const std::string planner : {"dp", "greedy"}) {
                // Alternate which call goes first, so neither side
                // always runs on caches the other warmed.
                for (int k = 0; k < 2; ++k) {
                    obs::Sink sink;
                    PlannerOptions run = options;
                    const bool traced = (rep + k) % 2 == 0;
                    if (traced) run.sink = &sink;
                    (traced ? t_with : t_without) +=
                        time_ms([&] { (void)run_planner(planner, c, run); });
                }
            }
        }
        build_ms.push_back(t_build);
        block_us.push_back(1000.0 * t_block / static_cast<double>(candidates));
        greedy_ms.push_back(t_greedy);
        with_sink.push_back(t_with);
        without_sink.push_back(t_without);
        occupancy = static_cast<double>(lanes_active) /
                    static_cast<double>(lanes_offered);
        ++rep;
    });
    m.insert_or_assign("testability.engine_build_ms", median(build_ms));
    m.insert_or_assign("testability.push_pop_us", median(push_pop_us));
    m.insert_or_assign("testability.score_us_per_candidate", median(block_us));
    m.insert_or_assign("testability.lane_occupancy", occupancy);
    m.insert_or_assign("tpi.greedy_ms", median(greedy_ms));
    m.insert_or_assign("obs.sink_overhead_pct",
          100.0 * (median(with_sink) / median(without_sink) - 1.0));

    // serve: the in-process pipeline first, then the same requests over
    // a socket to the in-process listener.
    serve::ServerOptions server_options;
    server_options.workers = 1;
    serve::Server server(server_options);
    double open_ms = 0;
    for (const std::string& name : sessions)
        open_ms += time_ms([&] {
            require_ok(server.execute_line(
                "{\"method\": \"open\", \"session\": \"" + name +
                "\", \"circuit\": \"" + name + "\", \"format\": \"suite\"}"));
        });
    m.insert_or_assign("serve.open_ms", open_ms);

    std::map<std::string, std::vector<double>> execute;
    std::vector<double> score_quiet;
    util::Timer budget;
    do {
        for (const std::string& line : requests) {
            const std::string method = method_of(line);
            std::string response;
            execute[method].push_back(
                time_ms([&] { response = server.execute_line(line); }));
            require_ok(response);
            if (method == "score") {
                const std::string quiet =
                    "{\"report\": false, " + line.substr(1);
                score_quiet.push_back(
                    time_ms([&] { require_ok(server.execute_line(quiet)); }));
            }
        }
    } while (budget.seconds() < seconds / 4.0);
    m.insert_or_assign("serve.execute_ms.score", median(execute["score"]));
    m.insert_or_assign("serve.execute_ms.plan", median(execute["plan"]));
    m.insert_or_assign("serve.report_ms", median(execute["score"]) - median(score_quiet));

    const std::string path = args.need("dir") + "/probe.sock";
    ::unlink(path.c_str());
    serve::ListenerOptions listener_options;
    listener_options.endpoint.unix_path = path;
    serve::Listener listener(server, listener_options);
    listener.start();
    std::vector<double> round_trip;
    {
        LineClient client(path);
        for (const std::string& line : requests) {
            if (method_of(line) != "score") continue;
            std::string response;
            round_trip.push_back(
                time_ms([&] { response = client.round_trip(line); }));
            require_ok(response);
            if (round_trip.size() >= 40) break;
        }
    }
    listener.shutdown();
    ::unlink(path.c_str());
    m.insert_or_assign("serve.wire_ms.score",
          median(round_trip) - median(execute["score"]));
}

int cmd_layers(const Args& args) {
    const std::string home = args.need("home");
    if (home != "dp" && home != "serve")
        fail("unknown layer group '" + home + "'");
    const double seconds = static_cast<double>(args.num("seconds"));
    Metrics m;
    layers_dp(args, home == "dp" ? seconds : 0.0, m);
    layers_serve(args, home == "serve" ? seconds : 0.0, m);
    layers_facts(args, m);
    print_metrics(m);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: perfbench_probe "
                     "<nodes|oracle|verify|plan|dp-rss|layers> ...\n";
        return 2;
    }
    const std::string command = argv[1];
    try {
        const Args args(argc, argv, 2);
        if (command == "nodes") return cmd_nodes(args);
        if (command == "oracle") return cmd_oracle(args);
        if (command == "verify") return cmd_verify(args);
        if (command == "plan") return cmd_plan(args);
        if (command == "dp-rss") return cmd_dp_rss(args);
        if (command == "layers") return cmd_layers(args);
        std::cerr << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_probe: " << e.what() << "\n";
        return 1;
    }
}
