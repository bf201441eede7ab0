#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/prune.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/benchmarks.hpp"
#include "lint/lint.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/tpb_io.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/report.hpp"
#include "sim/pattern.hpp"
#include "testability/detect.hpp"
#include "tpi/evaluate.hpp"
#include "tpi/planners.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tpi::serve {

namespace {

/// write_metrics_json pretty-prints; a response is one line. Strings
/// escape every control character, so a raw newline is always document
/// structure: drop it together with the following indentation.
std::string compact_json(std::string_view pretty) {
    std::string out;
    out.reserve(pretty.size());
    std::size_t i = 0;
    while (i < pretty.size()) {
        const char c = pretty[i];
        if (c == '\n') {
            ++i;
            while (i < pretty.size() && pretty[i] == ' ') ++i;
            continue;
        }
        out += c;
        ++i;
    }
    return out;
}

bool same_objective(const Objective& a, const Objective& b) {
    return a.kind == b.kind && a.num_patterns == b.num_patterns &&
           a.threshold == b.threshold;
}

std::string num(double value) { return obs::fmt_double(value); }
std::string num(std::uint64_t value) { return std::to_string(value); }
std::string boolean(bool value) { return value ? "true" : "false"; }

/// RAII isolation for the session's warm engine: push frames through the
/// guard, `unwind()` on success; if the guard dies armed (any exception
/// on the request path), the engine is *discarded* — never trusted with
/// possibly half-applied frames — and the version stamp records it.
class EngineFrameGuard {
public:
    explicit EngineFrameGuard(Session& session) : session_(session) {}

    ~EngineFrameGuard() {
        if (pushed_ == 0) return;
        session_.engine.reset();
        ++session_.engine_version;
    }

    void push(const netlist::TestPoint& point) {
        session_.engine->push(point);
        ++pushed_;
    }

    void unwind() {
        while (pushed_ > 0) {
            session_.engine->pop();
            --pushed_;
        }
    }

private:
    Session& session_;
    std::size_t pushed_ = 0;
};

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.session_limits),
      workers_(util::ThreadPool::resolve(options.workers)),
      max_batch_(options.max_batch > 0 ? options.max_batch
                                       : std::size_t{2} * workers_) {}

Server::~Server() { drain(); }

void Server::start() {
    std::lock_guard lock(queue_mutex_);
    if (started_) return;
    started_ = true;
    dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void Server::submit(std::string line,
                    std::function<void(std::string&&)> respond) {
    {
        std::lock_guard lock(queue_mutex_);
        if (draining_.load(std::memory_order_relaxed)) {
            shed_draining_.fetch_add(1, std::memory_order_relaxed);
            respond(error_response(peek_request_id(line), Code::Draining,
                                   "daemon is draining; request refused"));
            return;
        }
        if (queue_.size() >= options_.max_queue) {
            shed_overload_.fetch_add(1, std::memory_order_relaxed);
            respond(error_response(
                peek_request_id(line), Code::Overloaded,
                "admission queue full (" +
                    std::to_string(options_.max_queue) +
                    " requests pending); retry after the hint",
                retry_hint_ms(queue_.size())));
            return;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        queue_.push_back(Job{std::move(line), std::move(respond)});
    }
    queue_cv_.notify_one();
}

void Server::drain() {
    {
        std::lock_guard lock(queue_mutex_);
        draining_.store(true, std::memory_order_relaxed);
    }
    queue_cv_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
}

void Server::dispatch_loop() {
    for (;;) {
        std::deque<Job> batch;
        {
            std::unique_lock lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return !queue_.empty() ||
                       draining_.load(std::memory_order_relaxed);
            });
            if (queue_.empty()) return;  // draining and nothing left
            const std::size_t take = std::min(queue_.size(), max_batch_);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        run_batch(batch);
    }
}

void Server::run_batch(std::deque<Job>& batch) {
    const auto run_one = [&](std::size_t i) {
        util::Timer timer;
        std::string response = execute_line(batch[i].line);
        const double ms = timer.millis();
        // EWMA service-time estimate feeding the retry-after hint.
        double old = avg_request_ms_.load(std::memory_order_relaxed);
        avg_request_ms_.store(0.8 * old + 0.2 * ms,
                              std::memory_order_relaxed);
        batch[i].respond(std::move(response));
        completed_.fetch_add(1, std::memory_order_relaxed);
    };
    if (batch.size() <= 1 || workers_ <= 1) {
        for (std::size_t i = 0; i < batch.size(); ++i) run_one(i);
        return;
    }
    util::ThreadPool::shared().for_each(
        batch.size(), workers_,
        [&](std::size_t i, unsigned /*lane*/) { run_one(i); });
}

double Server::retry_hint_ms(std::size_t queue_depth) const {
    const double avg = avg_request_ms_.load(std::memory_order_relaxed);
    const double hint =
        avg * (static_cast<double>(queue_depth) + 1.0) /
        static_cast<double>(workers_ > 0 ? workers_ : 1);
    return std::clamp(hint, 1.0, 60'000.0);
}

ServerStats Server::stats() const {
    ServerStats stats;
    stats.accepted = accepted_.load(std::memory_order_relaxed);
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
    stats.shed_draining = shed_draining_.load(std::memory_order_relaxed);
    stats.request_errors =
        request_errors_.load(std::memory_order_relaxed);
    {
        std::lock_guard lock(queue_mutex_);
        stats.queue_depth = queue_.size();
    }
    stats.draining = draining_.load(std::memory_order_relaxed);
    return stats;
}

std::string Server::execute_line(const std::string& line) {
    Request request;
    try {
        request = parse_request(line);
    } catch (const ServeError& e) {
        request_errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(peek_request_id(line), e.serve_code(),
                              e.what());
    } catch (const std::exception& e) {
        request_errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(peek_request_id(line), Code::Internal,
                              e.what());
    }

    obs::Sink sink;
    obs::RunReport report;
    report.command = request.method;
    report.circuit = request.session;
    report.threads = 1;
    util::Timer timer;

    Code code = Code::Ok;
    std::string message;
    std::string result;
    bool truncated = false;
    try {
        result = dispatch(request, sink, report, truncated);
    } catch (const ServeError& e) {
        code = e.serve_code();
        message = e.what();
    } catch (const ParseError& e) {
        code = Code::Parse;
        message = e.what();
    } catch (const ValidationError& e) {
        code = Code::Validation;
        message = e.what();
    } catch (const LimitError& e) {
        code = Code::Limit;
        message = e.what();
    } catch (const DeadlineError& e) {
        code = Code::Deadline;
        message = e.what();
    } catch (const std::bad_alloc&) {
        code = Code::Internal;
        message = "allocation failure (cached engine state discarded)";
    } catch (const Error& e) {
        code = Code::Internal;
        message = e.what();
    } catch (const std::exception& e) {
        code = Code::Internal;
        message = e.what();
    }

    report.truncated = truncated;
    report.exit_code =
        code == Code::Ok ? (truncated ? 5 : 0) : taxonomy_exit_code(code);
    report.wall_ms = timer.millis();

    std::string rendered_report;
    if (request.want_report)
        rendered_report =
            compact_json(obs::to_metrics_json(report, &sink));

    if (code != Code::Ok) {
        request_errors_.fetch_add(1, std::memory_order_relaxed);
        std::string response = error_response(request.id, code, message);
        if (!rendered_report.empty()) {
            response.pop_back();  // '}'
            response += ", \"report\": " + rendered_report + "}";
        }
        return response;
    }
    return ok_response(request.id, result, rendered_report);
}

std::string Server::dispatch(const Request& request, obs::Sink& sink,
                             obs::RunReport& report, bool& truncated) {
    if (request.method == "ping") return "{\"pong\": true}";
    if (request.method == "info") return do_info();

    // Per-request wall-clock budget: the request's own deadline_ms,
    // else the server default; either way clamped by max_deadline_ms so
    // no request can hold a worker lane arbitrarily long.
    double budget_ms = request.deadline_ms > 0.0
                           ? request.deadline_ms
                           : options_.default_deadline_ms;
    if (options_.max_deadline_ms > 0.0)
        budget_ms = budget_ms > 0.0
                        ? std::min(budget_ms, options_.max_deadline_ms)
                        : options_.max_deadline_ms;
    util::Deadline deadline = budget_ms > 0.0 ? util::Deadline(budget_ms)
                                              : util::Deadline();

    // Deterministic fault injection: delay/alloc fire inside act();
    // a deadline action cancels this request's budget so the engines
    // take their truncated best-so-far paths.
    if (options_.faults != nullptr &&
        options_.faults->act(request.method))
        deadline.cancel();

    if (request.method == "open") return do_open(request, report);
    if (request.method == "close") {
        if (!cache_.close(request.session))
            throw ServeError(Code::NotFound, "no session named '" +
                                                 request.session + "'");
        return "{\"closed\": true}";
    }

    const std::shared_ptr<Session> session = cache_.find(request.session);
    if (session == nullptr)
        throw ServeError(Code::NotFound,
                         "no session named '" + request.session +
                             "' (open it first)");
    std::lock_guard session_lock(session->mutex);
    report.circuit = session->circuit.name();

    if (request.method == "stats") return do_stats(*session, report);
    if (request.method == "plan")
        return do_plan(request, *session, deadline, sink, report,
                       truncated);
    if (request.method == "sim")
        return do_sim(request, *session, deadline, sink, report,
                      truncated);
    if (request.method == "lint")
        return do_lint(request, *session, deadline, sink, report,
                       truncated);
    if (request.method == "analyze")
        return do_analyze(request, *session, deadline, sink, report,
                          truncated);
    if (request.method == "score") {
        if (deadline.already_expired())
            throw DeadlineError("score: deadline expired before scoring");
        return do_score(request, *session, sink, report);
    }
    throw ServeError(Code::Usage,
                     "unknown method '" + request.method + "'");
}

std::string Server::do_info() {
    const ServerStats server = stats();
    const SessionCache::Stats cache = cache_.stats();
    std::string out = "{";
    out += "\"protocol\": 1";
    out += ", \"methods\": [\"ping\", \"info\", \"open\", \"close\", "
           "\"stats\", \"plan\", \"sim\", \"lint\", \"analyze\", "
           "\"score\"]";
    out += ", \"workers\": " + std::to_string(workers_);
    out += ", \"max_queue\": " + num(options_.max_queue);
    out += ", \"max_sessions\": " + num(options_.session_limits.max_sessions);
    out += ", \"max_resident_nodes\": " +
           num(options_.session_limits.max_resident_nodes);
    out += ", \"accepted\": " + num(server.accepted);
    out += ", \"completed\": " + num(server.completed);
    out += ", \"shed_overload\": " + num(server.shed_overload);
    out += ", \"shed_draining\": " + num(server.shed_draining);
    out += ", \"request_errors\": " + num(server.request_errors);
    out += ", \"sessions\": " + num(cache.sessions);
    out += ", \"resident_nodes\": " + num(cache.resident_nodes);
    out += ", \"evictions\": " + num(cache.evictions);
    out += ", \"draining\": " + boolean(server.draining);
    out += "}";
    return out;
}

std::string Server::do_open(const Request& request,
                            obs::RunReport& report) {
    if (request.circuit.size() > options_.max_circuit_bytes)
        throw LimitError("circuit text of " +
                         std::to_string(request.circuit.size()) +
                         " bytes exceeds the per-request cap of " +
                         std::to_string(options_.max_circuit_bytes));

    auto session = std::make_shared<Session>();
    session->name = request.session;
    netlist::Diagnostics diags;
    if (request.format == "suite") {
        try {
            session->circuit = gen::suite_entry(request.circuit).build();
        } catch (const Error& e) {
            throw ServeError(Code::Validation, e.what());
        }
    } else if (request.format == "file") {
        // `circuit` is a path on the daemon's filesystem; the suffix
        // picks the reader. This is the million-gate ingress: a .tpb
        // file loads without shipping the netlist through a JSON line
        // (the max_circuit_bytes cap above applies to the path text
        // only, not the file).
        const std::string& path = request.circuit;
        const auto ends_with = [&](std::string_view s) {
            return path.size() >= s.size() &&
                   path.compare(path.size() - s.size(), s.size(), s) == 0;
        };
        if (ends_with(".tpb"))
            session->circuit = netlist::read_tpb_file(path);
        else if (ends_with(".v"))
            session->circuit =
                netlist::read_verilog_file(path, request.mode, &diags);
        else
            session->circuit =
                netlist::read_bench_file(path, request.mode, &diags);
    } else if (request.format == "verilog") {
        session->circuit = netlist::read_verilog_string(
            request.circuit, request.mode, &diags);
    } else {
        session->circuit = netlist::read_bench_string(
            request.circuit, request.session, request.mode, &diags);
    }
    session->faults = fault::singleton_faults(session->circuit);
    session->sim_faults = fault::collapse_faults(session->circuit);
    session->cop = testability::compute_cop(session->circuit);
    session->repairs = diags.repairs();
    report.circuit = session->circuit.name();

    std::string out = "{";
    out += "\"session\": " + json_quote(session->name);
    out += ", \"nodes\": " + num(session->circuit.node_count());
    out += ", \"gates\": " + num(session->circuit.gate_count());
    out += ", \"inputs\": " + num(session->circuit.input_count());
    out += ", \"outputs\": " + num(session->circuit.output_count());
    out += ", \"faults\": " + num(session->sim_faults.total_faults);
    out += ", \"collapsed_faults\": " + num(session->sim_faults.size());
    out += ", \"repairs\": " + num(session->repairs);
    out += "}";

    report.add_num("nodes",
                   static_cast<std::uint64_t>(
                       session->circuit.node_count()));
    report.add_num("repairs",
                   static_cast<std::uint64_t>(session->repairs));
    cache_.insert(std::move(session));
    return out;
}

std::string Server::do_stats(Session& session, obs::RunReport& report) {
    const std::vector<double> p = testability::detection_probabilities(
        session.circuit, session.sim_faults, session.cop);
    const double coverage = testability::estimated_coverage(
        p, session.sim_faults.class_size, 32768);
    const double min_p = testability::min_detection_probability(p);

    std::string out = "{";
    out += "\"nodes\": " + num(session.circuit.node_count());
    out += ", \"gates\": " + num(session.circuit.gate_count());
    out += ", \"inputs\": " + num(session.circuit.input_count());
    out += ", \"outputs\": " + num(session.circuit.output_count());
    out += ", \"depth\": " + std::to_string(session.circuit.depth());
    out += ", \"faults\": " + num(session.sim_faults.total_faults);
    out += ", \"estimated_coverage\": " + num(coverage);
    out += ", \"min_detection_probability\": " + num(min_p);
    out += ", \"engine_version\": " + num(session.engine_version);
    out += ", \"engine_warm\": " + boolean(session.engine != nullptr);
    out += "}";
    report.add_num("estimated_coverage", coverage);
    return out;
}

std::string Server::do_plan(const Request& request, Session& session,
                            util::Deadline& deadline, obs::Sink& sink,
                            obs::RunReport& report, bool& truncated) {
    DpPlanner dp;
    GreedyPlanner greedy;
    RandomPlanner random;
    Planner* planner = nullptr;
    if (request.planner == "dp") planner = &dp;
    if (request.planner == "greedy") planner = &greedy;
    if (request.planner == "random") planner = &random;
    if (planner == nullptr)
        throw ServeError(Code::Validation,
                         "unknown planner '" + request.planner + "'");

    PlannerOptions options;
    options.budget = request.budget;
    options.objective.num_patterns = request.patterns;
    options.seed = request.seed;
    options.deadline = &deadline;
    options.threads = 1;  // concurrency comes from request batching
    options.prune_via_lint = request.prune_lint;
    options.sink = &sink;

    const Plan plan = planner->plan(session.circuit, options);
    truncated = plan.truncated;

    std::string out = "{";
    out += "\"planner\": " + json_quote(request.planner);
    out += ", \"points\": [";
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const auto& tp = plan.points[i];
        if (i > 0) out += ", ";
        out += "{\"node\": " +
               json_quote(session.circuit.node_name(tp.node)) +
               ", \"kind\": " +
               json_quote(netlist::tp_kind_name(tp.kind)) + "}";
    }
    out += "]";
    out += ", \"predicted_score\": " + num(plan.predicted_score);
    out += ", \"truncated\": " + boolean(plan.truncated);
    if (request.prune_lint) {
        out += ", \"candidates_considered\": " +
               num(plan.candidates_considered);
        out += ", \"candidates_pruned\": " + num(plan.candidates_pruned);
    }
    out += "}";

    report.add_str("planner", request.planner);
    report.add_num("points",
                   static_cast<std::uint64_t>(plan.points.size()));
    report.add_num("predicted_score", plan.predicted_score);
    return out;
}

std::string Server::do_sim(const Request& request, Session& session,
                           util::Deadline& deadline, obs::Sink& sink,
                           obs::RunReport& report, bool& truncated) {
    sim::RandomPatternSource source(request.seed);
    fault::FaultSimOptions options;
    options.max_patterns = request.patterns;
    options.deadline = &deadline;
    options.threads = 1;
    options.sink = &sink;
    options.sim_width = request.sim_width;
    options.drop_after = request.drop_after;
    const fault::FaultSimResult result = fault::run_fault_simulation(
        session.circuit, session.sim_faults, source, options);
    truncated = result.truncated;

    std::string out = "{";
    out += "\"coverage\": " + num(result.coverage);
    out += ", \"patterns_applied\": " + num(result.patterns_applied);
    out += ", \"undetected\": " + num(result.undetected);
    out += ", \"dropped\": " + num(result.dropped);
    out += ", \"sim_width\": " +
           num(static_cast<std::uint64_t>(result.sim_width));
    out += ", \"truncated\": " + boolean(result.truncated);
    out += "}";
    report.add_num("coverage", result.coverage);
    report.add_num(
        "patterns_applied",
        static_cast<std::uint64_t>(result.patterns_applied));
    return out;
}

std::string Server::do_lint(const Request& request, Session& session,
                            util::Deadline& deadline, obs::Sink& sink,
                            obs::RunReport& report, bool& truncated) {
    lint::LintOptions options;
    options.max_findings_per_rule = request.max_findings;
    options.max_implication_nodes = request.max_implication_nodes;
    options.max_implication_steps = request.max_implication_steps;
    options.max_untestable_faults = request.max_untestable;
    options.deadline = &deadline;
    options.sink = &sink;
    const lint::LintReport lint_report =
        lint::run_lint(session.circuit, options);
    truncated = lint_report.truncated && deadline.already_expired();

    std::string out = "{";
    out += "\"findings\": " + num(lint_report.findings.size());
    out += ", \"errors\": " +
           num(lint_report.count(lint::Severity::Error));
    out += ", \"warnings\": " +
           num(lint_report.count(lint::Severity::Warning));
    out += ", \"truncated\": " + boolean(lint_report.truncated);
    out += "}";
    report.add_num("findings",
                   static_cast<std::uint64_t>(
                       lint_report.findings.size()));
    return out;
}

std::string Server::do_analyze(const Request& request, Session& session,
                               util::Deadline& deadline, obs::Sink& sink,
                               obs::RunReport& report, bool& truncated) {
    analysis::AnalysisOptions options;
    options.max_implication_nodes = request.max_implication_nodes;
    options.max_implication_steps = request.max_implication_steps;
    options.max_untestable_faults = request.max_untestable;
    options.deadline = &deadline;
    options.sink = &sink;
    const analysis::AnalysisResult result =
        analysis::run_analysis(session.circuit, options);
    const analysis::ObservePruning pruning =
        analysis::compute_observe_pruning(session.circuit, session.cop, 0);
    truncated = result.truncated && deadline.already_expired();

    std::size_t dominated = 0;
    for (const std::uint32_t d : result.dominators.idom)
        if (d != analysis::DominatorTree::kSink &&
            d != analysis::DominatorTree::kUnreachable)
            ++dominated;

    std::string out = "{";
    out += "\"nodes\": " + num(session.circuit.node_count());
    out += ", \"dominated_nodes\": " + num(dominated);
    out += ", \"implications_learned\": " +
           num(result.implications_learned);
    out += ", \"probed_literals\": " + num(result.implications.rows());
    out += ", \"learned_constants\": [";
    for (std::size_t i = 0; i < result.learned_constants.size(); ++i) {
        const analysis::Literal& lit = result.learned_constants[i];
        if (i > 0) out += ", ";
        out += "{\"node\": " +
               json_quote(session.circuit.node_name(lit.node)) +
               ", \"value\": " + (lit.value ? "1" : "0") + "}";
    }
    out += "]";
    out += ", \"untestable_faults\": [";
    for (std::size_t i = 0; i < result.untestable.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_quote(
            fault::fault_name(session.circuit, result.untestable[i]));
    }
    out += "]";
    out += ", \"zero_gain_observe_sites\": " + num(pruning.count);
    out += ", \"certificates\": " + num(result.certificates.size());
    out += ", \"truncated\": " + boolean(result.truncated);
    out += "}";

    report.add_num(
        "implications_learned",
        static_cast<std::uint64_t>(result.implications_learned));
    report.add_num(
        "untestable_faults",
        static_cast<std::uint64_t>(result.untestable.size()));
    return out;
}

std::string Server::do_score(const Request& request, Session& session,
                             obs::Sink& sink, obs::RunReport& report) {
    std::vector<netlist::TestPoint> points;
    points.reserve(request.points.size());
    for (const auto& [name, kind] : request.points) {
        const netlist::NodeId node = session.circuit.find(name);
        if (!node.valid())
            throw ServeError(Code::Validation,
                             "no node named '" + name +
                                 "' in session circuit");
        points.push_back({node, kind});
    }
    // Two control points, or two observation points, on one net break
    // the apply_test_points contract on both paths below. Reject them
    // before the warm engine is touched: a throw from its second push
    // would discard the engine.
    {
        std::vector<std::pair<std::uint32_t, bool>> sites;
        sites.reserve(points.size());
        for (const auto& tp : points)
            sites.emplace_back(tp.node.v, netlist::is_control(tp.kind));
        std::sort(sites.begin(), sites.end());
        const auto dup = std::adjacent_find(sites.begin(), sites.end());
        if (dup != sites.end())
            throw ServeError(
                Code::Validation,
                std::string("duplicate ") +
                    (dup->second ? "control" : "observation") +
                    " point on net '" +
                    std::string(session.circuit.node_name(
                        netlist::NodeId{dup->first})) +
                    "'");
    }

    Objective objective;
    objective.num_patterns = request.patterns;

    PlanEvaluation evaluation;
    bool warm = false;
    if (request.exact_eval) {
        // Reference path: materialise and re-derive from scratch. The
        // differential tests assert it is bit-identical to the warm
        // engine path below.
        evaluation = evaluate_plan(session.circuit, session.faults,
                                   points, objective);
    } else {
        // The warm engine outlives this request, so it must not hold
        // the per-request sink.
        if (session.engine == nullptr ||
            !same_objective(session.engine_objective, objective)) {
            session.engine = std::make_unique<EvalEngine>(
                session.circuit, session.faults, objective);
            session.engine_objective = objective;
            ++session.engine_version;
        } else {
            warm = true;
        }
        obs::add(&sink, obs::Counter::EngineEvaluations);
        EngineFrameGuard guard(session);
        for (const auto& point : points) guard.push(point);
        evaluation = session.engine->evaluation();
        guard.unwind();
    }

    std::string out = "{";
    out += "\"score\": " + num(evaluation.score);
    out += ", \"estimated_coverage\": " +
           num(evaluation.estimated_coverage);
    out += ", \"min_detection_probability\": " +
           num(evaluation.min_detection_probability);
    out += ", \"points\": " + num(points.size());
    out += ", \"engine_warm\": " + boolean(warm);
    out += ", \"engine_version\": " + num(session.engine_version);
    out += "}";
    report.add_num("score", evaluation.score);
    report.add_num("points",
                   static_cast<std::uint64_t>(points.size()));
    return out;
}

std::string Server::session_fingerprint(const std::string& name) {
    const std::shared_ptr<Session> session = cache_.find(name);
    if (session == nullptr) return {};
    std::lock_guard lock(session->mutex);
    std::string fp = "cop:";
    for (const double c1 : session->cop.c1) fp += num(c1) + ",";
    fp += "|obs:";
    for (const double o : session->cop.obs) fp += num(o) + ",";
    fp += "|engine:v" + num(session->engine_version);
    if (session->engine != nullptr) {
        fp += ":depth" + num(session->engine->depth());
        fp += ":score" + num(session->engine->score());
        fp += ":p";
        for (const double p : session->engine->detection_probability())
            fp += num(p) + ",";
    }
    return fp;
}

}  // namespace tpi::serve
