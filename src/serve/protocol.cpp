#include "serve/protocol.hpp"

#include <cmath>
#include <initializer_list>
#include <limits>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace tpi::serve {

namespace {

using obs::json::Value;

[[noreturn]] void fail(Code code, const std::string& message) {
    throw ServeError(code, message);
}

/// Reject keys outside `allowed` (strict protocol: typos fail loudly).
void check_keys(const Value& object, std::string_view where,
                std::initializer_list<std::string_view> allowed) {
    for (const auto& [key, value] : object.object) {
        (void)value;
        bool known = false;
        for (const auto& name : allowed)
            if (key == name) known = true;
        if (!known)
            fail(Code::Usage, "unknown key '" + key + "' in " +
                                  std::string(where));
    }
}

std::string need_string(const Value& object, std::string_view key,
                        std::string_view where) {
    const Value* v = object.find(key);
    if (v == nullptr || !v->is_string())
        fail(Code::Usage, std::string(where) + " requires a string '" +
                              std::string(key) + "'");
    return v->string;
}

std::string opt_string(const Value& object, std::string_view key,
                       std::string fallback) {
    const Value* v = object.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_string())
        fail(Code::Usage, "'" + std::string(key) + "' must be a string");
    return v->string;
}

/// A non-negative integer field (id, seed, patterns, ...). JSON numbers
/// are doubles; require an exact integral value in range.
std::uint64_t opt_uint(const Value& object, std::string_view key,
                       std::uint64_t fallback,
                       std::uint64_t max = 1ull << 53) {
    const Value* v = object.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number() || v->number < 0 ||
        v->number != std::floor(v->number) ||
        v->number > static_cast<double>(max))
        fail(Code::Usage, "'" + std::string(key) +
                              "' must be a non-negative integer");
    return static_cast<std::uint64_t>(v->number);
}

double opt_double(const Value& object, std::string_view key,
                  double fallback) {
    const Value* v = object.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number())
        fail(Code::Usage, "'" + std::string(key) + "' must be a number");
    return v->number;
}

bool opt_bool(const Value& object, std::string_view key, bool fallback) {
    const Value* v = object.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_bool())
        fail(Code::Usage, "'" + std::string(key) + "' must be a boolean");
    return v->boolean;
}

netlist::TpKind parse_kind(const std::string& name) {
    for (int k = 0; k < netlist::kTpKindCount; ++k) {
        const auto kind = static_cast<netlist::TpKind>(k);
        if (name == netlist::tp_kind_name(kind)) return kind;
    }
    fail(Code::Validation,
         "unknown test point kind '" + name +
             "' (expected OP, CP-AND, CP-OR or CP-XOR)");
}

void parse_options(const Value& options, Request& request) {
    check_keys(options, "options",
               {"budget", "patterns", "planner", "seed", "deadline_ms",
                "exact_eval", "prune_lint", "max_findings",
                "max_implication_nodes", "max_implication_steps",
                "max_untestable", "sim_width", "drop_after"});
    request.budget = static_cast<int>(
        opt_uint(options, "budget", static_cast<std::uint64_t>(request.budget),
                 1u << 20));
    request.patterns =
        static_cast<std::size_t>(opt_uint(options, "patterns",
                                          request.patterns, 1u << 26));
    request.planner = opt_string(options, "planner", request.planner);
    request.seed = opt_uint(options, "seed", request.seed,
                            std::numeric_limits<std::uint64_t>::max());
    request.deadline_ms =
        opt_double(options, "deadline_ms", request.deadline_ms);
    request.exact_eval =
        opt_bool(options, "exact_eval", request.exact_eval);
    request.prune_lint =
        opt_bool(options, "prune_lint", request.prune_lint);
    request.max_findings = static_cast<std::size_t>(
        opt_uint(options, "max_findings", request.max_findings, 1u << 20));
    request.max_implication_nodes = static_cast<std::size_t>(
        opt_uint(options, "max_implication_nodes",
                 request.max_implication_nodes, 1u << 24));
    request.max_implication_steps = static_cast<std::size_t>(
        opt_uint(options, "max_implication_steps",
                 request.max_implication_steps, 1u << 30));
    request.max_untestable = static_cast<std::size_t>(
        opt_uint(options, "max_untestable", request.max_untestable,
                 1u << 24));
    request.sim_width = static_cast<unsigned>(
        opt_uint(options, "sim_width", request.sim_width, 512));
    request.drop_after =
        opt_uint(options, "drop_after", request.drop_after,
                 std::numeric_limits<std::uint64_t>::max());

    if (request.patterns == 0)
        fail(Code::Validation, "'patterns' must be positive");
    if (options.find("deadline_ms") != nullptr &&
        !(request.deadline_ms > 0.0 &&
          std::isfinite(request.deadline_ms)))
        fail(Code::Validation,
             "'deadline_ms' must be a positive finite number");
    if (request.planner != "dp" && request.planner != "greedy" &&
        request.planner != "random")
        fail(Code::Validation, "unknown planner '" + request.planner +
                                   "' (expected dp, greedy or random)");
    if (!(request.sim_width == 0 || request.sim_width == 64 ||
          request.sim_width == 128 || request.sim_width == 256 ||
          request.sim_width == 512))
        fail(Code::Validation,
             "'sim_width' must be 0 (auto), 64, 128, 256 or 512");
}

void parse_points(const Value& points, Request& request) {
    if (!points.is_array())
        fail(Code::Usage, "'points' must be an array");
    for (const Value& entry : points.array) {
        if (!entry.is_object())
            fail(Code::Usage, "each point must be an object");
        check_keys(entry, "point", {"node", "kind"});
        const std::string node = need_string(entry, "node", "point");
        const std::string kind = need_string(entry, "kind", "point");
        request.points.emplace_back(node, parse_kind(kind));
    }
}

const Value* parse_object_line(std::string_view line, Value& doc) {
    std::string error;
    if (!obs::json::parse(line, doc, error))
        fail(Code::Protocol, "request is not valid JSON: " + error);
    if (!doc.is_object())
        fail(Code::Protocol, "request must be a JSON object");
    return &doc;
}

}  // namespace

std::string_view code_name(Code code) {
    switch (code) {
        case Code::Ok: return "ok";
        case Code::Protocol: return "protocol";
        case Code::Usage: return "usage";
        case Code::NotFound: return "not_found";
        case Code::Parse: return "parse";
        case Code::Validation: return "validation";
        case Code::Limit: return "limit";
        case Code::Deadline: return "deadline";
        case Code::Overloaded: return "overloaded";
        case Code::Draining: return "draining";
        case Code::Internal: return "internal";
    }
    return "internal";
}

int taxonomy_exit_code(Code code) {
    switch (code) {
        case Code::Ok: return 0;
        case Code::Usage:
        case Code::NotFound: return 2;
        case Code::Protocol:
        case Code::Parse: return 3;
        case Code::Validation: return 4;
        case Code::Limit:
        case Code::Deadline:
        case Code::Overloaded:
        case Code::Draining: return 5;
        case Code::Internal: return 1;
    }
    return 1;
}

Request parse_request(std::string_view line) {
    Value doc;
    const Value& root = *parse_object_line(line, doc);
    check_keys(root, "request",
               {"id", "method", "session", "circuit", "format", "mode",
                "options", "points", "report"});

    Request request;
    if (root.find("id") != nullptr)
        request.id = opt_uint(root, "id", 0);
    request.method = need_string(root, "method", "request");
    request.session = opt_string(root, "session", "");
    request.circuit = opt_string(root, "circuit", "");
    request.format = opt_string(root, "format", "bench");
    request.want_report = opt_bool(root, "report", true);

    const std::string mode = opt_string(root, "mode", "lenient");
    if (mode == "strict")
        request.mode = netlist::ValidateMode::Strict;
    else if (mode == "lenient")
        request.mode = netlist::ValidateMode::Lenient;
    else
        fail(Code::Usage, "'mode' must be strict or lenient");
    if (request.format != "bench" && request.format != "verilog" &&
        request.format != "suite" && request.format != "file")
        fail(Code::Usage,
             "'format' must be bench, verilog, suite or file");

    if (const Value* options = root.find("options")) {
        if (!options->is_object())
            fail(Code::Usage, "'options' must be an object");
        parse_options(*options, request);
    }
    if (const Value* points = root.find("points"))
        parse_points(*points, request);

    static constexpr std::string_view kMethods[] = {
        "ping", "info", "open",    "close", "stats",
        "plan", "sim",  "lint",    "analyze", "score"};
    bool known = false;
    for (const auto& m : kMethods)
        if (request.method == m) known = true;
    if (!known)
        fail(Code::Usage, "unknown method '" + request.method + "'");

    const bool needs_session = request.method != "ping" &&
                               request.method != "info";
    if (needs_session && request.session.empty())
        fail(Code::Usage,
             "method '" + request.method + "' requires a 'session'");
    if (request.method == "open" && request.circuit.empty())
        fail(Code::Usage, "method 'open' requires a 'circuit'");
    if (request.method == "score" && request.points.empty())
        fail(Code::Usage, "method 'score' requires 'points'");
    return request;
}

std::optional<std::uint64_t> peek_request_id(std::string_view line) {
    Value doc;
    std::string error;
    if (!obs::json::parse(line, doc, error) || !doc.is_object())
        return std::nullopt;
    const Value* id = doc.find("id");
    if (id == nullptr || !id->is_number() || id->number < 0 ||
        id->number != std::floor(id->number) ||
        id->number > 9007199254740992.0)
        return std::nullopt;
    return static_cast<std::uint64_t>(id->number);
}

std::string json_quote(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xF];
                    out += hex[c & 0xF];
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

namespace {

std::string id_fragment(std::optional<std::uint64_t> id) {
    return id ? std::to_string(*id) : "null";
}

}  // namespace

std::string error_response(std::optional<std::uint64_t> id, Code code,
                           const std::string& message,
                           double retry_after_ms) {
    std::string out = "{\"id\": " + id_fragment(id) +
                      ", \"ok\": false, \"error\": {\"code\": " +
                      json_quote(code_name(code)) +
                      ", \"message\": " + json_quote(message);
    if (retry_after_ms >= 0.0)
        out += ", \"retry_after_ms\": " + obs::fmt_double(retry_after_ms);
    out += "}}";
    return out;
}

std::string ok_response(std::optional<std::uint64_t> id,
                        const std::string& result,
                        const std::string& report) {
    std::string out = "{\"id\": " + id_fragment(id) +
                      ", \"ok\": true, \"result\": " + result;
    if (!report.empty()) out += ", \"report\": " + report;
    out += "}";
    return out;
}

bool LineFramer::append(std::string_view data,
                        std::vector<std::string>& lines) {
    if (overflowed_) return false;
    for (const char c : data) {
        if (c == '\n') {
            // Tolerate CRLF clients.
            if (!buffer_.empty() && buffer_.back() == '\r')
                buffer_.pop_back();
            lines.push_back(std::move(buffer_));
            buffer_.clear();
            continue;
        }
        if (buffer_.size() >= max_line_) {
            overflowed_ = true;
            buffer_.clear();
            return false;
        }
        buffer_ += c;
    }
    return true;
}

}  // namespace tpi::serve
