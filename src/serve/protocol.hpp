#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/test_point.hpp"
#include "netlist/validate.hpp"
#include "util/error.hpp"

namespace tpi::serve {

/// Structured protocol error codes, carried in every `ok: false`
/// response. Each maps onto the PR 1 error taxonomy through
/// `taxonomy_exit_code` so a protocol client and a CLI script read the
/// same categories:
///
///   usage/not_found -> 2, protocol/parse -> 3, validation -> 4,
///   limit/deadline/overloaded/draining -> 5, internal -> 1.
enum class Code : std::uint8_t {
    Ok,
    Protocol,    ///< request line is not a valid request document
    Usage,       ///< unknown method / unknown key / malformed field
    NotFound,    ///< request names a session that is not cached
    Parse,       ///< netlist text failed to parse (tpi::ParseError)
    Validation,  ///< structurally broken input (tpi::ValidationError)
    Limit,       ///< explicit resource limit exceeded (tpi::LimitError)
    Deadline,    ///< per-request budget expired with no partial result
    Overloaded,  ///< admission queue full; retry after the hint
    Draining,    ///< daemon is shutting down; no new work accepted
    Internal,    ///< unclassified failure (cached state was discarded)
};

/// Stable wire name of a code ("overloaded", "not_found", ...).
std::string_view code_name(Code code);

/// The documented CLI exit code the category corresponds to.
int taxonomy_exit_code(Code code);

/// Protocol-layer error: thrown by request parsing/validation and by the
/// dispatcher, turned into an `ok: false` response by the server. Plugs
/// into the tpi::Error taxonomy so embedders that call the parser
/// directly still get a classified exception.
class ServeError : public Error {
public:
    ServeError(Code code, const std::string& message)
        : Error(message), serve_code_(code) {}

    Code serve_code() const { return serve_code_; }

    ErrorCode code() const override {
        switch (taxonomy_exit_code(serve_code_)) {
            case 3: return ErrorCode::Parse;
            case 4: return ErrorCode::Validation;
            case 5: return ErrorCode::Limit;
            default: return ErrorCode::Generic;
        }
    }

private:
    Code serve_code_;
};

/// One parsed request of the line-delimited JSON protocol. A request is
/// a single-line JSON object; unknown keys are rejected (Code::Usage) so
/// client typos fail loudly instead of silently planning with defaults.
///
///   {"id":1,"method":"open","session":"s","circuit":"INPUT(a)\n...",
///    "format":"bench","mode":"lenient"}
///   {"id":2,"method":"plan","session":"s",
///    "options":{"budget":2,"patterns":64,"planner":"dp","seed":1}}
///   {"id":3,"method":"score","session":"s",
///    "points":[{"node":"n1","kind":"OP"}]}
///
/// Methods: ping, info, open, close, stats, plan, sim, lint, analyze,
/// score.
struct Request {
    std::optional<std::uint64_t> id;  ///< echoed back in the response
    std::string method;
    std::string session;

    // open --------------------------------------------------------------
    std::string circuit;            ///< netlist text, or suite name
    std::string format = "bench";   ///< bench | verilog | suite
    netlist::ValidateMode mode = netlist::ValidateMode::Lenient;

    // options (plan/sim/lint/score) --------------------------------------
    int budget = 8;
    std::size_t patterns = 32768;
    std::string planner = "dp";
    std::uint64_t seed = 1;
    double deadline_ms = 0.0;  ///< 0 = server default; must be > 0 if set
    bool exact_eval = false;  ///< score: from-scratch evaluate_plan
    bool prune_lint = false;
    std::size_t max_findings = 64;
    // lint/analyze work caps (validated, not clamped).
    std::size_t max_implication_nodes = 2048;
    std::size_t max_implication_steps = 200'000;
    std::size_t max_untestable = 4096;
    unsigned sim_width = 64;       ///< sim: pattern width (0 = auto)
    std::uint64_t drop_after = 0;  ///< sim: n-detect drop target (0 = off)

    // score --------------------------------------------------------------
    /// (node name, kind) pairs; names resolve against the session's
    /// circuit at execution time, kinds use the tp_kind_name vocabulary
    /// ("OP", "CP-AND", "CP-OR", "CP-XOR").
    std::vector<std::pair<std::string, netlist::TpKind>> points;

    /// Attach the per-request run report ("report" response key). On by
    /// default per the run-report contract; golden transcript tests turn
    /// it off to stay byte-stable.
    bool want_report = true;
};

/// Parse and strictly validate one request line. Throws ServeError with
/// Code::Protocol (not a JSON object / bad id) or Code::Usage (unknown
/// method or key, malformed field) or Code::Validation (well-typed but
/// out-of-range value, e.g. deadline_ms <= 0).
Request parse_request(std::string_view line);

/// Recover just the `id` of a request line that failed full parsing, so
/// even an error response can be correlated. Returns nullopt when the
/// line is not an object with a non-negative integer "id".
std::optional<std::uint64_t> peek_request_id(std::string_view line);

/// Serialise `text` as a JSON string literal (quotes included).
std::string json_quote(std::string_view text);

/// Build the `ok: false` response line (no trailing newline).
/// `retry_after_ms >= 0` adds the shedding hint field.
std::string error_response(std::optional<std::uint64_t> id, Code code,
                           const std::string& message,
                           double retry_after_ms = -1.0);

/// Build the `ok: true` response line (no trailing newline). `result`
/// and `report` are pre-rendered JSON objects; `report` may be empty to
/// omit the key.
std::string ok_response(std::optional<std::uint64_t> id,
                        const std::string& result,
                        const std::string& report);

/// Splits a byte stream into protocol lines with a hard per-line size
/// cap. Feed raw reads through `append`; completed lines come out in
/// arrival order. A line longer than `max_line` bytes trips the
/// `overflowed` latch — the connection can no longer be framed reliably
/// and must be closed after one protocol error.
class LineFramer {
public:
    explicit LineFramer(std::size_t max_line) : max_line_(max_line) {}

    /// Consume `data`, appending completed lines to `lines`. Returns
    /// false once the size cap is exceeded (sticky).
    bool append(std::string_view data, std::vector<std::string>& lines);

    bool overflowed() const { return overflowed_; }

    /// Bytes of the current, incomplete line (slow-loris diagnostics).
    std::size_t pending_bytes() const { return buffer_.size(); }

private:
    std::size_t max_line_;
    std::string buffer_;
    bool overflowed_ = false;
};

}  // namespace tpi::serve
