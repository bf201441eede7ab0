// Tests for the serve subsystem: protocol parsing and framing, the
// fault-injection plan, the session cache, the Server robustness
// contract (golden transcripts, crash isolation, admission control,
// drain), and a socket round-trip through the Listener.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gen/benchmarks.hpp"
#include "netlist/test_point.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "serve/fault_plan.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tpi/planners.hpp"
#include "util/error.hpp"

namespace {

using namespace tpi;
using serve::Code;

// The golden-transcript circuit: three gates, strict-clean, small
// enough that every derived number is cheap and deterministic. A macro
// so it can splice into the string literals of the golden transcript.
#define KBENCH_JSON                                    \
    "INPUT(a)\\nINPUT(b)\\nINPUT(c)\\nOUTPUT(y)\\n"   \
    "w1 = AND(a, b)\\nw2 = OR(w1, c)\\ny = NAND(w2, a)\\n"
constexpr const char* kBenchJson = KBENCH_JSON;

std::string open_line(const std::string& session,
                      const char* circuit_json = kBenchJson) {
    return std::string(R"({"method": "open", "session": ")") + session +
           R"(", "circuit": ")" + circuit_json + R"(", "report": false})";
}

/// Structured error code of a response line ("" when ok:true).
std::string response_code(const std::string& response) {
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(response, doc, error))
        << response << "\n" << error;
    const obs::json::Value* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
        ADD_FAILURE() << "no boolean ok in: " << response;
        return "?";
    }
    if (ok->boolean) return "";
    const obs::json::Value* err = doc.find("error");
    const obs::json::Value* code =
        err != nullptr ? err->find("code") : nullptr;
    if (code == nullptr || !code->is_string()) {
        ADD_FAILURE() << "no error code in: " << response;
        return "?";
    }
    return code->string;
}

// ---------------------------------------------------------------------
// Protocol: request parsing

TEST(ServeProtocol, ParsesAFullRequest) {
    const serve::Request request = serve::parse_request(
        R"({"id": 7, "method": "plan", "session": "s", "options": )"
        R"({"budget": 3, "patterns": 128, "planner": "greedy", )"
        R"("seed": 9, "deadline_ms": 250.5}})");
    EXPECT_EQ(request.id, 7u);
    EXPECT_EQ(request.method, "plan");
    EXPECT_EQ(request.session, "s");
    EXPECT_EQ(request.budget, 3);
    EXPECT_EQ(request.patterns, 128u);
    EXPECT_EQ(request.planner, "greedy");
    EXPECT_EQ(request.seed, 9u);
    EXPECT_DOUBLE_EQ(request.deadline_ms, 250.5);
}

TEST(ServeProtocol, RejectsNonObjectAndBadJson) {
    for (const char* line : {"[1, 2]", "42", "\"x\"", "{", "", "null"}) {
        try {
            serve::parse_request(line);
            FAIL() << "accepted: " << line;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.serve_code(), Code::Protocol) << line;
        }
    }
}

TEST(ServeProtocol, RejectsUnknownMethodAndUnknownKey) {
    try {
        serve::parse_request(R"({"method": "plant", "session": "s"})");
        FAIL();
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.serve_code(), Code::Usage);
    }
    // Typos in keys must fail loudly, not silently use defaults.
    try {
        serve::parse_request(R"({"method": "ping", "sesion": "s"})");
        FAIL();
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.serve_code(), Code::Usage);
    }
}

// Planners have one scoring path, so no request key selects one:
// `simd_eval` and `eval_epsilon` are unknown keys, and `exact_eval`
// is the score method's reference-path switch.
TEST(ServeProtocol, RejectsRemovedScoringKeys) {
    for (const char* key :
         {"simd_eval", "eval_epsilon", "prune_analysis"}) {
        try {
            serve::parse_request(
                std::string(R"({"method": "plan", "session": "s", )"
                            R"("options": {")") +
                key + R"(": 0}})");
            FAIL() << "accepted " << key;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.serve_code(), Code::Usage) << key;
        }
    }
    EXPECT_TRUE(serve::parse_request(
                    R"({"method": "score", "session": "s", "points": )"
                    R"([{"node": "a", "kind": "OP"}], )"
                    R"("options": {"exact_eval": true}})")
                    .exact_eval);
}

TEST(ServeProtocol, RequiresSessionExceptForPingAndInfo) {
    EXPECT_NO_THROW(serve::parse_request(R"({"method": "ping"})"));
    EXPECT_NO_THROW(serve::parse_request(R"({"method": "info"})"));
    try {
        serve::parse_request(R"({"method": "plan"})");
        FAIL();
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.serve_code(), Code::Usage);
    }
}

TEST(ServeProtocol, RejectsNonPositiveDeadline) {
    for (const char* bad : {"0", "-5", "1e999"}) {
        try {
            serve::parse_request(
                std::string(R"({"method": "lint", "session": "s", )"
                            R"("options": {"deadline_ms": )") +
                bad + "}}");
            FAIL() << "accepted deadline_ms " << bad;
        } catch (const serve::ServeError& e) {
            // 1e999 is not even valid JSON under the hardened parser.
            EXPECT_TRUE(e.serve_code() == Code::Validation ||
                        e.serve_code() == Code::Protocol)
                << bad;
        }
    }
}

TEST(ServeProtocol, PeeksIdFromSemanticallyBrokenLines) {
    // Valid JSON with semantic errors (unknown method, bad fields)
    // still yields the id for error correlation...
    EXPECT_EQ(serve::peek_request_id(R"({"id": 31, "method": "pla"})"),
              31u);
    // ...but a torn or non-JSON line cannot be correlated at all.
    EXPECT_EQ(serve::peek_request_id(R"({"id": 31, "method":)"),
              std::nullopt);
    EXPECT_EQ(serve::peek_request_id("garbage"), std::nullopt);
    EXPECT_EQ(serve::peek_request_id(R"({"id": -2})"), std::nullopt);
}

TEST(ServeProtocol, TaxonomyMappingIsStable) {
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Usage), 2);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::NotFound), 2);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Protocol), 3);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Parse), 3);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Validation), 4);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Limit), 5);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Deadline), 5);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Overloaded), 5);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Draining), 5);
    EXPECT_EQ(serve::taxonomy_exit_code(Code::Internal), 1);
}

TEST(ServeProtocol, ErrorResponseCarriesRetryHint) {
    const std::string response = serve::error_response(
        std::nullopt, Code::Overloaded, "queue full", 40.0);
    EXPECT_EQ(response,
              R"({"id": null, "ok": false, "error": {"code": )"
              R"("overloaded", "message": "queue full", )"
              R"("retry_after_ms": 40}})");
}

// ---------------------------------------------------------------------
// Protocol: line framing

TEST(ServeFramer, ReassemblesAcrossChunksAndStripsCr) {
    serve::LineFramer framer(64);
    std::vector<std::string> lines;
    EXPECT_TRUE(framer.append("abc", lines));
    EXPECT_TRUE(lines.empty());
    EXPECT_EQ(framer.pending_bytes(), 3u);
    EXPECT_TRUE(framer.append("def\r\nsecond\n\nthi", lines));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "abcdef");
    EXPECT_EQ(lines[1], "second");
    EXPECT_EQ(lines[2], "");  // blank line; the listener skips these
    EXPECT_TRUE(framer.append("rd\n", lines));
    EXPECT_EQ(lines.back(), "third");
}

TEST(ServeFramer, OverflowIsStickyAndClearsTheBuffer) {
    serve::LineFramer framer(8);
    std::vector<std::string> lines;
    EXPECT_FALSE(framer.append("123456789", lines));
    EXPECT_TRUE(framer.overflowed());
    EXPECT_EQ(framer.pending_bytes(), 0u);
    // Even a newline cannot resurrect the stream.
    EXPECT_FALSE(framer.append("\nok\n", lines));
    EXPECT_TRUE(lines.empty());
}

// ---------------------------------------------------------------------
// FaultPlan

TEST(ServeFaultPlan, ParsesSpecsAndCountsDeterministically) {
    serve::FaultPlan plan;
    plan.add_rule("plan:delay:25:every=3");
    plan.add_rule("open:alloc");
    EXPECT_FALSE(plan.empty());
    // every=3: fires on hits 3, 6, ...
    EXPECT_FALSE(plan.poll("plan").has_value());
    EXPECT_FALSE(plan.poll("plan").has_value());
    const auto third = plan.poll("plan");
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->kind, serve::FaultPlan::Kind::Delay);
    EXPECT_DOUBLE_EQ(third->param, 25.0);
    EXPECT_FALSE(plan.poll("plan").has_value());
    // Unrelated sites never fire.
    EXPECT_FALSE(plan.poll("sim").has_value());
    const auto open = plan.poll("open");
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(open->kind, serve::FaultPlan::Kind::Alloc);
    EXPECT_EQ(plan.fired(), 2u);
}

TEST(ServeFaultPlan, RejectsBadSpecs) {
    serve::FaultPlan plan;
    EXPECT_THROW(plan.add_rule("nowhere:delay"), ValidationError);
    EXPECT_THROW(plan.add_rule("plan:explode"), ValidationError);
    EXPECT_THROW(plan.add_rule("plan:torn"), ValidationError);
    EXPECT_THROW(plan.add_rule("plan:delay:10:every=0"), ValidationError);
    EXPECT_THROW(plan.add_rule(""), ValidationError);
    EXPECT_NO_THROW(plan.add_rule("write:torn:every=2"));
}

// ---------------------------------------------------------------------
// Server: golden request/response transcript
//
// Byte-exact expectations (reports off). These are the wire contract:
// a change here is a protocol change and must be deliberate.

TEST(ServeGolden, TranscriptIsByteStable) {
    serve::Server server({});
    const std::pair<const char*, const char*> transcript[] = {
        {R"({"id": 1, "method": "open", "session": "g", "circuit": )"
         "\"" KBENCH_JSON "\""
         R"(, "format": "bench", "mode": "strict", "report": false})",
         R"({"id": 1, "ok": true, "result": {"session": "g", "nodes": )"
         R"(6, "gates": 3, "inputs": 3, "outputs": 1, "faults": 12, )"
         R"("collapsed_faults": 8, "repairs": 0}})"},
        {R"({"id": 2, "method": "plan", "session": "g", "options": )"
         R"({"budget": 2, "patterns": 64, "planner": "dp", "seed": 1}, )"
         R"("report": false})",
         R"({"id": 2, "ok": true, "result": {"planner": "dp", )"
         R"("points": [{"node": "w1", "kind": "OP"}, {"node": "w2", )"
         R"("kind": "OP"}], "predicted_score": 11.999999969612173, )"
         R"("truncated": false}})"},
        {R"({"id": 3, "method": "sim", "session": "g", "options": )"
         R"({"patterns": 64, "seed": 1}, "report": false})",
         R"({"id": 3, "ok": true, "result": {"coverage": 1, )"
         R"("patterns_applied": 64, "undetected": 0, "dropped": 8, )"
         R"("sim_width": 64, "truncated": false}})"},
        {R"({"id": 4, "method": "sim", "session": "g", "options": )"
         R"({"patterns": 64, "seed": 1, "sim_width": 512, )"
         R"("drop_after": 2}, "report": false})",
         R"({"id": 4, "ok": true, "result": {"coverage": 1, )"
         R"("patterns_applied": 64, "undetected": 0, "dropped": 8, )"
         R"("sim_width": 512, "truncated": false}})"},
        {R"({"id": 5, "method": "lint", "session": "g", )"
         R"("report": false})",
         R"({"id": 5, "ok": true, "result": {"findings": 1, )"
         R"("errors": 0, "warnings": 0, "truncated": false}})"},
        {R"({"id": 6, "method": "score", "session": "g", "points": )"
         R"([{"node": "w1", "kind": "OP"}], "options": )"
         R"({"patterns": 64}, "report": false})",
         R"({"id": 6, "ok": true, "result": {"score": )"
         R"(11.999994890121329, "estimated_coverage": )"
         R"(0.9999995741767774, "min_detection_probability": 0.1875, )"
         R"("points": 1, "engine_warm": false, "engine_version": 1}})"},
        {R"({"id": 7, "method": "score", "session": "g", "points": )"
         R"([{"node": "w1", "kind": "OP"}], "options": )"
         R"({"patterns": 64}, "report": false})",
         R"({"id": 7, "ok": true, "result": {"score": )"
         R"(11.999994890121329, "estimated_coverage": )"
         R"(0.9999995741767774, "min_detection_probability": 0.1875, )"
         R"("points": 1, "engine_warm": true, "engine_version": 1}})"},
        {R"({"id": 8, "method": "close", "session": "g", )"
         R"("report": false})",
         R"({"id": 8, "ok": true, "result": {"closed": true}})"},
    };
    for (const auto& [request, expected] : transcript)
        EXPECT_EQ(server.execute_line(request), expected) << request;
}

TEST(ServeGolden, ReportOnAttachesAParseableRunReport) {
    serve::Server server({});
    server.execute_line(open_line("r"));
    const std::string response = server.execute_line(
        R"({"id": 2, "method": "lint", "session": "r"})");
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(response, doc, error)) << error;
    const obs::json::Value* report = doc.find("report");
    ASSERT_NE(report, nullptr);
    EXPECT_TRUE(report->is_object());
    const obs::json::Value* exit_code = report->find("exit_code");
    ASSERT_NE(exit_code, nullptr);
    EXPECT_EQ(exit_code->number, 0.0);
    // The embedded report is the PR 4 schema: normalisation for diffing
    // must be idempotent on the full response line as well.
    const std::string normalized = obs::normalized_for_diff(response);
    EXPECT_EQ(obs::normalized_for_diff(normalized), normalized);
}

TEST(ServeGolden, ErrorResponsesStillCarryAReport) {
    serve::Server server({});
    const std::string response = server.execute_line(
        R"({"id": 3, "method": "lint", "session": "missing"})");
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(response, doc, error)) << error;
    EXPECT_EQ(response_code(response), "not_found");
    const obs::json::Value* report = doc.find("report");
    ASSERT_NE(report, nullptr);
    const obs::json::Value* exit_code = report->find("exit_code");
    ASSERT_NE(exit_code, nullptr);
    EXPECT_EQ(exit_code->number, 2.0);  // not_found -> taxonomy 2
}

// ---------------------------------------------------------------------
// Server: crash isolation / differential state

TEST(ServeIsolation, FailedRequestsLeaveSessionStateByteIdentical) {
    serve::FaultPlan faults;
    faults.add_rule("score:alloc:every=4");     // fires on the 4th score
    faults.add_rule("score:deadline:every=3");  // fires on the 3rd
    serve::ServerOptions options;
    options.faults = &faults;
    serve::Server server(options);
    server.execute_line(open_line("iso"));

    // Warm the engine (score hit 1: no fault).
    const std::string warm = server.execute_line(
        R"({"method": "score", "session": "iso", "points": )"
        R"([{"node": "w1", "kind": "OP"}], "report": false})");
    EXPECT_EQ(response_code(warm), "");
    const std::string fingerprint = server.session_fingerprint("iso");
    ASSERT_FALSE(fingerprint.empty());

    // Validation error (hit 2): rejected before any engine mutation.
    const std::string bad_node = server.execute_line(
        R"({"method": "score", "session": "iso", "points": )"
        R"([{"node": "nope", "kind": "OP"}], "report": false})");
    EXPECT_EQ(response_code(bad_node), "validation");

    // Forced deadline expiry (hit 3): the injected fault cancels the
    // request deadline, so scoring is refused before any engine
    // mutation.
    const std::string blown = server.execute_line(
        R"({"method": "score", "session": "iso", "points": )"
        R"([{"node": "w1", "kind": "OP"}], "report": false})");
    EXPECT_EQ(response_code(blown), "deadline");

    // Injected allocation failure (hit 4). The cached engine is
    // discarded, never half-committed: the version bump is part of the
    // fingerprint, so compare state after re-warming below.
    const std::string alloc = server.execute_line(
        R"({"method": "score", "session": "iso", "points": )"
        R"([{"node": "w1", "kind": "OP"}], "report": false})");
    EXPECT_EQ(response_code(alloc), "internal");

    // A successful score after the abuse: identical numbers, and the
    // COP/fault state fingerprint matches the pre-abuse one except for
    // the engine version counter (bumped by the discard).
    const std::string again = server.execute_line(
        R"({"method": "score", "session": "iso", "points": )"
        R"([{"node": "w1", "kind": "OP"}], "report": false})");
    EXPECT_EQ(response_code(again), "");
    const std::string after = server.session_fingerprint("iso");
    const auto strip_version = [](std::string text) {
        const std::size_t at = text.find("|engine:v");
        if (at == std::string::npos) return text;
        const std::size_t colon = text.find(':', at + 9);
        text.erase(at + 9, (colon == std::string::npos
                                ? text.size()
                                : colon) -
                               (at + 9));
        return text;
    };
    EXPECT_EQ(strip_version(after), strip_version(fingerprint));
}

TEST(ServeIsolation, ErroredRequestNeverTouchesCopOrFaultState) {
    serve::Server server({});
    server.execute_line(open_line("pure"));
    const std::string before = server.session_fingerprint("pure");
    for (const char* line :
         {R"({"method": "score", "session": "pure", "points": )"
          R"([{"node": "ghost", "kind": "OP"}]})",
          R"({"method": "plan", "session": "pure", "options": )"
          R"({"planner": "quantum"}})",
          R"({"method": "sim", "session": "pure", "options": )"
          R"({"deadline_ms": 1e-9}})"}) {
        server.execute_line(line);
    }
    EXPECT_EQ(server.session_fingerprint("pure"), before);
}

// Two control points, or two observation points, on one net break the
// transform contract. `score` rejects them as a validation error on the
// warm-engine and the exact_eval path alike, before the engine is
// touched: the session keeps its warm engine and its version.
TEST(ServeIsolation, DuplicatePointsOnOneNetAreAValidationError) {
    serve::Server server({});
    server.execute_line(open_line("dup"));
    const auto score = [&](const std::string& points,
                           const char* options) {
        return server.execute_line(
            R"({"method": "score", "session": "dup", "points": )" +
            points + R"(, "options": )" + options +
            R"(, "report": false})");
    };
    const auto result_field = [](const std::string& response,
                                 const char* key) {
        obs::json::Value doc;
        std::string error;
        EXPECT_TRUE(obs::json::parse(response, doc, error)) << error;
        const obs::json::Value* result = doc.find("result");
        const obs::json::Value* field =
            result != nullptr ? result->find(key) : nullptr;
        EXPECT_NE(field, nullptr) << response;
        return field != nullptr ? *field : obs::json::Value{};
    };
    const std::string plain = R"([{"node": "w1", "kind": "OP"}])";
    const std::string first = score(plain, "{}");
    ASSERT_EQ(response_code(first), "") << first;
    EXPECT_EQ(result_field(first, "engine_version").number, 1.0);

    for (const char* points :
         {R"([{"node": "w1", "kind": "CP-AND"}, )"
          R"({"node": "w1", "kind": "CP-OR"}])",
          R"([{"node": "w2", "kind": "OP"}, {"node": "w1", "kind": "OP"}, )"
          R"({"node": "w2", "kind": "OP"}])"}) {
        for (const char* options : {"{}", R"({"exact_eval": true})"}) {
            const std::string response = score(points, options);
            EXPECT_EQ(response_code(response), "validation")
                << points << " " << options << "\n" << response;
        }
    }
    // A control and an observation point on one net are both legal.
    EXPECT_EQ(response_code(score(R"([{"node": "w1", "kind": "CP-AND"}, )"
                                  R"({"node": "w1", "kind": "OP"}])",
                                  "{}")),
              "");

    const std::string after = score(plain, "{}");
    ASSERT_EQ(response_code(after), "") << after;
    EXPECT_TRUE(result_field(after, "engine_warm").boolean);
    EXPECT_EQ(result_field(after, "engine_version").number, 1.0);
    EXPECT_EQ(result_field(after, "score").number,
              result_field(first, "score").number);
}

// `exact_eval` is the score method's from-scratch reference path: the
// same numbers as the warm engine, without touching it. `plan` ignores
// the option, like every method ignores options that do not apply.
TEST(ServeDifferential, ExactEvalScoreMatchesWarmEngine) {
    serve::Server server({});
    server.execute_line(open_line("ex"));
    const char* points =
        R"("points": [{"node": "w1", "kind": "CP-XOR"}, )"
        R"({"node": "w2", "kind": "OP"}])";
    const std::string warm = server.execute_line(
        std::string(R"({"method": "score", "session": "ex", )") + points +
        R"(, "report": false})");
    const std::string exact = server.execute_line(
        std::string(R"({"method": "score", "session": "ex", )") + points +
        R"(, "options": {"exact_eval": true}, "report": false})");
    ASSERT_EQ(response_code(warm), "") << warm;
    ASSERT_EQ(response_code(exact), "") << exact;
    obs::json::Value warm_doc;
    obs::json::Value exact_doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(warm, warm_doc, error)) << error;
    ASSERT_TRUE(obs::json::parse(exact, exact_doc, error)) << error;
    for (const char* key :
         {"score", "estimated_coverage", "min_detection_probability"})
        EXPECT_EQ(warm_doc.find("result")->find(key)->number,
                  exact_doc.find("result")->find(key)->number)
            << key;

    const auto plan = [&](const char* extra) {
        return server.execute_line(
            std::string(R"({"method": "plan", "session": "ex", )"
                        R"("options": {"budget": 2, "patterns": 64)") +
            extra + R"(}, "report": false})");
    };
    EXPECT_EQ(plan(R"(, "exact_eval": true)"), plan(""));
}

// ---------------------------------------------------------------------
// Server: session-cached plan vs the batch planner path

TEST(ServeDifferential, CachedPlanMatchesBatchPlannerBitForBit) {
    serve::Server server({});
    server.execute_line(
        R"({"method": "open", "session": "d", "circuit": "chain24", )"
        R"("format": "suite", "report": false})");
    const std::string response = server.execute_line(
        R"({"method": "plan", "session": "d", "options": {"budget": 2, )"
        R"("patterns": 256, "planner": "dp", "seed": 5}, )"
        R"("report": false})");
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(response, doc, error)) << error;
    const obs::json::Value* result = doc.find("result");
    ASSERT_NE(result, nullptr) << response;

    const netlist::Circuit circuit = gen::suite_entry("chain24").build();
    PlannerOptions options;
    options.budget = 2;
    options.objective.num_patterns = 256;
    options.seed = 5;
    options.threads = 1;
    const Plan local = DpPlanner().plan(circuit, options);
    ASSERT_FALSE(local.points.empty());

    const obs::json::Value* points = result->find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), local.points.size());
    for (std::size_t i = 0; i < local.points.size(); ++i) {
        EXPECT_EQ(points->array[i].find("node")->string,
                  circuit.node_name(local.points[i].node));
        EXPECT_EQ(points->array[i].find("kind")->string,
                  netlist::tp_kind_name(local.points[i].kind));
    }
    EXPECT_EQ(result->find("predicted_score")->number,
              local.predicted_score);
}

// ---------------------------------------------------------------------
// Server: the analyze method (static analysis engine round-trip)

// AND(x, NOT x) is a contradiction: the analysis engine must learn
// g == 0, prove the masked faults untestable, and report the output as
// a zero-gain observe site (obs(z) along the transparent OR is 1).
#define KCONTRA_JSON                                  \
    "INPUT(x)\\nINPUT(y)\\nOUTPUT(z)\\nnx = NOT(x)\\n" \
    "g = AND(x, nx)\\nz = OR(g, y)\\n"

TEST(ServeAnalyze, RoundTripLearnsConstantsAndUntestableFaults) {
    serve::Server server({});
    EXPECT_EQ(response_code(server.execute_line(
                  open_line("an", KCONTRA_JSON))),
              "");
    const std::string response = server.execute_line(
        R"({"method": "analyze", "session": "an", "report": false})");
    EXPECT_EQ(response_code(response), "");

    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(response, doc, error)) << error;
    const obs::json::Value* result = doc.find("result");
    ASSERT_NE(result, nullptr) << response;
    EXPECT_GT(result->find("nodes")->number, 0.0);
    EXPECT_GT(result->find("implications_learned")->number, 0.0);
    EXPECT_GT(result->find("certificates")->number, 0.0);
    EXPECT_FALSE(result->find("truncated")->boolean);

    // g = AND(x, NOT x) must be learned as the constant 0.
    const obs::json::Value* constants =
        result->find("learned_constants");
    ASSERT_NE(constants, nullptr);
    bool g_is_zero = false;
    for (const obs::json::Value& c : constants->array)
        if (c.find("node")->string == "g" &&
            c.find("value")->number == 0.0)
            g_is_zero = true;
    EXPECT_TRUE(g_is_zero) << response;

    // Faults masked by the constant are reported untestable, and the
    // transparent OR chain makes the output a zero-gain observe site.
    ASSERT_NE(result->find("untestable_faults"), nullptr);
    EXPECT_FALSE(result->find("untestable_faults")->array.empty());
    EXPECT_GE(result->find("zero_gain_observe_sites")->number, 1.0);
}

TEST(ServeAnalyze, WorkCapsAreValidatedNotClamped) {
    serve::Server server({});
    server.execute_line(open_line("av"));
    // A zero step cap is structurally broken input: the analysis layer
    // rejects it (exit-4 contract), it is never silently clamped.
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "analyze", "session": "av", "options": )"
                  R"({"max_implication_steps": 0}, "report": false})")),
              "validation");
    // A typo in an option key fails loudly as usage, not defaults.
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "analyze", "session": "av", "options": )"
                  R"({"max_implication_stepz": 8}, "report": false})")),
              "usage");
    // The session must still be healthy after both errors.
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "analyze", "session": "av", )"
                  R"("report": false})")),
              "");
}

// ---------------------------------------------------------------------
// Server: admission control, shedding, drain

TEST(ServeAdmission, QueueFullShedsWithRetryHint) {
    serve::FaultPlan faults;
    faults.add_rule("plan:delay:30:every=1");
    serve::ServerOptions options;
    options.max_queue = 2;
    options.workers = 1;
    options.max_batch = 1;
    options.faults = &faults;
    serve::Server server(options);
    server.execute_line(open_line("adm"));
    server.start();

    constexpr int kBurst = 12;
    std::vector<std::string> responses(kBurst);
    std::atomic<int> answered{0};
    for (int i = 0; i < kBurst; ++i)
        server.submit(
            R"({"method": "plan", "session": "adm", "options": )"
            R"({"budget": 1, "patterns": 32}, "report": false})",
            [&responses, &answered, i](std::string&& response) {
                responses[i] = std::move(response);
                ++answered;
            });
    server.drain();
    ASSERT_EQ(answered.load(), kBurst);  // every callback fired once

    int ok = 0;
    int shed = 0;
    for (const std::string& response : responses) {
        const std::string code = response_code(response);
        if (code.empty())
            ++ok;
        else if (code == "overloaded") {
            ++shed;
            EXPECT_NE(response.find("retry_after_ms"), std::string::npos);
        } else
            ADD_FAILURE() << "unexpected code " << code << ": "
                          << response;
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(shed, 0);
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.shed_overload, static_cast<std::uint64_t>(shed));
    EXPECT_EQ(stats.accepted, stats.completed);
}

TEST(ServeAdmission, DrainFinishesAdmittedWorkThenRefuses) {
    serve::Server server({});
    server.execute_line(open_line("dr"));
    server.start();
    std::atomic<int> answered{0};
    std::vector<std::string> responses(4);
    for (int i = 0; i < 4; ++i)
        server.submit(
            R"({"method": "stats", "session": "dr", "report": false})",
            [&responses, &answered, i](std::string&& response) {
                responses[i] = std::move(response);
                ++answered;
            });
    server.drain();
    EXPECT_EQ(answered.load(), 4);
    for (const std::string& response : responses)
        EXPECT_EQ(response_code(response), "") << response;

    // After drain, submissions are refused with the draining code.
    std::string refused;
    server.submit(R"({"method": "ping"})",
                  [&refused](std::string&& response) {
                      refused = std::move(response);
                  });
    EXPECT_EQ(response_code(refused), "draining");
    EXPECT_TRUE(server.draining());
    EXPECT_EQ(server.stats().queue_depth, 0u);
}

// ---------------------------------------------------------------------
// Session cache: LRU eviction and limits

TEST(ServeCache, EvictsLeastRecentlyUsedSession) {
    serve::ServerOptions options;
    options.session_limits.max_sessions = 2;
    serve::Server server(options);
    server.execute_line(open_line("a"));
    server.execute_line(open_line("b"));
    // Touch "a" so "b" is now least recently used.
    server.execute_line(
        R"({"method": "stats", "session": "a", "report": false})");
    server.execute_line(open_line("c"));

    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "stats", "session": "b"})")),
              "not_found");
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "stats", "session": "a"})")),
              "");
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "stats", "session": "c"})")),
              "");
    EXPECT_EQ(server.sessions().stats().evictions, 1u);
    EXPECT_EQ(server.sessions().stats().sessions, 2u);
}

TEST(ServeCache, ResidentNodeCapEvictsAndOversizeIsRefused) {
    serve::ServerOptions options;
    options.session_limits.max_sessions = 8;
    // chain24 has a few dozen nodes; two of them cannot coexist.
    options.session_limits.max_resident_nodes = 60;
    serve::Server server(options);
    const auto open_suite = [&](const char* name, const char* circuit) {
        return server.execute_line(
            std::string(R"({"method": "open", "session": ")") + name +
            R"(", "circuit": ")" + circuit +
            R"(", "format": "suite", "report": false})");
    };
    EXPECT_EQ(response_code(open_suite("one", "chain24")), "");
    EXPECT_EQ(response_code(open_suite("two", "chain24")), "");
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "stats", "session": "one"})")),
              "not_found");
    EXPECT_GE(server.sessions().stats().evictions, 1u);
    // A single circuit bigger than the cap is refused outright and
    // does not evict anything.
    const std::uint64_t evictions_before =
        server.sessions().stats().evictions;
    EXPECT_EQ(response_code(open_suite("big", "dag500")), "limit");
    EXPECT_EQ(server.sessions().stats().evictions, evictions_before);
    EXPECT_EQ(response_code(server.execute_line(
                  R"({"method": "stats", "session": "two"})")),
              "");
}

// ---------------------------------------------------------------------
// Listener: socket round-trip

class SocketClient {
public:
    explicit SocketClient(const std::string& path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~SocketClient() {
        if (fd_ >= 0) ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    void send_line(const std::string& line) { send_all(line + "\n"); }

    void send_all(const std::string& data) {
        ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(data.size()));
    }

    std::string recv_line() {
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                const std::string line = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) return {};
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    bool eof() {
        char byte;
        for (;;) {
            const ssize_t n = ::recv(fd_, &byte, 1, 0);
            if (n == 0) return true;
            if (n < 0) return false;
        }
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

std::string test_socket_path() {
    return "/tmp/tpidp_test_" + std::to_string(::getpid()) + ".sock";
}

TEST(ServeListener, UnixSocketRoundTripAndOrderedPipelining) {
    serve::Server server({});
    serve::ListenerOptions options;
    options.endpoint.unix_path = test_socket_path();
    serve::Listener listener(server, options);
    server.start();
    listener.start();

    SocketClient client(options.endpoint.unix_path);
    ASSERT_TRUE(client.ok());
    client.send_line(R"({"id": 1, "method": "ping", "report": false})");
    EXPECT_EQ(client.recv_line(),
              R"({"id": 1, "ok": true, "result": {"pong": true}})");

    // Pipelined requests come back in submission order.
    std::string burst;
    for (int i = 2; i <= 9; ++i)
        burst += R"({"id": )" + std::to_string(i) +
                 R"(, "method": "ping", "report": false})" + "\n";
    client.send_all(burst);
    for (int i = 2; i <= 9; ++i)
        EXPECT_EQ(client.recv_line(),
                  R"({"id": )" + std::to_string(i) +
                      R"(, "ok": true, "result": {"pong": true}})");

    listener.shutdown();
    ::unlink(options.endpoint.unix_path.c_str());
}

TEST(ServeListener, OversizedLineGetsOneProtocolErrorThenEof) {
    serve::Server server({});
    serve::ListenerOptions options;
    options.endpoint.unix_path = test_socket_path() + ".big";
    options.max_line_bytes = 128;
    serve::Listener listener(server, options);
    server.start();
    listener.start();

    SocketClient client(options.endpoint.unix_path);
    ASSERT_TRUE(client.ok());
    client.send_line(std::string(256, 'x'));
    const std::string response = client.recv_line();
    EXPECT_EQ(response_code(response), "protocol");
    EXPECT_TRUE(client.eof());

    listener.shutdown();
    ::unlink(options.endpoint.unix_path.c_str());
}

TEST(ServeListener, TcpLoopbackWithKernelPickedPort) {
    serve::Server server({});
    serve::ListenerOptions options;
    options.endpoint.tcp = true;
    options.endpoint.tcp_port = 0;
    serve::Listener listener(server, options);
    server.start();
    listener.start();
    ASSERT_NE(listener.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string ping = "{\"method\": \"ping\"}\n";
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    std::string buffer;
    char chunk[512];
    while (buffer.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0);
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_NE(buffer.find("\"pong\": true"), std::string::npos);
    ::close(fd);
    listener.shutdown();
}

}  // namespace
