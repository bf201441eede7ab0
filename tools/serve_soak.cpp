// serve_soak — chaos/soak harness for the `tpidp serve` daemon.
//
//   serve_soak [--seed S] [--clients N] [--requests R] [--budget-ms M]
//              [--fault SPEC]... [--verbose]
//
// Hosts the daemon in-process (Server + Listener on a Unix socket) so a
// single binary exercises both sides of the wire under the sanitizers,
// then abuses it in three phases:
//
//   1. chaos — N client threads issue mixed traffic: well-formed
//      open/plan/sim/lint/score/stats/close, malformed lines, oversized
//      lines (connection must die with one structured protocol error),
//      slow-loris partial writes, and pipelined bursts — all while a
//      deterministic FaultPlan injects allocation failures, forced
//      deadline expiries, delays, and torn (1-byte) response writes.
//      Contract: every request gets exactly one well-formed single-line
//      JSON response with a structured code; the daemon never crashes.
//
//   2. overload — one client pipelines a burst far past the admission
//      queue bound; at least one request must be shed with the
//      structured `overloaded` error and a retry_after_ms hint, and
//      every burst response must still be well-formed and in order.
//
//   3. differential probe — after the abuse stops, a fresh session's
//      plan must be bit-identical to the same plan computed locally
//      with DpPlanner (the batch CLI path), and repeating the request
//      must produce a byte-identical response line.
//
// After shutdown the admission ledger must balance (accepted ==
// completed, empty queue) and the LRU cache must have evicted at least
// once. Exit 0 on success, 1 on violation, 2 on usage error.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gen/benchmarks.hpp"
#include "netlist/test_point.hpp"
#include "obs/json.hpp"
#include "serve/fault_plan.hpp"
#include "serve/listener.hpp"
#include "serve/server.hpp"
#include "tpi/planners.hpp"
#include "util/rng.hpp"

namespace {

using namespace tpi;

constexpr const char* kBenchJson =
    "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\ny = NAND(a, b)\\n";

const char* kKnownCodes[] = {"protocol",  "usage",      "not_found",
                             "parse",     "validation", "limit",
                             "deadline",  "overloaded", "draining",
                             "internal"};

std::atomic<std::uint64_t> g_violations{0};
std::mutex g_log_mutex;

void violation(const std::string& what) {
    ++g_violations;
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::cerr << "CONTRACT VIOLATION: " << what << "\n";
}

/// One client connection: blocking socket with a receive timeout (a
/// hang is itself a contract violation) and a line-reassembly buffer
/// that tolerates the torn-write fault splitting responses into 1-byte
/// syscalls.
class Client {
public:
    explicit Client(const std::string& path) : path_(path) { connect(); }
    ~Client() { disconnect(); }

    bool connected() const { return fd_ >= 0; }

    void reconnect() {
        disconnect();
        connect();
    }

    bool send_all(std::string_view data) {
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR) continue;
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool send_line(const std::string& line) {
        return send_all(line + "\n");
    }

    /// Read one newline-terminated response. Returns false on EOF or
    /// error; a receive timeout is reported as a violation (the daemon
    /// must never swallow a request).
    bool recv_line(std::string& out, bool timeout_is_violation = true) {
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                out = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                return true;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n > 0) {
                buffer_.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
                timeout_is_violation)
                violation("response timed out (request swallowed?)");
            return false;
        }
    }

    /// True when the peer has closed the stream (used after an
    /// oversized line: the daemon must drop the connection).
    bool at_eof() {
        char chunk[256];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0) return true;
            if (n < 0 && errno == EINTR) continue;
            if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
        }
    }

private:
    void connect() {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) return;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
            return;
        }
        timeval timeout{};
        timeout.tv_sec = 20;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        buffer_.clear();
    }

    void disconnect() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    std::string path_;
    int fd_ = -1;
    std::string buffer_;
};

/// Validate one response line against the wire contract; counts a
/// violation and returns false when broken. `code_out`, when non-null,
/// receives the structured error code ("" for ok:true).
bool check_response(const std::string& response, std::string* code_out) {
    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(response, doc, error)) {
        violation("response is not strict JSON (" + error +
                  "): " + response);
        return false;
    }
    const obs::json::Value* ok = doc.find("ok");
    if (!doc.is_object() || ok == nullptr || !ok->is_bool()) {
        violation("response lacks a boolean 'ok': " + response);
        return false;
    }
    if (code_out != nullptr) code_out->clear();
    if (!ok->boolean) {
        const obs::json::Value* err = doc.find("error");
        const obs::json::Value* code =
            err != nullptr ? err->find("code") : nullptr;
        if (code == nullptr || !code->is_string() ||
            std::find(std::begin(kKnownCodes), std::end(kKnownCodes),
                      code->string) == std::end(kKnownCodes)) {
            violation("ok:false response without a known code: " +
                      response);
            return false;
        }
        if (code->string == "overloaded" &&
            err->find("retry_after_ms") == nullptr) {
            violation("overloaded response lacks retry_after_ms: " +
                      response);
            return false;
        }
        if (code_out != nullptr) *code_out = code->string;
    }
    return true;
}

struct ClientTally {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t reconnects = 0;
};

/// One chaos client: a deterministic stream of mixed traffic.
void chaos_client(const std::string& path, std::uint64_t seed,
                  std::uint64_t requests, std::uint64_t budget_ms,
                  std::size_t oversize_bytes, ClientTally& tally) {
    util::Rng rng(seed);
    Client client(path);
    const auto start = std::chrono::steady_clock::now();
    const auto session = [&](std::uint64_t i) {
        return "s" + std::to_string(i % 4);
    };

    for (std::uint64_t it = 0; it < requests; ++it) {
        if (budget_ms > 0) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) >= budget_ms) break;
        }
        if (!client.connected()) {
            client.reconnect();
            ++tally.reconnects;
            if (!client.connected()) {
                violation("client could not reconnect");
                return;
            }
        }

        const std::string name = session(rng.below(4));
        std::string line;
        bool expect_eof = false;
        int expected_responses = 1;
        switch (rng.below(16)) {
            case 0:
            case 1: {  // open: suite, inline bench, or broken text
                const auto flavour = rng.below(3);
                if (flavour == 0)
                    line = R"({"method": "open", "session": ")" + name +
                           R"(", "circuit": "c17", "format": "suite"})";
                else if (flavour == 1)
                    line = R"({"method": "open", "session": ")" + name +
                           R"(", "circuit": ")" + kBenchJson + R"("})";
                else
                    line = R"({"method": "open", "session": ")" + name +
                           R"(", "circuit": "y = NAND(a\n"})";
                break;
            }
            case 2:
            case 3:
                line = R"({"method": "plan", "session": ")" + name +
                       R"(", "options": {"budget": 1, "patterns": 64, )"
                       R"("planner": ")" +
                       (rng.below(2) == 0 ? "dp" : "greedy") + R"("}})";
                break;
            case 4:
                line = R"({"method": "sim", "session": ")" + name +
                       R"(", "options": {"patterns": 128, "seed": )" +
                       std::to_string(rng.below(100)) + "}}";
                break;
            case 5:
                line = R"({"method": "lint", "session": ")" + name +
                       R"("})";
                break;
            case 6:
                line = R"({"method": "score", "session": ")" + name +
                       R"(", "points": [{"node": "y", "kind": "OP"}]})";
                break;
            case 7:
                line = R"({"method": "stats", "session": ")" + name +
                       R"("})";
                break;
            case 8:
                line = R"({"method": "close", "session": ")" + name +
                       R"("})";
                break;
            case 9:  // tiny deadline: truncated or deadline error
                line = R"({"method": "plan", "session": ")" + name +
                       R"(", "options": {"deadline_ms": 2}})";
                break;
            case 10:  // malformed JSON
                line = R"({"method": "plan", "session":)";
                break;
            case 11:  // unknown method / key typo
                line = rng.below(2) == 0
                           ? R"({"method": "plant", "session": "x"})"
                           : R"({"method": "ping", "sesion": "x"})";
                break;
            case 12: {  // oversized line: one protocol error, then EOF
                line.assign(oversize_bytes + 64, 'x');
                expect_eof = true;
                break;
            }
            case 13: {  // slow-loris: a ping written in two halves
                const std::string ping = R"({"method": "ping"})";
                const std::size_t cut = 1 + rng.below(ping.size() - 1);
                if (!client.send_all(ping.substr(0, cut))) {
                    client.reconnect();
                    ++tally.reconnects;
                    continue;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(rng.below(20)));
                line = ping.substr(cut);
                break;
            }
            case 14: {  // pipelined burst of pings
                expected_responses = 4;
                std::string burst;
                for (int i = 0; i < expected_responses; ++i)
                    burst += R"({"id": )" + std::to_string(i) +
                             R"(, "method": "ping"})" + "\n";
                if (!client.send_all(burst)) {
                    client.reconnect();
                    ++tally.reconnects;
                    continue;
                }
                line.clear();
                break;
            }
            default:
                line = R"({"method": "ping"})";
                break;
        }

        if (!line.empty() && !client.send_line(line)) {
            client.reconnect();
            ++tally.reconnects;
            continue;
        }
        tally.sent += static_cast<std::uint64_t>(expected_responses);

        for (int i = 0; i < expected_responses; ++i) {
            std::string response;
            if (!client.recv_line(response)) {
                // EOF is only legitimate right after an oversized line.
                if (!expect_eof)
                    violation("connection dropped without a response");
                client.reconnect();
                ++tally.reconnects;
                break;
            }
            std::string code;
            if (check_response(response, &code)) {
                if (code.empty())
                    ++tally.ok;
                else
                    ++tally.errors;
                if (expect_eof && code != "protocol")
                    violation("oversized line answered with '" + code +
                              "', expected 'protocol'");
            }
        }
        if (expect_eof) {
            if (!client.at_eof())
                violation(
                    "connection survived an unframeable oversized line");
            client.reconnect();
            ++tally.reconnects;
        }
    }
}

/// Phase 2: pipeline a burst far past the queue bound; at least one
/// request must shed with `overloaded`, and the ok/overloaded split
/// must come back well-formed and id-ordered.
bool overload_burst(const std::string& path, std::size_t burst_size) {
    Client client(path);
    if (!client.connected()) {
        violation("overload client could not connect");
        return false;
    }
    std::string response;
    // The periodic open:alloc chaos fault may claim one attempt; it
    // cannot fire twice in a row, so one retry is deterministic.
    for (int attempt = 0; attempt < 2; ++attempt) {
        client.send_line(
            R"({"id": 1, "method": "open", "session": "burst", )"
            R"("circuit": "c17", "format": "suite", "report": false})");
        if (client.recv_line(response) &&
            response.find("\"ok\": true") != std::string::npos)
            break;
        if (attempt == 1) {
            violation("overload open failed: " + response);
            return false;
        }
    }

    std::string burst;
    for (std::size_t i = 0; i < burst_size; ++i)
        burst += R"({"id": )" + std::to_string(100 + i) +
                 R"(, "method": "plan", "session": "burst", )"
                 R"("options": {"budget": 1, "patterns": 64}, )"
                 R"("report": false})" +
                 "\n";
    if (!client.send_all(burst)) {
        violation("overload burst write failed");
        return false;
    }

    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    double last_id = -1.0;
    for (std::size_t i = 0; i < burst_size; ++i) {
        if (!client.recv_line(response)) {
            violation("overload burst lost a response");
            return false;
        }
        std::string code;
        if (!check_response(response, &code)) continue;
        if (code.empty())
            ++ok;
        else if (code == "overloaded")
            ++shed;
        else
            violation("unexpected burst error '" + code +
                      "': " + response);
        obs::json::Value doc;
        std::string error;
        obs::json::parse(response, doc, error);
        if (const obs::json::Value* id = doc.find("id");
            id != nullptr && id->is_number()) {
            if (id->number <= last_id)
                violation("burst responses out of order");
            last_id = id->number;
        }
    }
    if (shed == 0) {
        violation("burst of " + std::to_string(burst_size) +
                  " never tripped admission control");
        return false;
    }
    std::cout << "overload: " << ok << " served, " << shed
              << " shed with structured overloaded errors\n";
    return true;
}

/// Phase 3: the daemon's plan for a fresh session must be bit-identical
/// to the same plan computed locally through the planner API (the batch
/// CLI path), and repeating the identical request must yield a
/// byte-identical response line.
bool differential_probe(const std::string& path) {
    Client client(path);
    if (!client.connected()) {
        violation("probe client could not connect");
        return false;
    }
    std::string response;
    for (int attempt = 0; attempt < 2; ++attempt) {
        client.send_line(
            R"({"id": 900, "method": "open", "session": "diffprobe", )"
            R"("circuit": "chain24", "format": "suite", "report": false})");
        if (client.recv_line(response) &&
            response.find("\"ok\": true") != std::string::npos)
            break;
        if (attempt == 1) {
            violation("probe open failed: " + response);
            return false;
        }
    }

    const std::string plan_request =
        R"({"id": 901, "method": "plan", "session": "diffprobe", )"
        R"("options": {"budget": 3, "patterns": 256, "planner": "dp", )"
        R"("seed": 5}, "report": false})";
    std::string first;
    std::string second;
    client.send_line(plan_request);
    if (!client.recv_line(first)) return false;
    client.send_line(plan_request);
    if (!client.recv_line(second)) return false;
    if (first != second) {
        violation("repeated plan response not byte-identical:\n  " +
                  first + "\n  " + second);
        return false;
    }

    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(first, doc, error)) {
        violation("probe plan response unparseable: " + first);
        return false;
    }
    const obs::json::Value* result = doc.find("result");
    if (result == nullptr) {
        violation("probe plan failed: " + first);
        return false;
    }
    const obs::json::Value* truncated = result->find("truncated");
    if (truncated == nullptr || truncated->boolean) {
        violation("probe plan truncated; differential compare void");
        return false;
    }

    // The batch path: same circuit, same options, same planner code.
    const netlist::Circuit circuit = gen::suite_entry("chain24").build();
    PlannerOptions options;
    options.budget = 3;
    options.objective.num_patterns = 256;
    options.seed = 5;
    options.threads = 1;
    const Plan local = DpPlanner().plan(circuit, options);

    const obs::json::Value* points = result->find("points");
    if (points == nullptr || !points->is_array() ||
        points->array.size() != local.points.size()) {
        violation("probe plan point count differs from batch planner");
        return false;
    }
    if (local.points.empty()) {
        // An empty plan would make the comparison vacuous.
        violation("probe circuit yields an empty plan; probe is void");
        return false;
    }
    for (std::size_t i = 0; i < local.points.size(); ++i) {
        const obs::json::Value* node = points->array[i].find("node");
        const obs::json::Value* kind = points->array[i].find("kind");
        if (node == nullptr || kind == nullptr ||
            node->string != circuit.node_name(local.points[i].node) ||
            kind->string != netlist::tp_kind_name(local.points[i].kind)) {
            violation("probe plan point " + std::to_string(i) +
                      " differs from batch planner");
            return false;
        }
    }
    const obs::json::Value* score = result->find("predicted_score");
    if (score == nullptr || score->number != local.predicted_score) {
        violation("probe predicted_score differs from batch planner");
        return false;
    }
    std::cout << "differential probe: session-cached plan is "
                 "bit-identical to the batch planner ("
              << local.points.size() << " points)\n";
    return true;
}

[[noreturn]] void usage() {
    std::cerr << "usage: serve_soak [--seed S] [--clients N] "
                 "[--requests R] [--budget-ms M] [--fault SPEC]... "
                 "[--verbose]\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
    std::uint64_t value = 0;
    const char* begin = text.c_str();
    const auto [ptr, ec] =
        std::from_chars(begin, begin + text.size(), value);
    if (ec != std::errc{} || ptr != begin + text.size() || text.empty()) {
        std::cerr << "serve_soak: invalid value '" << text << "' for "
                  << flag << "\n";
        usage();
    }
    return value;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 1;
    std::uint64_t clients = 4;
    std::uint64_t requests = 150;
    std::uint64_t budget_ms = 0;
    bool verbose = false;
    std::vector<std::string> fault_specs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--seed")
            seed = parse_u64(arg, next());
        else if (arg == "--clients")
            clients = parse_u64(arg, next());
        else if (arg == "--requests")
            requests = parse_u64(arg, next());
        else if (arg == "--budget-ms")
            budget_ms = parse_u64(arg, next());
        else if (arg == "--fault")
            fault_specs.push_back(next());
        else if (arg == "--verbose")
            verbose = true;
        else
            usage();
    }
    if (fault_specs.empty())
        // The default chaos plan. `plan` only gets a delay (delays and
        // torn writes preserve correctness), so the differential probe
        // stays valid on the abused server; alloc and forced-deadline
        // faults go to the other sites.
        fault_specs = {"open:alloc:every=13", "sim:deadline:every=7",
                       "lint:delay:2:every=5", "score:alloc:every=11",
                       "plan:delay:5:every=3", "write:torn:every=17"};

    serve::FaultPlan faults;
    try {
        for (const std::string& spec : fault_specs) faults.add_rule(spec);
    } catch (const Error& e) {
        std::cerr << "serve_soak: bad --fault spec: " << e.what() << "\n";
        return 2;
    }

    serve::ServerOptions options;
    options.session_limits.max_sessions = 3;
    options.session_limits.max_resident_nodes = 1u << 16;
    options.max_queue = 8;
    options.workers = 2;  // small lanes so the overload burst must shed
    options.max_deadline_ms = 2'000.0;
    options.faults = &faults;
    serve::Server server(options);

    const std::string socket_path =
        "/tmp/tpidp_soak_" + std::to_string(::getpid()) + ".sock";
    serve::ListenerOptions listen_options;
    listen_options.endpoint.unix_path = socket_path;
    listen_options.max_line_bytes = 4096;
    listen_options.idle_timeout_ms = 15'000.0;

    try {
        serve::Listener listener(server, listen_options);
        server.start();
        listener.start();

        std::vector<std::thread> threads;
        std::vector<ClientTally> tallies(clients);
        for (std::uint64_t c = 0; c < clients; ++c)
            threads.emplace_back(chaos_client, socket_path,
                                 seed + c * 7919, requests, budget_ms,
                                 listen_options.max_line_bytes,
                                 std::ref(tallies[c]));
        for (std::thread& t : threads) t.join();

        ClientTally total;
        for (const ClientTally& t : tallies) {
            total.sent += t.sent;
            total.ok += t.ok;
            total.errors += t.errors;
            total.reconnects += t.reconnects;
        }
        std::cout << "chaos: " << total.sent << " requests from "
                  << clients << " clients (" << total.ok << " ok, "
                  << total.errors << " structured errors, "
                  << total.reconnects << " reconnects), "
                  << faults.fired() << " faults fired\n";
        if (total.ok == 0)
            violation("chaos phase produced no successful responses");
        if (faults.fired() == 0)
            violation("fault plan never fired");

        overload_burst(socket_path, 96);
        differential_probe(socket_path);

        listener.shutdown();

        const serve::ServerStats stats = server.stats();
        if (stats.accepted != stats.completed)
            violation("drain leaked requests: accepted " +
                      std::to_string(stats.accepted) + ", completed " +
                      std::to_string(stats.completed));
        if (stats.queue_depth != 0)
            violation("drain left a non-empty queue");
        const serve::SessionCache::Stats cache = server.sessions().stats();
        if (cache.evictions == 0)
            violation("LRU cache never evicted under session churn");
        if (verbose)
            std::cout << "  stats: accepted " << stats.accepted
                      << ", shed " << stats.shed_overload << ", errors "
                      << stats.request_errors << ", evictions "
                      << cache.evictions << "\n";
    } catch (const std::exception& e) {
        ::unlink(socket_path.c_str());
        std::cerr << "serve_soak: fatal: " << e.what() << "\n";
        return 1;
    }
    ::unlink(socket_path.c_str());

    if (g_violations.load() != 0) {
        std::cerr << "serve_soak: " << g_violations.load()
                  << " contract violation(s) (seed " << seed << ")\n";
        return 1;
    }
    std::cout << "serve_soak: 0 contract violations\n";
    return 0;
}
