#!/usr/bin/env python3
"""End-to-end benchmark of tpidp: the CLI and the serve daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dp-default --seed 1 --seconds 45 --trace 0

It builds tpidp and the benchmark's probe from source into .bench_build/,
sets the workload up, repeats the workload's fixed, seeded pass of
operations until --seconds have passed, checks the outputs, and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. Every workload
reports every end-to-end metric of BENCHMARK.json; with --trace 1 it
instead runs the probe's per-layer measurements, which report every
per-layer metric (see README.md).
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import checks
from checks import CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
TPIDP = os.path.join(BUILD, "tools", "tpidp")
PROBE = os.path.join(BUILD, "perfbench_probe")
# A run may take 180 s, the first one 900 s because it builds. The
# measured part gets the rest after the build, with room to clean up.
BUILD_LIMIT_S = 840
RUN_LIMIT_S = 160

DP_CIRCUITS = ["dag2000", "cmp32", "lanes8x12", "fabric64x8"]
DP_BUDGET = 8  # tpidp tpi's default budget
DP_PATTERNS = 32768  # and its default test length
# The traced run reads these and analyses and lints the first two.
SCALE_CIRCUITS = ["dag100k", "fabric100k", "dag1m"]
SCALE_ANALYZED = ["dag100k", "fabric100k"]
SESSIONS = ["dag2000", "cmp32"]
TP_KINDS = ["OP", "CP-AND", "CP-OR", "CP-XOR"]
# serve-warm's pass: the counts are fixed, the seed draws the points, the
# sim seeds and the order.
SCORES_PER_PASS = 40
PLAN_MIX = [("dag2000", "dp", 2), ("dag2000", "greedy", 2),
            ("cmp32", "dp", 1), ("cmp32", "greedy", 1)]
PLAN_OPTIONS = {"budget": 4, "patterns": 1024}
EXACT_SAMPLE = 8


class Overrun(Exception):
    pass


# ---- processes ---------------------------------------------------------

_children = set()  # process-group leaders not yet reaped


def spawn(cmd, out):
    """Start `cmd`, output to the file `out`, leading a new process group."""
    proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                            start_new_session=True)
    _children.add(proc.pid)
    return proc


def reap(proc):
    """Wait for `proc`; returns (exit code, rusage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    _children.discard(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def kill_all():
    """SIGKILL every process group still running, and reap the leaders."""
    for pid in list(_children):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        _children.discard(pid)


def run(cmd, out_path):
    """Run `cmd` with stdout (and stderr) to `out_path`.

    Returns (exit code, peak RSS in MB from wait4)."""
    with open(out_path, "w") as out:
        code, usage = reap(spawn(cmd, out))
    return code, usage.ru_maxrss / 1024.0


def run_ok(cmd, out_path):
    code, _ = run(cmd, out_path)
    if code != 0:
        with open(out_path) as f:
            tail = f.read()[-2000:]
        raise RuntimeError(f"{' '.join(cmd)} exited {code}:\n{tail}")
    with open(out_path) as f:
        return f.read()


def on_alarm(signum, frame):
    raise Overrun("run overran its time limit")


def on_term(signum, frame):
    raise Overrun(f"stopped by signal {signum}")


def build():
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_ok(["cmake", "-S", ".", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                "-DCMAKE_PROJECT_tpidp_INCLUDE=" +
                os.path.join(HERE, "probe.cmake")], log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_ok(["cmake", "--build", BUILD, "-j", jobs, "--target", "tpidp",
            "perfbench_probe"], log)


# ---- helpers -----------------------------------------------------------

def tpb(work, circuit):
    return os.path.join(work, circuit + ".tpb")


def convert(work, circuits):
    """Write each built-in circuit to .tpb."""
    for c in circuits:
        run_ok([TPIDP, "convert", c, "--out", tpb(work, c)],
               os.path.join(work, c + ".convert"))


def tpi_points(text):
    """The plan printed by `tpidp tpi`, as KIND@net strings."""
    return [line.strip().replace(" @ ", "@") for line in text.splitlines()
            if " @ " in line]


def tpi_stable_output(text):
    """`tpidp tpi` stdout without the planner's wall time."""
    return "\n".join(line.split(" (")[0] if "test points (" in line else line
                     for line in text.splitlines())


def probe(work, name, *args):
    return run_ok([PROBE, *map(str, args)], os.path.join(work, name))


def verify(work, name, circuit_tpb, points, seed, patterns, blocks, claims):
    cmd = [PROBE, "verify", circuit_tpb, "--points", ",".join(points),
           "--seed", seed, "--patterns", patterns, "--blocks", blocks,
           "--claims", claims]
    out = os.path.join(work, name)
    code, _ = run([str(a) for a in cmd], out)
    if code != 0:
        with open(out) as f:
            raise CheckError(f"{name}: {f.read().strip()}")


def timed_passes(seconds, one_pass):
    """Run whole passes until `seconds` have passed; returns their walls.

    pass_s is their mean, not their median: the host's speed drifts over
    minutes, and the mean over every pass of a run spreads less from run
    to run."""
    walls = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        one_pass(len(walls))
        walls.append(time.perf_counter() - start)
        if time.perf_counter() >= end:
            return walls


# ---- dp-default --------------------------------------------------------

def dp_default(opts, work):
    start = time.perf_counter()
    convert(work, DP_CIRCUITS)
    setup_s = time.perf_counter() - start

    # One untimed reference run per circuit, with the run report, checked
    # against the probe's from-scratch recomputation.
    expected = {}
    plan_score = 0.0
    for c in DP_CIRCUITS:
        report_path = os.path.join(work, c + ".report.json")
        text = run_ok([TPIDP, "tpi", tpb(work, c), "--threads", "1",
                       "--seed", str(opts.seed), "--metrics-json", report_path],
                      os.path.join(work, c + ".reference"))
        with open(report_path) as f:
            outcome = json.load(f)["outcome"]
        points = tpi_points(text)
        checks.plan_within_budget(points, DP_BUDGET)
        claims = os.path.join(work, c + ".claims")
        oracle = json.loads(probe(work, c + ".oracle", "oracle", tpb(work, c),
                                  "--points", ",".join(points),
                                  "--patterns", DP_PATTERNS, "--seed", opts.seed,
                                  "--sample", 32, "--claims-out", claims))
        checks.score_matches(outcome["predicted_score"], oracle["score"], c)
        checks.same(outcome["coverage_after"], oracle["coverage"],
                    c + ": coverage after insertion")
        verify(work, c + ".verify", tpb(work, c), points, opts.seed,
               oracle["patterns_applied"], 8, claims)
        expected[c] = tpi_stable_output(text)
        plan_score += outcome["predicted_score"]

    state = {"attempted": 0, "failed": 0, "peak": 0.0}

    def one_pass(index):
        for c in DP_CIRCUITS:
            out = os.path.join(work, c + ".out")
            code, rss = run([TPIDP, "tpi", tpb(work, c), "--threads", "1",
                             "--seed", str(opts.seed)], out)
            state["attempted"] += 1
            if code != 0:
                state["failed"] += 1
                continue
            state["peak"] = max(state["peak"], rss)
            with open(out) as f:
                checks.same(tpi_stable_output(f.read()), expected[c],
                            f"{c}: output of timed pass {index}")

    walls = timed_passes(opts.seconds, one_pass)
    return state["attempted"], state["failed"], {
        "setup_s": setup_s,
        "pass_s": statistics.mean(walls),
        "peak_rss_mb": state["peak"],
        "quality": plan_score,
    }


# ---- serve-warm --------------------------------------------------------

def serve_requests(seed, work):
    """One pass of serve-warm: fixed counts, seeded content and order."""
    rng = random.Random(seed)
    nets = {s: probe(work, s + ".nodes", "nodes", s).split() for s in SESSIONS}
    requests = []
    for i in range(SCORES_PER_PASS):
        session = SESSIONS[i % len(SESSIONS)]
        # Distinct nets: two points of one class on a net make the
        # daemon fail with `internal` (see CHANGES.md).
        picks = rng.sample(nets[session], rng.randint(1, 8))
        requests.append({"method": "score", "session": session,
                         "points": [{"node": n, "kind": rng.choice(TP_KINDS)}
                                    for n in picks]})
    for session, planner, count in PLAN_MIX:
        for _ in range(count):
            requests.append({"method": "plan", "session": session,
                             "options": dict(PLAN_OPTIONS, planner=planner)})
    for session in SESSIONS:
        requests.append({"method": "sim", "session": session,
                         "options": {"patterns": 1024,
                                     "seed": rng.randrange(1, 1 << 31)}})
    rng.shuffle(requests)
    return requests


class Client:
    """Closed-loop line client: one request in flight at a time."""

    def __init__(self, path, daemon):
        deadline = time.perf_counter() + 30
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self.sock.close()
                if daemon.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("tpidp serve did not start listening")
                time.sleep(0.001)
        self.stream = self.sock.makefile("rwb")
        self.next_id = 1

    def call(self, request):
        """Send one request; returns its checked response."""
        request_id = self.next_id
        self.next_id += 1
        line = json.dumps(dict(request, id=request_id)).encode() + b"\n"
        self.stream.write(line)
        self.stream.flush()
        reply = self.stream.readline()
        if not reply:
            raise RuntimeError("tpidp serve closed the connection")
        response = json.loads(reply)
        checks.response_ok(response, request_id)
        return response

    def close(self):
        self.stream.close()
        self.sock.close()


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the daemon")


def stop_daemon(daemon, path):
    """Drain with SIGTERM; SIGKILL the group if it does not end in 20 s."""
    if daemon.pid in _children:
        os.kill(daemon.pid, signal.SIGTERM)
        end = time.perf_counter() + 20
        while daemon.pid in _children and time.perf_counter() < end:
            pid, status = os.waitpid(daemon.pid, os.WNOHANG)
            if pid != 0:
                _children.discard(pid)
                break
            time.sleep(0.01)
        kill_all()
    if os.path.exists(path):
        os.unlink(path)


def serve_warm(opts, work):
    requests = serve_requests(opts.seed, work)
    path = os.path.join(work, "tpidp.sock")
    with open(os.path.join(work, "serve.log"), "w") as log:
        start = time.perf_counter()
        daemon = spawn([TPIDP, "serve", "--socket", path, "--workers", "1"], log)
    try:
        client = Client(path, daemon)
        client.call({"method": "ping"})
        for s in SESSIONS:
            client.call({"method": "open", "session": s, "circuit": s,
                         "format": "suite"})
        setup_s = time.perf_counter() - start

        results = []  # per pass, the result of each request

        def one_pass(index):
            results.append([])
            for request in requests:
                response = client.call(request)
                results[-1].append(response["result"])

        walls = timed_passes(opts.seconds, one_pass)
        attempted = len(walls) * len(requests)

        # Every pass answers the same requests the same way.
        for index, answers in enumerate(results[1:], 1):
            for request, first, later in zip(requests, results[0], answers):
                if request["method"] == "score":  # the first one warms
                    later = dict(later, engine_warm=first["engine_warm"])
                checks.same(later, first, f"{request['method']} in pass {index}")
        # Sampled scores equal the from-scratch path of the same request.
        scored = [i for i, r in enumerate(requests) if r["method"] == "score"]
        for i in random.Random(opts.seed + 1).sample(scored, EXACT_SAMPLE):
            exact = client.call(dict(requests[i], options={"exact_eval": True}))
            checks.same(exact["result"]["score"], results[0][i]["score"],
                        "score with exact_eval")
        # Plans equal the in-process planner's and beat the empty plan.
        plan_score = 0.0
        reference = {}
        for i, request in enumerate(requests):
            if request["method"] != "plan":
                continue
            key = (request["session"], request["options"]["planner"])
            if key not in reference:
                reference[key] = json.loads(probe(
                    work, "plan." + "-".join(key), "plan", key[0],
                    "--planner", key[1], "--budget", PLAN_OPTIONS["budget"],
                    "--patterns", PLAN_OPTIONS["patterns"]))
            served = results[0][i]
            ref = reference[key]
            checks.same([f"{p['kind']}@{p['node']}" for p in served["points"]],
                        ref["points"], f"{key} plan points")
            checks.same(served["predicted_score"], ref["predicted_score"],
                        f"{key} plan score")
            checks.not_below(served["predicted_score"], ref["empty_score"],
                             f"{key} plan")
            plan_score += served["predicted_score"]
        peak = vm_hwm_mb(daemon.pid)
        client.close()
    finally:
        stop_daemon(daemon, path)

    return attempted, 0, {
        "setup_s": setup_s,
        "pass_s": statistics.mean(walls),
        "peak_rss_mb": peak,
        "quality": plan_score,
    }


# ---- traced run ---------------------------------------------------------

def traced(opts, work):
    """Every per-layer metric. The workload's own group of layers (dp or
    serve) runs on its inputs for --seconds and the other group once; the
    DP runs on the serve sessions in serve-warm's traced run. Then .tpb
    read, analysis and lint run once at the 100k-1M rungs."""
    home = HOME_LAYERS[opts.workload]
    dp_circuits = DP_CIRCUITS if home == "dp" else SESSIONS
    convert(work, dp_circuits + SCALE_CIRCUITS)
    requests = os.path.join(work, "requests.jsonl")
    with open(requests, "w") as f:
        for i, request in enumerate(serve_requests(opts.seed, work), 1):
            f.write(json.dumps(dict(request, id=i)) + "\n")
    metrics = json.loads(probe(
        work, "layers", "layers", "--home", home, "--dir", work,
        "--seconds", opts.seconds, "--seed", opts.seed,
        "--requests", requests, "--dp-circuits", ",".join(dp_circuits),
        "--read-circuits", ",".join(SCALE_CIRCUITS),
        "--facts-circuits", ",".join(SCALE_ANALYZED)))
    metrics["tpi.dp_rss_mb"] = max(
        json.loads(probe(work, c + ".rss", "dp-rss", tpb(work, c)))["vmhwm_mb"]
        for c in dp_circuits)
    return metrics


WORKLOADS = {
    "dp-default": dp_default,
    "serve-warm": serve_warm,
}
# The group of layers each workload's traced run measures at length.
HOME_LAYERS = {"dp-default": "dp", "serve-warm": "serve"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile("BENCHMARK.json")):
        print("run.py: run from the root of a tpidp checkout "
              "(CMakeLists.txt, src/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if opts.trace else "end_to_end"]}

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    work = os.path.join(".bench_work", f"{opts.workload}-{os.getpid()}")
    try:
        signal.alarm(BUILD_LIMIT_S)
        build()
        signal.alarm(RUN_LIMIT_S)
        os.makedirs(work)
        if opts.trace:
            attempted, failed, values = 1, 0, traced(opts, work)
        else:
            attempted, failed, values = WORKLOADS[opts.workload](opts, work)
    except CheckError as e:
        print(f"run.py: check failed: {e}", file=sys.stderr)
        return 1
    except (Overrun, RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        kill_all()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(".bench_work") and not os.listdir(".bench_work"):
            os.rmdir(".bench_work")

    if set(values) != set(units):
        print("run.py: measured metrics differ from BENCHMARK.json: "
              f"not listed {sorted(set(values) - set(units))}, "
              f"not measured {sorted(set(units) - set(values))}",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
