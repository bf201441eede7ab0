#!/usr/bin/env python3
"""Perf-smoke gate over the committed bench reports.

Dispatches on the report's "schema" field:

* tpidp-bench-t12 (results/BENCH_5.json) — the incremental evaluation
  engine must (a) score every candidate bitwise equal to the
  evaluate_plan oracle on every benchmark circuit, and (b) keep the
  per-candidate score_candidate vs evaluate_plan speedup on the
  largest circuit above the floor.
* tpidp-bench-t7 (results/BENCH_7.json) — the wide-word (SIMD) fault
  simulation path with per-FFR batching must (a) produce detection
  results bit-identical to the scalar 64-bit baseline, and (b) keep
  the simulated-patterns/second speedup on dag2000 above the floor.
* tpidp-bench-t11 — observe-only planning on the XOR-heavy 2048-gate
  DAG, compared with the committed results/BENCH_11.json (recorded
  with the zero-gain rule engaged): every planner must (a) reproduce
  the recorded plan and bitwise predicted score, and (b) do no more
  deterministic work (DP cells filled, DP regions built, greedy
  evaluations) than recorded; (c) the DP must report zero-gain members
  dropped (candidates_pruned_analysis > 0). With the rule disengaged
  the DP fills about 5x the recorded cells, so (b) catches it on any
  machine; wall time is printed for information only.
* tpidp-bench-t14 (results/BENCH_10.json) — lane-parallel candidate
  scoring: score_block must (a) produce bitwise-identical scores to
  the scalar incremental engine on every circuit, single- and
  multi-threaded, and (b) keep the live per-candidate block-vs-scalar
  speedup on the gate circuit (dag2000) above the floor. The report
  also carries the recorded PR 5 baseline (BENCH_5's engine_us) for
  the cross-PR comparison; that ratio is printed as info — the live
  scalar path has itself sped up since PR 5, so only the live ratio
  is a stable regression signal.
* tpidp-bench-t13 (results/BENCH_9.json) — the million-gate core:
  (a) the DP region cache must keep dag2000 plans and scores
  bit-identical with the speedup above the floor, (b) the 1M-gate
  generate -> .tpb -> parse -> freeze -> greedy pipeline must finish
  inside its wall-clock budget untruncated with points placed, and
  (c) every scale row must stay under the in-core and on-disk
  bytes-per-node caps.

Floors are deliberately below the measured numbers (about 19x for t12,
11x+ for t7 on a quiet machine) so the gate catches real regressions, not
CI noise.

Usage: check_perf.py [report.json] [--min-speedup X]
Exit 0 on pass, 1 on failure or malformed report.
"""

import json
import os
import sys


def fail(msg: str) -> None:
    print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_t12(report: dict, min_speedup: float) -> bool:
    circuits = report.get("circuits", [])
    if not circuits:
        fail("report lists no circuits")
    largest = report.get("largest")

    ok = True
    for row in circuits:
        name = row.get("name", "?")
        cand = row.get("candidate", {})
        if not cand.get("scores_identical"):
            print(f"check_perf: {name}: engine scores DIVERGED from the "
                  "evaluate_plan oracle (must be bitwise equal)",
                  file=sys.stderr)
            ok = False
        speedup = cand.get("speedup", 0.0)
        gated = name == largest
        status = "gate" if gated else "info"
        print(f"check_perf: {name}: per-candidate scoring {speedup:.2f}x "
              f"(score_candidate {cand.get('engine_us', 0.0):.1f} us vs "
              f"evaluate_plan {cand.get('oracle_us', 0.0):.1f} us) "
              f"[{status}]")
        if gated and speedup < min_speedup:
            print(f"check_perf: {name}: per-candidate speedup "
                  f"{speedup:.2f}x below the {min_speedup:.1f}x floor",
                  file=sys.stderr)
            ok = False
    return ok


def check_t7(report: dict, min_speedup: float) -> bool:
    ok = True
    if not report.get("results_identical"):
        print("check_perf: wide fault-sim results DIVERGED from the "
              "scalar baseline", file=sys.stderr)
        ok = False
    speedup = report.get("speedup", 0.0)
    base = report.get("baseline", {})
    wide = report.get("wide", {})
    print(f"check_perf: {report.get('circuit', '?')}: fault-sim "
          f"{speedup:.2f}x (wide {wide.get('ms', 0.0):.1f} ms vs "
          f"baseline {base.get('ms', 0.0):.1f} ms, "
          f"{wide.get('patterns_per_sec', 0.0):.0f} vs "
          f"{base.get('patterns_per_sec', 0.0):.0f} patterns/s) [gate]")
    if speedup < min_speedup:
        print(f"check_perf: fault-sim speedup {speedup:.2f}x below the "
              f"{min_speedup:.1f}x floor", file=sys.stderr)
        ok = False
    return ok


T11_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "results", "BENCH_11.json")
T11_WORK = ("dp_cells_filled", "dp_regions_built", "greedy_evaluations")


def check_t11(report: dict, min_speedup: float) -> bool:
    del min_speedup  # the t11 gate counts work; it times nothing
    try:
        with open(T11_BASELINE, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the t11 baseline {T11_BASELINE}: {e}")
    recorded = {row.get("name"): row for row in baseline.get("planners", [])}
    if not recorded:
        fail("the t11 baseline lists no planners")
    measured = {row.get("name"): row for row in report.get("planners", [])}
    ok = True
    for name, want in recorded.items():
        got = measured.get(name)
        if got is None:
            print(f"check_perf: {name}: missing from the report",
                  file=sys.stderr)
            ok = False
            continue
        if got.get("points") != want.get("points"):
            print(f"check_perf: {name}: plan {got.get('points')!r} differs "
                  f"from the recorded {want.get('points')!r}",
                  file=sys.stderr)
            ok = False
        # Hex doubles compare bitwise.
        if got.get("predicted_score") != want.get("predicted_score"):
            print(f"check_perf: {name}: predicted score "
                  f"{got.get('predicted_score')} differs from the recorded "
                  f"{want.get('predicted_score')} (must be bitwise equal)",
                  file=sys.stderr)
            ok = False
        for counter in T11_WORK:
            value = got.get(counter, float("inf"))
            limit = want.get(counter, 0)
            print(f"check_perf: {name}: {counter} {value} (recorded "
                  f"{limit}) [gate <=]")
            if value > limit:
                print(f"check_perf: {name}: {counter} {value} above the "
                      f"recorded {limit}", file=sys.stderr)
                ok = False
        print(f"check_perf: {name}: {got.get('wall_ms', 0.0):.1f} ms "
              f"(recorded {want.get('wall_ms', 0.0):.1f} ms) [info]")
    pruned = measured.get("dp", {}).get("candidates_pruned_analysis", 0)
    print(f"check_perf: dp: {pruned} zero-gain members dropped [gate >0]")
    if pruned <= 0:
        print("check_perf: dp: no zero-gain members dropped on the "
              "XOR-heavy circuit; the zero-gain rule is not engaging",
              file=sys.stderr)
        ok = False
    return ok


def check_t13(report: dict, min_speedup: float) -> bool:
    ok = True

    dp = report.get("dp_reuse", {})
    if not dp.get("plans_identical"):
        print("check_perf: dp-reuse plans DIVERGED between the cached "
              "and rebuild paths (must be bit-identical)",
              file=sys.stderr)
        ok = False
    if not dp.get("score_identical"):
        print("check_perf: dp-reuse predicted score DIVERGED (must be "
              "bitwise equal)", file=sys.stderr)
        ok = False
    speedup = dp.get("speedup", 0.0)
    print(f"check_perf: {dp.get('circuit', '?')}: dp-reuse "
          f"{speedup:.2f}x (off {dp.get('off_ms', 0.0):.1f} ms vs on "
          f"{dp.get('on_ms', 0.0):.1f} ms) [gate]")
    if speedup < min_speedup:
        print(f"check_perf: dp-reuse speedup {speedup:.2f}x below the "
              f"{min_speedup:.1f}x floor", file=sys.stderr)
        ok = False

    million = report.get("million", {})
    total_s = million.get("total_s", 1e30)
    budget_s = million.get("budget_s", 60)
    print(f"check_perf: {million.get('circuit', '?')}: "
          f"{million.get('nodes', 0)} nodes pipeline {total_s:.1f} s "
          f"(plan {million.get('plan_ms', 0.0):.0f} ms, "
          f"{million.get('points', 0)} points) "
          f"[gate <{budget_s:.0f} s]")
    if total_s >= budget_s:
        print(f"check_perf: million-gate pipeline {total_s:.1f} s "
              f"blew the {budget_s:.0f} s budget", file=sys.stderr)
        ok = False
    if million.get("truncated"):
        print("check_perf: million-gate greedy plan was truncated — "
              "the pipeline did not really finish", file=sys.stderr)
        ok = False
    if million.get("points", 0) == 0:
        print("check_perf: million-gate greedy placed no points",
              file=sys.stderr)
        ok = False

    scale = report.get("scale", [])
    if not scale:
        fail("report lists no scale rows")
    for row in scale:
        bpn = row.get("bytes_per_node", 1e30)
        tpb = row.get("tpb_bytes_per_node", 1e30)
        print(f"check_perf: {row.get('name', '?')}: "
              f"{row.get('nodes', 0)} nodes, {bpn:.1f} B/node in "
              f"core, {tpb:.1f} B/node on disk [gate <200/<40]")
        if bpn >= 200.0:
            print(f"check_perf: {row.get('name', '?')}: in-core "
                  f"footprint {bpn:.1f} B/node over the 200 B/node "
                  "cap", file=sys.stderr)
            ok = False
        if tpb >= 40.0:
            print(f"check_perf: {row.get('name', '?')}: .tpb "
                  f"footprint {tpb:.1f} B/node over the 40 B/node "
                  "cap", file=sys.stderr)
            ok = False
    return ok


def check_t14(report: dict, min_speedup: float) -> bool:
    circuits = report.get("circuits", [])
    if not circuits:
        fail("report lists no circuits")
    gate = report.get("gate")

    ok = True
    for row in circuits:
        name = row.get("name", "?")
        if not row.get("scores_identical"):
            print(f"check_perf: {name}: block scores DIVERGED from the "
                  "scalar engine (must be bitwise equal)",
                  file=sys.stderr)
            ok = False
        speedup = row.get("speedup", 0.0)
        gated = name == gate
        status = "gate" if gated else "info"
        print(f"check_perf: {name}: batched scoring {speedup:.2f}x "
              f"(block {row.get('block_us', 0.0):.1f} us/cand vs "
              f"scalar {row.get('scalar_us', 0.0):.1f} us/cand, "
              f"K={row.get('lanes', 0)}, lanes/frontier "
              f"{row.get('lanes_per_frontier', 0.0):.2f}) [{status}]")
        ref = row.get("ref_scalar_us", 0.0)
        if ref > 0.0 and row.get("block_us", 0.0) > 0.0:
            print(f"check_perf: {name}: {ref / row['block_us']:.2f}x vs "
                  f"the recorded PR 5 baseline ({ref:.1f} us/cand) "
                  "[info]")
        if gated and speedup < min_speedup:
            print(f"check_perf: {name}: batched scoring speedup "
                  f"{speedup:.2f}x below the {min_speedup:.1f}x floor",
                  file=sys.stderr)
            ok = False
    return ok


def main(argv: list[str]) -> None:
    path = "results/BENCH_5.json"
    min_speedup = 3.0
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--min-speedup":
            if not args:
                fail("--min-speedup needs a value")
            min_speedup = float(args.pop(0))
        else:
            path = arg

    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")

    schema = report.get("schema")
    if schema == "tpidp-bench-t12":
        ok = check_t12(report, min_speedup)
    elif schema == "tpidp-bench-t7":
        ok = check_t7(report, min_speedup)
    elif schema == "tpidp-bench-t11":
        ok = check_t11(report, min_speedup)
    elif schema == "tpidp-bench-t13":
        ok = check_t13(report, min_speedup)
    elif schema == "tpidp-bench-t14":
        ok = check_t14(report, min_speedup)
    else:
        fail(f"unexpected schema {schema!r}")

    if not ok:
        sys.exit(1)
    print("check_perf: PASS")


if __name__ == "__main__":
    main(sys.argv)
