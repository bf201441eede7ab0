#!/bin/sh
# Interrupt-handling check: SIGINT mid-run must cancel the active
# deadline so the engines wind down with a best-so-far result, the CLI
# exits 5, and the run report carries "truncated": true in-band.
#
#   run_interrupt.sh <path-to-tpidp>
#
# atpg dag500 runs for minutes uninterrupted, so the 0.5 s signal is
# guaranteed to land mid-run; the handler also covers a signal that
# races ahead of deadline registration, so an unusually slow start
# (sanitizer builds) still truncates rather than running to completion.
cli="$1"
[ -x "$cli" ] || { echo "usage: run_interrupt.sh <tpidp>"; exit 2; }

# --foreground: signal only the CLI. Without it, timeout also signals
# its own process group, which holds the CLI, and a second SIGINT is the
# CLI's cue to exit 130 at once.
out=$(timeout --foreground --preserve-status -s INT 0.5 "$cli" atpg \
      dag500 --metrics-json - 2>&1)
code=$?
if [ "$code" -ne 5 ]; then
    echo "expected exit 5 after SIGINT, got $code"
    echo "$out" | tail -5
    exit 1
fi
echo "$out" | grep -q '"truncated": true' || {
    echo 'run report lacks "truncated": true'
    exit 1
}
echo "$out" | grep -q 'interrupted' || {
    echo "missing the (interrupted) truncation note"
    exit 1
}
echo "interrupt: exit 5 with a truncated run report"
exit 0
