#!/bin/sh
# Allocation-failure check: when an engine runs out of memory
# (std::bad_alloc), the CLI must print "internal error", exit 1 and
# still write its run report, as strict JSON with "exit_code": 1.
#
#   run_oom.sh <path-to-tpidp> <scratch-dir>
#
# The memory is capped with `ulimit -v` in a subshell, so the cap binds
# the CLI process only. The default DP on dag100k asks for far more
# than the 1 GiB cap (its region tables grow with regions x nodes), so
# the allocation fails within seconds.
cli="$1"
dir="$2"
[ -x "$cli" ] && [ -d "$dir" ] || {
    echo "usage: run_oom.sh <tpidp> <scratch-dir>"
    exit 2
}
report="$dir/oom.metrics.json"
rm -f "$report"
out=$( (ulimit -v 1048576 && exec "$cli" tpi dag100k --threads 1 \
        --metrics-json "$report") 2>&1)
code=$?
if [ "$code" -ne 1 ]; then
    echo "expected exit 1 under the memory cap, got $code"
    echo "$out" | tail -5
    exit 1
fi
echo "$out" | grep -q 'internal error' || {
    echo 'missing the "internal error" message'
    exit 1
}
python3 - "$report" <<'PY' || exit 1
import json, sys

def reject(token):
    raise ValueError(f"non-standard JSON constant {token}")

with open(sys.argv[1], encoding="utf-8") as f:
    doc = json.load(f, parse_constant=reject)
if doc.get("exit_code") != 1:
    sys.exit(f"run report has exit_code {doc.get('exit_code')!r}, not 1")
PY
echo "oom: exit 1 with a run report"
exit 0
