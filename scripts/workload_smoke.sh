#!/bin/sh
# workload_smoke.sh — determinism smoke of the virtual-clock workloads.
#
# Runs each named workload twice at reduced scale with short horizons
# and requires byte-identical stdout and byte-identical -zerotime
# manifests between the two invocations. Any diff means the event
# engine, the workload generators, or the prober leaked scheduling
# nondeterminism into results. Any failure exits non-zero.
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/resurvey" ./cmd/resurvey

run_twice() {
    name="$1"
    duration="$2"
    # Each pass runs in its own directory with the same relative
    # -manifest path, so the "manifest written to" line (and thus the
    # whole stdout) is comparable verbatim.
    for pass in 1 2; do
        mkdir -p "$WORK/$pass"
        (cd "$WORK/$pass" && "$WORK/resurvey" -small -seed 1 \
            -workload "$name" -duration "$duration" \
            -zerotime -manifest "$name.json") >"$WORK/$name.$pass.out"
    done
    cmp "$WORK/$name.1.out" "$WORK/$name.2.out" ||
        { echo "workload $name: stdout differs between runs" >&2; exit 1; }
    cmp "$WORK/1/$name.json" "$WORK/2/$name.json" ||
        { echo "workload $name: manifest differs between runs" >&2; exit 1; }
    echo "workload $name: ${duration}s twice, stdout and manifest byte-identical"
}

run_twice update-storm 600
run_twice flap-cascade-rfd 1200
run_twice diurnal-churn 7200

# The RFD cascade must actually exercise damping, not just run.
grep -q '[1-9][0-9]* rfd suppressions' "$WORK/flap-cascade-rfd.1.out" ||
    { echo "flap-cascade-rfd triggered no suppressions:" >&2
      cat "$WORK/flap-cascade-rfd.1.out" >&2; exit 1; }

echo "workload smoke OK: three workloads reproducible"
